"""Newton-polygon extraction and exact univariate polynomial utilities.

The input is the monomial support of a curve equation that the user has
already normalized: the point under study sits at (1:0:0) and the
tangent line under study is z = 0, so the relevant exponents are the
(j, k) of y^j z^k.  From the support this module computes the lower-left
polygon, selects the sides of slope strictly between -1 and 0, and reads
off each side's coefficient string and root-multiplicity profile.

Root multiplicities are obtained without factoring: a squarefree
decomposition over the rationals already reveals how many roots (over
the algebraic closure) occur with each multiplicity, which is all the
downstream power sums need.  The decomposition is Yun's algorithm run
over the integers.  Each of its gcds comes with the two exact quotients
Yun needs next, from the heuristic gcd GCDHEU: evaluate at one large
integer, take the integer gcd and read it back as a polynomial, which
is accepted only when it divides both inputs exactly.  When a few
evaluation points fail, the primitive polynomial remainder sequence
decides.  Neither route lets coefficients grow the way Euclid's
algorithm over Q makes them grow.

A side's lattice span, and with it the work on the side, grows with the
curve's degree rather than with the size of the input, so supports of
degree above MAX_DEGREE are refused.

Univariate polynomials are plain lists of integers, constant term first,
with no trailing zeros; only the reported squarefree factors are monic
lists of Fractions.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Any, Iterable, Iterator, Sequence

from . import model
from .series import RationalLike, to_rational

Poly = list[Fraction]
ZPoly = list[int]

Side = tuple[tuple[int, int], tuple[int, int]]


class SupportError(ValueError):
    """The monomial support is unusable for the requested operation."""


#: The largest degree `MonomialSupport.from_terms` accepts.  A side's
#: lattice span, and with it the coefficient list and the side polynomial,
#: grows with the degree, not with the number of terms; the bound keeps a
#: short input from asking for unbounded work.
MAX_DEGREE = 10_000


@dataclass(frozen=True)
class MonomialSupport:
    """The support of a degree-d equation sum coeff * x^(d-j-k) y^j z^k.

    `from_terms` leaves the terms sorted by (j, k), each (j, k) once and
    every coefficient nonzero; the readers below rely on that.
    """

    degree: int
    terms: tuple[tuple[int, int, Fraction], ...]

    @classmethod
    def from_terms(cls, degree: int, terms: Iterable[Sequence[Any]]) -> "MonomialSupport":
        """The support of the given terms, each [j, k, coefficient] as a
        list or a tuple.  The exponents must be exactly `int`: a float, a
        string or a boolean is rejected rather than rounded or coerced.  The
        coefficient is anything `to_rational` reads; a bad term is reported
        with its index.  The degree must lie in 1..MAX_DEGREE."""
        if degree < 1:
            raise SupportError("degree must be a positive integer")
        if degree > MAX_DEGREE:
            raise SupportError(f"degree must be at most {MAX_DEGREE}")
        cleaned: dict[tuple[int, int], Fraction] = {}
        for index, term in enumerate(terms):
            if not (isinstance(term, (list, tuple)) and len(term) == 3 and type(term[0]) is int and type(term[1]) is int):
                raise SupportError(
                    f"term {index}: expected [j, k, coefficient] with integer j and k, got {reprlib.repr(term)}"
                )
            j, k, coeff = term
            try:
                value = to_rational(coeff)
            except (TypeError, ValueError) as exc:
                raise SupportError(f"term {index}: {exc}") from None
            if j < 0 or k < 0:
                raise SupportError(f"exponents must be non-negative, got ({j}, {k})")
            if j + k > degree:
                raise SupportError(f"term ({j}, {k}) exceeds degree {degree}")
            if (j, k) in cleaned:
                raise SupportError(f"duplicate term ({j}, {k})")
            if value == 0:
                raise SupportError(f"term ({j}, {k}) has zero coefficient")
            cleaned[j, k] = value
        return cls(degree, tuple([(j, k, value) for (j, k), value in sorted(cleaned.items())]))


@dataclass(frozen=True)
class Polygon:
    """Lower-left boundary vertices: j strictly increasing, k strictly decreasing."""

    vertices: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SideData:
    """One side with its coefficient string and root-multiplicity profile.

    `gammas` holds the coefficient at each of the span+1 lattice points
    of the side (zero where the support has no term); `profile` pairs
    each multiplicity with the number of distinct roots carrying it.
    """

    j0: int
    k0: int
    j1: int
    k1: int
    span: int
    gammas: tuple[Fraction, ...]
    profile: tuple[tuple[int, int], ...]

    def s_values(self) -> tuple[int, ...]:
        out: list[int] = []
        for mult, count in self.profile:
            out.extend([mult] * count)
        return tuple(sorted(out, reverse=True))

    def as_newton_side(self) -> model.NewtonSide:
        return model.NewtonSide(self.j0, self.k0, self.j1, self.k1, self.s_values())


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(support: MonomialSupport) -> Polygon:
    """Boundary of the hull of the positive quadrants rooted at the support.

    Only the compact lower-left chain is returned; the vertical and
    horizontal rays it joins are implicit.
    """
    if not support.terms:
        raise SupportError("empty support has no polygon")
    # In (j, k) order the first term of each j has its lowest k, and a term
    # joins the staircase only below the last one kept.
    hull: list[tuple[int, int]] = []
    for j, k, _ in support.terms:
        if hull and k >= hull[-1][1]:
            continue
        p = (j, k)
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return Polygon(tuple(hull))


def qualifying_sides(polygon: Polygon) -> list[Side]:
    """The polygon sides of slope strictly between -1 and 0, left to right."""
    vertices = polygon.vertices
    return [((j0, k0), (j1, k1)) for (j0, k0), (j1, k1) in zip(vertices, vertices[1:]) if 0 < k0 - k1 < j1 - j0]


def side_data(support: MonomialSupport, side: Side) -> SideData:
    """Coefficients along a side and the multiplicity profile of its roots.

    Both endpoints must be distinct terms of the support, as they are for
    every side `qualifying_sides` returns; otherwise this raises SupportError.
    """
    (j0, k0), (j1, k1) = side
    lookup = {(j, k): coeff for j, k, coeff in support.terms}
    for end in (j0, k0), (j1, k1):
        if end not in lookup:
            raise SupportError(f"side endpoint {end} is not a term of the support")
    if (j0, k0) == (j1, k1):
        raise SupportError(f"side endpoints are the same term {(j0, k0)}")
    span = gcd(j1 - j0, k0 - k1)
    step_j = (j1 - j0) // span
    step_k = (k0 - k1) // span
    zero = Fraction(0)
    gammas = tuple(lookup.get((j0 + t * step_j, k0 - t * step_k), zero) for t in range(span + 1))
    # Dehomogenize the side polynomial at the second coordinate: the
    # coefficient of xi^u is gamma_{span - u}, and with both end
    # coefficients nonzero it has degree span: every root is finite.
    profile = sorted(((mult, len(factor) - 1) for mult, factor in yun_squarefree(gammas[::-1])), reverse=True)
    return SideData(j0, k0, j1, k1, span, gammas, tuple(profile))


def local_invariants(support: MonomialSupport) -> tuple[int, int | None]:
    """Multiplicity at (1:0:0) and the contact order with z = 0.

    The contact order is None when z divides the equation (the line is a
    component, so the contact is unbounded).
    """
    if not support.terms:
        raise SupportError("empty support")
    multiplicity = min(j + k for j, k, _ in support.terms)
    if multiplicity == 0:
        raise SupportError("point not on curve: the support contains (0, 0)")
    on_line = [j for j, k, _ in support.terms if k == 0]
    contact = min(on_line) if on_line else None
    return multiplicity, contact


# ---------------------------------------------------------------------------
# exact univariate polynomials over Z (constant term first, no trailing zeros)
# ---------------------------------------------------------------------------


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: Sequence[int]) -> ZPoly:
    """p divided by its content, with a positive leading coefficient."""
    if not p:
        return []
    content = gcd(*p)
    if p[-1] < 0:
        content = -content
    return [c // content for c in p]


def poly_derivative(p: Sequence[int]) -> ZPoly:
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[ZPoly, ZPoly]:
    """Division with remainder in Z[x]: a = quotient * b + remainder.

    Every quotient coefficient must be an integer, as it is whenever b is
    primitive and divides a over Q (Gauss's lemma); otherwise this raises
    ArithmeticError.
    """
    remainder = _trim(list(a))
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    lead = b[-1]
    quotient = [0] * max(0, len(remainder) - n)
    for shift in range(len(quotient) - 1, -1, -1):
        factor, rest = divmod(remainder[shift + n], lead)
        if rest:
            raise ArithmeticError("polynomial quotient is not integral")
        if factor:
            quotient[shift] = factor
            for i in range(n):
                remainder[shift + i] -= factor * b[i]
    return quotient, _trim(remainder[:n])


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> ZPoly:
    """A nonzero integer multiple of the remainder of a by b."""
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    while len(r) > n:
        top = r.pop()
        common = gcd(top, lead)
        scale, factor = lead // common, top // common
        shift = len(r) - n
        if scale != 1:
            r = [scale * c for c in r]
        for i in range(n):
            r[shift + i] -= factor * b[i]
        _trim(r)
    return r


def _prs_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """gcd of two primitive polynomials by the primitive polynomial
    remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each pseudo-remainder
    is divided by its content."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _evaluate(p: Sequence[int], xi: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * xi + c
    return value


def _balanced_digits(value: int, xi: int) -> ZPoly:
    """The polynomial whose value at xi is `value`, with every coefficient
    in (-xi/2, xi/2]."""
    digits: ZPoly = []
    while value:
        value, digit = divmod(value, xi)
        if 2 * digit > xi:
            digit -= xi
            value += 1
        digits.append(digit)
    return digits


def _exact_quotients(g: ZPoly, *polys: ZPoly) -> list[ZPoly] | None:
    """Each poly divided by g, or None unless g divides every one exactly."""
    quotients = []
    for p in polys:
        try:
            quotient, remainder = poly_divmod(p, g)
        except ArithmeticError:
            return None
        if remainder:
            return None
        quotients.append(quotient)
    return quotients


#: Evaluation points the heuristic gcd tries before the PRS decides.
_HEURISTIC_TRIES = 4


def _heuristic_candidates(a: ZPoly, b: ZPoly) -> Iterator[ZPoly]:
    """GCDHEU's gcd candidates for two nonzero primitive polynomials
    (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): the primitive
    part of the balanced base-xi digits of gcd(a(xi), b(xi)), for xi
    squared at every try.  Every xi is at least 2 min(|a|, |b|) + 2 in
    the max norm, so a candidate that divides both a and b is their gcd
    (Geddes, Czapor and Labahn, Algorithms for Computer Algebra, Thm 7.7)."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEURISTIC_TRIES):
        yield _primitive(_balanced_digits(gcd(_evaluate(a, xi), _evaluate(b, xi)), xi))
        xi *= xi


def _gcd_cofactors(a: Sequence[int], b: Sequence[int]) -> tuple[ZPoly, ZPoly, ZPoly]:
    """(g, a/g, b/g) for g the gcd `poly_gcd` returns, with both quotients
    exact.  The heuristic gcd proposes g and exact division accepts it,
    which gives the quotients too; when every candidate fails, the PRS
    finds g.  gcd(p, 0) is the primitive part of p, and gcd(0, 0) is 0
    with zero quotients."""
    a, b = _trim(list(a)), _trim(list(b))
    pa, pb = _primitive(a), _primitive(b)
    if not (pa and pb):
        g = pa or pb
        return (g, *_exact_quotients(g, a, b)) if g else ([], [], [])
    for g in _heuristic_candidates(pa, pb):
        quotients = _exact_quotients(g, a, b)
        if quotients:
            return g, *quotients
    g = _prs_gcd(pa, pb)
    return g, *_exact_quotients(g, a, b)


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> ZPoly:
    """Greatest common divisor in Z[x], primitive with a positive leading
    coefficient: the heuristic gcd, with the primitive polynomial
    remainder sequence behind it (see `_gcd_cofactors`)."""
    return _gcd_cofactors(a, b)[0]


def yun_squarefree(p: Sequence[RationalLike]) -> list[tuple[int, Poly]]:
    """Squarefree decomposition: pairs (multiplicity, monic factor).

    The product of factor**multiplicity over all pairs reproduces the
    input up to its leading coefficient; factors of degree zero are not
    reported.  Yun's algorithm runs on the primitive integer multiple of
    the input, where every division it makes is exact.
    """
    coeffs = _trim([to_rational(c) for c in p])
    if not coeffs:
        raise ValueError("zero polynomial has no squarefree decomposition")
    out: list[tuple[int, Poly]] = []
    scale = lcm(*(c.denominator for c in coeffs))
    f = _primitive([c.numerator * (scale // c.denominator) for c in coeffs])
    _, b, c = _gcd_cofactors(f, poly_derivative(f))
    d = _difference(c, poly_derivative(b))
    i = 1
    while len(b) > 1:
        factor, b, c = _gcd_cofactors(b, d)
        if len(factor) > 1:
            out.append((i, [Fraction(x, factor[-1]) for x in factor]))
        d = _difference(c, poly_derivative(b))
        i += 1
    return out


def _difference(a: Sequence[int], b: Sequence[int]) -> ZPoly:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])
