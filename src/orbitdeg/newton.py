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
over the integers with a primitive polynomial-remainder-sequence gcd,
which keeps coefficients from growing the way Euclid's algorithm over Q
makes them grow.

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
from typing import Any, Iterable, Sequence

from . import model
from .series import RationalLike, to_rational

Poly = list[Fraction]
ZPoly = list[int]

Side = tuple[tuple[int, int], tuple[int, int]]


class SupportError(ValueError):
    """The monomial support is unusable for the requested operation."""


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
        with its index."""
        if degree < 1:
            raise SupportError("degree must be a positive integer")
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
    """Coefficients along a side and the multiplicity profile of its roots."""
    (j0, k0), (j1, k1) = side
    span = gcd(j1 - j0, k0 - k1)
    step_j = (j1 - j0) // span
    step_k = (k0 - k1) // span
    lookup = {(j, k): coeff for j, k, coeff in support.terms}
    zero = Fraction(0)
    gammas = tuple(lookup.get((j0 + t * step_j, k0 - t * step_k), zero) for t in range(span + 1))
    # Dehomogenize the side polynomial at the second coordinate; the
    # coefficient of xi^u is gamma_{span - u}.
    coeffs: Poly = [gammas[span - u] for u in range(span + 1)]
    leading_zeros = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        leading_zeros += 1
    profile: list[tuple[int, int]] = []
    if leading_zeros:
        # Root at infinity; cannot occur for genuine polygon sides, whose
        # endpoint coefficients are nonzero, but kept for odd inputs.
        profile.append((leading_zeros, 1))
    if coeffs and len(coeffs) > 1:
        for mult, factor in yun_squarefree(coeffs):
            degree = len(factor) - 1
            if degree > 0:
                profile.append((mult, degree))
    profile.sort(reverse=True)
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


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> ZPoly:
    """Greatest common divisor in Z[x] by the primitive polynomial remainder
    sequence (Knuth, TAOCP vol. 2, 4.6.1): each pseudo-remainder is divided
    by its content.  The result is primitive with a positive leading
    coefficient."""
    a = _primitive(_trim(list(a)))
    b = _primitive(_trim(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


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
    df = poly_derivative(f)
    g = poly_gcd(f, df)
    b, _ = poly_divmod(f, g)
    c, _ = poly_divmod(df, g)
    d = _difference(c, poly_derivative(b))
    i = 1
    while len(b) > 1:
        factor = poly_gcd(b, d)
        if len(factor) > 1:
            out.append((i, [Fraction(x, factor[-1]) for x in factor]))
        b, _ = poly_divmod(b, factor)
        c, _ = poly_divmod(d, factor)
        d = _difference(c, poly_derivative(b))
        i += 1
    return out


def _difference(a: Sequence[int], b: Sequence[int]) -> ZPoly:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])
