"""Reference implementations that tests compare the shipped code against.

The squarefree decomposition here is Yun's algorithm with Euclid's gcd
over Q, on lists of Fractions (constant term first, no trailing zeros).
It is slow, because its coefficients grow along the remainder sequence,
but it is the plain textbook form.  `prs_gcd` is the gcd in Z[x] by the
primitive polynomial remainder sequence, the reference for the package's
heuristic gcd.

`TruncSeries` here is the ring Q[H]/(H^9) on nine Fractions, with +, -,
*, ** and calculus; the package ships only a read-only view of its
series (`orbitdeg.series.TruncSeries`), which this ring accepts as an
operand and compares equal to.

The correction oracles build terms by other routes than the shipped
integer formulas: the line term as an antiderivative of a series
product, the side vertex polynomials hand-expanded (`_side_l6/7/8`, where
the package integrates along the side), the ordinary multiple point
through elementary symmetric functions of the contacts and per branch
in closed form (`_branch_contact`, where the package adds one side term
per branch), and the union factors as printed.  Elementary symmetric
functions are sums over subsets (`elementary_symmetric`, where the package
runs a recurrence), and the jet of a (t^m, t^n) point is multiplied out
(`pair_jet`, where the package sums `corrections._jets`).

`ordinary_multiple_point` is the reference expansion of an ordinary
multiple point into the composite point it stands for, whose terms the
cone and side builders give where the package takes them from
`multiple_point_terms`.  The direct route, which expands each such point
through it, evaluates the top coefficient a_8 of a curve with an
8-dimensional orbit from hand-expanded closed forms, one per feature,
without the series assembly; `predegree_from_cusp_types` is the closed
form for line-free curves whose special points are all (t^m, t^n) points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import factorial, gcd, prod
from typing import Iterable, Mapping, Sequence

from orbitdeg import corrections, engine, model, series
from orbitdeg.series import TRUNCATION_ORDER, RationalLike, rational_to_string, to_rational

F = Fraction

Poly = list[Fraction]


def poly_trim(p: Sequence) -> Poly:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_derivative(p: Sequence[Fraction]) -> Poly:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_difference(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    return poly_trim([x - y for x, y in zip_longest(a, b, fillvalue=Fraction(0))])


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Poly, Poly]:
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    remainder = list(a)
    lead = b[-1]
    while len(remainder) >= len(b):
        shift = len(remainder) - len(b)
        factor = remainder[-1] / lead
        quotient[shift] = factor
        for i, c in enumerate(b):
            remainder[shift + i] -= factor * c
        remainder = poly_trim(remainder[:-1])
    return poly_trim(quotient), remainder


def poly_monic(p: Sequence[Fraction]) -> Poly:
    p = poly_trim(p)
    return [c / p[-1] for c in p] if p else []


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    """Monic greatest common divisor by Euclid's algorithm over Q."""
    a = poly_trim(a)
    b = poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def yun_squarefree(p: Sequence) -> list[tuple[int, Poly]]:
    """Pairs (multiplicity, monic factor), as `orbitdeg.newton.yun_squarefree`."""
    p = poly_trim(p)
    out: list[tuple[int, Poly]] = []
    if len(p) <= 1:
        return out
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    b = poly_divmod(p, g)[0]
    d = poly_difference(poly_divmod(dp, g)[0], poly_derivative(b))
    i = 1
    while len(b) > 1:
        factor = poly_gcd(b, d)
        if len(factor) > 1:
            out.append((i, factor))
        b = poly_divmod(b, factor)[0]
        d = poly_difference(poly_divmod(d, factor)[0], poly_derivative(b))
        i += 1
    return out


def int_primitive(p: Sequence[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    p = [int(c) for c in poly_trim(p)]
    if not p:
        return []
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // content for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b."""
    r = list(a)
    n = len(b) - 1
    while len(r) > n:
        top = r.pop()
        common = gcd(top, b[-1])
        scale, factor = b[-1] // common, top // common
        r = [scale * c for c in r]
        for i in range(n):
            r[len(r) - n + i] -= factor * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def prs_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd in Z[x], primitive with a positive leading coefficient, by the
    primitive polynomial remainder sequence (Knuth, TAOCP vol. 2, 4.6.1):
    each pseudo-remainder is divided by its content.  gcd(p, 0) is the
    primitive part of p, and gcd(0, 0) is []."""
    a, b = int_primitive(a), int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, int_primitive(_pseudo_remainder(a, b))
    return a


# ---------------------------------------------------------------------------
# the series ring Q[H]/(H^9)
# ---------------------------------------------------------------------------


def _coerce(value: object) -> "TruncSeries | None":
    """The ring element of a series, a shipped series view or a rational
    scalar; None for anything else."""
    if isinstance(value, TruncSeries):
        return value
    if isinstance(value, series.TruncSeries):
        return TruncSeries(value.coeffs)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return TruncSeries.constant(value)
    return None


class TruncSeries:
    """An element of Q[H]/(H^9), held as nine exact rational coefficients.

    Instances are immutable; all operators return new series.  Supports
    +, -, * (by series, by a shipped `orbitdeg.series.TruncSeries` view or
    by a rational scalar) and ** (non-negative integer exponent, computed
    by binary exponentiation), and compares equal to a view of the same
    series.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        values = [to_rational(c) for c in coeffs]
        if len(values) > TRUNCATION_ORDER:
            raise ValueError(f"series holds at most {TRUNCATION_ORDER} coefficients")
        values.extend([Fraction(0)] * (TRUNCATION_ORDER - len(values)))
        object.__setattr__(self, "coeffs", tuple(values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "TruncSeries":
        return cls()

    @classmethod
    def one(cls) -> "TruncSeries":
        return cls((1,))

    @classmethod
    def constant(cls, value: RationalLike) -> "TruncSeries":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "TruncSeries":
        """The single term coeff * H^degree."""
        if not 0 <= degree < TRUNCATION_ORDER:
            raise ValueError("monomial degree out of range")
        coeffs = [Fraction(0)] * TRUNCATION_ORDER
        coeffs[degree] = to_rational(coeff)
        return cls(coeffs)

    @classmethod
    def from_terms(cls, terms: Mapping[int, RationalLike]) -> "TruncSeries":
        """Build a series from a {degree: coefficient} mapping."""
        coeffs = [Fraction(0)] * TRUNCATION_ORDER
        for degree, coeff in terms.items():
            if not 0 <= degree < TRUNCATION_ORDER:
                raise ValueError(f"degree {degree} out of range")
            coeffs[degree] = to_rational(coeff)
        return cls(coeffs)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "TruncSeries":
        return cls(tuple(strings))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: object) -> "TruncSeries":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other: object) -> "TruncSeries":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __rsub__(self, other: object) -> "TruncSeries":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(-a for a in self.coeffs)

    def __mul__(self, other: object) -> "TruncSeries":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        result = [Fraction(0)] * TRUNCATION_ORDER
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(TRUNCATION_ORDER - i):
                b = other.coeffs[j]
                if b:
                    result[i + j] += a * b
        return TruncSeries(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer")
        result = TruncSeries.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and structure --------------------------------------

    def antiderivative(self) -> "TruncSeries":
        """The antiderivative in H with zero constant term.

        The degree-8 input coefficient would land in degree 9 and is
        discarded by the truncation.
        """
        coeffs = [Fraction(0)] * TRUNCATION_ORDER
        for i in range(TRUNCATION_ORDER - 1):
            coeffs[i + 1] = self.coeffs[i] / (i + 1)
        return TruncSeries(coeffs)

    def derivative(self) -> "TruncSeries":
        """The formal derivative in H (the top coefficient of the result is 0)."""
        coeffs = [(i + 1) * self.coeffs[i + 1] for i in range(TRUNCATION_ORDER - 1)]
        return TruncSeries(coeffs)

    def substitute_scaled(self, multiple: int) -> "TruncSeries":
        """Replace H by multiple*H: coefficient i is multiplied by multiple**i."""
        if not isinstance(multiple, int) or multiple < 1:
            raise ValueError("scaling multiple must be a positive integer")
        return TruncSeries(c * multiple**i for i, c in enumerate(self.coeffs))

    def order(self) -> int | None:
        """Least degree with a nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def app_coefficient(self, i: int) -> Fraction:
        """i! times the H^i coefficient.

        Converts the i-th coefficient of a series normalized as
        1 + a1*H + a2*H^2/2 + a3*H^3/3! + ... back to a_i.
        """
        if not 0 <= i < TRUNCATION_ORDER:
            raise ValueError("coefficient index out of range")
        return factorial(i) * self.coeffs[i]

    def app_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self.app_coefficient(i) for i in range(TRUNCATION_ORDER))

    # -- presentation -------------------------------------------------

    def to_strings(self) -> list[str]:
        """Serialize as nine "num/den" strings, constant term first."""
        return [rational_to_string(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncSeries({self.to_strings()})"


def ring(view: series.TruncSeries) -> TruncSeries:
    """The ring element of a shipped series view (a term or a report's app)."""
    return TruncSeries(view.coeffs)


def factor(corr: corrections.Correction) -> TruncSeries:
    """The paper's multiplicative factor of a point feature: 1 + its term."""
    return TruncSeries.one() + corr.term


def exp_linear(scale: RationalLike) -> TruncSeries:
    """The truncated exponential of scale*H: sum of (scale*H)^i / i! for i < 9."""
    d = to_rational(scale)
    return TruncSeries(d**i / factorial(i) for i in range(TRUNCATION_ORDER))


# ---------------------------------------------------------------------------
# correction terms
# ---------------------------------------------------------------------------


def _side_l6(j0: int, k0: int, j1: int, k1: int) -> int:
    return (
        6 * j0**2 * k0**2
        + 3 * j0 * j1 * k0**2
        + j1**2 * k0**2
        + 3 * j0**2 * k0 * k1
        + 4 * j0 * j1 * k0 * k1
        + 3 * j1**2 * k0 * k1
        + j0**2 * k1**2
        + 3 * j0 * j1 * k1**2
        + 6 * j1**2 * k1**2
    )


def _side_l7(j0: int, k0: int, j1: int, k1: int) -> int:
    return (
        30 * j0**3 * k0**2
        + 18 * j0**2 * j1 * k0**2
        + 9 * j0 * j1**2 * k0**2
        + 3 * j1**3 * k0**2
        + 30 * j0**2 * k0**3
        + 12 * j0 * j1 * k0**3
        + 3 * j1**2 * k0**3
        + 12 * j0**3 * k0 * k1
        + 18 * j0**2 * j1 * k0 * k1
        + 18 * j0 * j1**2 * k0 * k1
        + 12 * j1**3 * k0 * k1
        + 18 * j0**2 * k0**2 * k1
        + 18 * j0 * j1 * k0**2 * k1
        + 9 * j1**2 * k0**2 * k1
        + 3 * j0**3 * k1**2
        + 9 * j0**2 * j1 * k1**2
        + 18 * j0 * j1**2 * k1**2
        + 30 * j1**3 * k1**2
        + 9 * j0**2 * k0 * k1**2
        + 18 * j0 * j1 * k0 * k1**2
        + 18 * j1**2 * k0 * k1**2
        + 3 * j0**2 * k1**3
        + 12 * j0 * j1 * k1**3
        + 30 * j1**2 * k1**3
    )


def _side_l8(j0: int, k0: int, j1: int, k1: int) -> int:
    return (
        90 * j0**4 * k0**2
        + 60 * j0**3 * j1 * k0**2
        + 36 * j0**2 * j1**2 * k0**2
        + 18 * j0 * j1**3 * k0**2
        + 6 * j1**4 * k0**2
        + 180 * j0**3 * k0**3
        + 90 * j0**2 * j1 * k0**3
        + 36 * j0 * j1**2 * k0**3
        + 9 * j1**3 * k0**3
        + 90 * j0**2 * k0**4
        + 30 * j0 * j1 * k0**4
        + 6 * j1**2 * k0**4
        + 30 * j0**4 * k0 * k1
        + 48 * j0**3 * j1 * k0 * k1
        + 54 * j0**2 * j1**2 * k0 * k1
        + 48 * j0 * j1**3 * k0 * k1
        + 30 * j1**4 * k0 * k1
        + 90 * j0**3 * k0**2 * k1
        + 108 * j0**2 * j1 * k0**2 * k1
        + 81 * j0 * j1**2 * k0**2 * k1
        + 36 * j1**3 * k0**2 * k1
        + 60 * j0**2 * k0**3 * k1
        + 48 * j0 * j1 * k0**3 * k1
        + 18 * j1**2 * k0**3 * k1
        + 6 * j0**4 * k1**2
        + 18 * j0**3 * j1 * k1**2
        + 36 * j0**2 * j1**2 * k1**2
        + 60 * j0 * j1**3 * k1**2
        + 90 * j1**4 * k1**2
        + 36 * j0**3 * k0 * k1**2
        + 81 * j0**2 * j1 * k0 * k1**2
        + 108 * j0 * j1**2 * k0 * k1**2
        + 90 * j1**3 * k0 * k1**2
        + 36 * j0**2 * k0**2 * k1**2
        + 54 * j0 * j1 * k0**2 * k1**2
        + 36 * j1**2 * k0**2 * k1**2
        + 9 * j0**3 * k1**3
        + 36 * j0**2 * j1 * k1**3
        + 90 * j0 * j1**2 * k1**3
        + 180 * j1**3 * k1**3
        + 18 * j0**2 * k0 * k1**3
        + 48 * j0 * j1 * k0 * k1**3
        + 60 * j1**2 * k0 * k1**3
        + 6 * j0**2 * k1**4
        + 30 * j0 * j1 * k1**4
        + 90 * j1**2 * k1**4
    )


def _branch_contact(m: int, r: int) -> tuple[int, int, int]:
    """(a6, a7, a8) of the per-tangent-line term of an ordinary multiple
    point of multiplicity m whose nonlinear branch meets its tangent with
    total multiplicity r."""
    h6 = -r * (2 - 3 * r + r * r - 12 * m + 3 * r * m + 6 * m * m)
    h7 = 3 * r * (
        -12 + 2 * r - 2 * r**2 + r**3 + 10 * m - 8 * r * m + 3 * r**2 * m - 20 * m**2 + 6 * r * m**2 + 10 * m**3
    )
    h8 = -3 * r * (
        -64
        + 2 * r**2
        - 3 * r**3
        + 2 * r**4
        + 10 * r * m
        - 12 * r**2 * m
        + 6 * r**3 * m
        + 30 * m**2
        - 30 * r * m**2
        + 12 * r**2 * m**2
        - 60 * m**3
        + 20 * r * m**3
        + 30 * m**4
    )
    return h6, h7, h8


def elementary_symmetric(values: Sequence[int], k: int) -> int:
    """e_k of the values, as the sum of the products of their k-subsets."""
    return sum(prod(subset) for subset in combinations(values, k))


def line_term(mult: int, meets: Sequence[int], degree: int) -> TruncSeries:
    """The line correction as the antiderivative (zero constant term) of
    -(m^3/2) * exp(-d*H) * H^2 * prod(1 + r*H + r^2*H^2/2)."""
    product = exp_linear(-degree) * TruncSeries.monomial(2)
    for r in meets:
        product = product * TruncSeries.from_terms({0: 1, 1: r, 2: F(r * r, 2)})
    return (product * F(-(mult**3), 2)).antiderivative()


def ordinary_multiple_point_factor_sym(m: int, contacts: Sequence[int]) -> TruncSeries:
    """1 + `corrections.multiple_point_correction` through the
    elementary-symmetric form of the contacts, an independent transcription."""
    e1, e2, e3, e4, e5 = (elementary_symmetric(contacts, k) for k in range(1, 6))
    h6 = (
        -2 * e1
        + 3 * e1**2
        - e1**3
        - 6 * e2
        + 3 * e1 * e2
        - 3 * e3
        + 12 * e1 * m
        - 3 * e1**2 * m
        + 6 * e2 * m
        + 6 * m**2
        - 6 * e1 * m**2
        - 15 * m**3
        + 10 * m**4
        - m**6
    )
    h7 = (
        -36 * e1
        + 6 * e1**2
        - 6 * e1**3
        + 3 * e1**4
        - 12 * e2
        + 18 * e1 * e2
        - 12 * e1**2 * e2
        + 6 * e2**2
        - 18 * e3
        + 12 * e1 * e3
        - 12 * e4
        + 30 * e1 * m
        - 24 * e1**2 * m
        + 9 * e1**3 * m
        + 48 * e2 * m
        - 27 * e1 * e2 * m
        + 27 * e3 * m
        - 60 * e1 * m**2
        + 18 * e1**2 * m**2
        - 36 * e2 * m**2
        - 36 * m**3
        + 30 * e1 * m**3
        + 90 * m**4
        - 60 * m**5
        + 6 * m**7
    )
    h8 = (
        192 * e1
        - 6 * e1**3
        + 9 * e1**4
        - 6 * e1**5
        + 18 * e1 * e2
        - 36 * e1**2 * e2
        + 30 * e1**3 * e2
        + 18 * e2**2
        - 30 * e1 * e2**2
        - 18 * e3
        + 36 * e1 * e3
        - 30 * e1**2 * e3
        + 30 * e2 * e3
        - 36 * e4
        + 30 * e1 * e4
        - 30 * e5
        - 30 * e1**2 * m
        + 36 * e1**3 * m
        - 18 * e1**4 * m
        + 60 * e2 * m
        - 108 * e1 * e2 * m
        + 72 * e1**2 * e2 * m
        - 36 * e2**2 * m
        + 108 * e3 * m
        - 72 * e1 * e3 * m
        + 72 * e4 * m
        - 90 * e1 * m**2
        + 90 * e1**2 * m**2
        - 36 * e1**3 * m**2
        - 180 * e2 * m**2
        + 108 * e1 * e2 * m**2
        - 108 * e3 * m**2
        + 180 * e1 * m**3
        - 60 * e1**2 * m**3
        + 120 * e2 * m**3
        + 126 * m**4
        - 90 * e1 * m**4
        - 315 * m**5
        + 210 * m**6
        - 21 * m**8
    )
    return TruncSeries.from_terms({0: 1, 6: F(h6, 720), 7: F(h7, 5040), 8: F(h8, 40320)})


#: 1 + term per transversal intersection of two nonlinear components, of a
#: nonlinear component and a line, and per simple tangency of a line.
PAIR_CROSSING_FACTOR = TruncSeries.from_terms({0: 1, 6: F(-1, 9), 7: F(11, 40), 8: F(-311, 960)})
LINE_CROSSING_FACTOR = TruncSeries.from_terms({0: 1, 6: F(-1, 24), 7: F(7, 60), 8: F(-13, 80)})
SIMPLE_TANGENCY_FACTOR = TruncSeries.from_terms({0: 1, 6: F(-1, 6), 7: F(7, 15), 8: F(-13, 20)})


# ---------------------------------------------------------------------------
# direct route to the top coefficient
# ---------------------------------------------------------------------------


def _direct_line(d: int, m: int, meets: Sequence[int]) -> Fraction:
    r3 = sum(r**3 for r in meets)
    r4 = sum(r**4 for r in meets)
    r5 = sum(r**5 for r in meets)
    return F(
        m**3
        * (
            d**3 * (10 * d**2 - 15 * d * m + 6 * m**2)
            + 10 * (28 * d**2 - 48 * d * m + 21 * m**2) * ((d - m) ** 3 - r3)
            - 45 * (8 * d - 7 * m) * ((d - m) ** 4 - r4)
            + 126 * ((d - m) ** 5 - r5)
        )
    )


def _direct_nonlinear(d: int, e: int, m: int) -> Fraction:
    return F(16 * d * e * m**5 * (7 * d**2 - 18 * d * m + 12 * m**2))


def _direct_tangent_cone(d: int, line_mults: Sequence[int]) -> Fraction:
    es = [elementary_symmetric(line_mults, k) for k in range(6)]
    e1 = es[1]
    return F(30 * e1 * (es[2] * es[3] - e1 * es[4] - es[5]) * (28 * d**2 - 48 * d * e1 + 21 * e1**2))


def _direct_side_vertex_polynomial(j0: int, k0: int, j1: int, k1: int, d: int) -> int:
    return (
        90 * j0**4 * k0**2
        + 180 * j0**3 * k0**3
        + 90 * j0**2 * k0**4
        + 60 * j0**3 * k0**2 * j1
        + 90 * j0**2 * k0**3 * j1
        + 30 * j0 * k0**4 * j1
        + 36 * j0**2 * k0**2 * j1**2
        + 36 * j0 * k0**3 * j1**2
        + 6 * k0**4 * j1**2
        + 18 * j0 * k0**2 * j1**3
        + 9 * k0**3 * j1**3
        + 6 * k0**2 * j1**4
        - 240 * j0**3 * k0**2 * d
        - 240 * j0**2 * k0**3 * d
        - 144 * j0**2 * k0**2 * j1 * d
        - 96 * j0 * k0**3 * j1 * d
        - 72 * j0 * k0**2 * j1**2 * d
        - 24 * k0**3 * j1**2 * d
        - 24 * k0**2 * j1**3 * d
        + 168 * j0**2 * k0**2 * d**2
        + 84 * j0 * k0**2 * j1 * d**2
        + 28 * k0**2 * j1**2 * d**2
        + 30 * j0**4 * k0 * k1
        + 90 * j0**3 * k0**2 * k1
        + 60 * j0**2 * k0**3 * k1
        + 48 * j0**3 * k0 * j1 * k1
        + 108 * j0**2 * k0**2 * j1 * k1
        + 48 * j0 * k0**3 * j1 * k1
        + 54 * j0**2 * k0 * j1**2 * k1
        + 81 * j0 * k0**2 * j1**2 * k1
        + 18 * k0**3 * j1**2 * k1
        + 48 * j0 * k0 * j1**3 * k1
        + 36 * k0**2 * j1**3 * k1
        + 30 * k0 * j1**4 * k1
        - 96 * j0**3 * k0 * d * k1
        - 144 * j0**2 * k0**2 * d * k1
        - 144 * j0**2 * k0 * j1 * d * k1
        - 144 * j0 * k0**2 * j1 * d * k1
        - 144 * j0 * k0 * j1**2 * d * k1
        - 72 * k0**2 * j1**2 * d * k1
        - 96 * k0 * j1**3 * d * k1
        + 84 * j0**2 * k0 * d**2 * k1
        + 112 * j0 * k0 * j1 * d**2 * k1
        + 84 * k0 * j1**2 * d**2 * k1
        + 6 * j0**4 * k1**2
        + 36 * j0**3 * k0 * k1**2
        + 36 * j0**2 * k0**2 * k1**2
        + 18 * j0**3 * j1 * k1**2
        + 81 * j0**2 * k0 * j1 * k1**2
        + 54 * j0 * k0**2 * j1 * k1**2
        + 36 * j0**2 * j1**2 * k1**2
        + 108 * j0 * k0 * j1**2 * k1**2
        + 36 * k0**2 * j1**2 * k1**2
        + 60 * j0 * j1**3 * k1**2
        + 90 * k0 * j1**3 * k1**2
        + 90 * j1**4 * k1**2
        - 24 * j0**3 * d * k1**2
        - 72 * j0**2 * k0 * d * k1**2
        - 72 * j0**2 * j1 * d * k1**2
        - 144 * j0 * k0 * j1 * d * k1**2
        - 144 * j0 * j1**2 * d * k1**2
        - 144 * k0 * j1**2 * d * k1**2
        - 240 * j1**3 * d * k1**2
        + 28 * j0**2 * d**2 * k1**2
        + 84 * j0 * j1 * d**2 * k1**2
        + 168 * j1**2 * d**2 * k1**2
        + 9 * j0**3 * k1**3
        + 18 * j0**2 * k0 * k1**3
        + 36 * j0**2 * j1 * k1**3
        + 48 * j0 * k0 * j1 * k1**3
        + 90 * j0 * j1**2 * k1**3
        + 60 * k0 * j1**2 * k1**3
        + 180 * j1**3 * k1**3
        - 24 * j0**2 * d * k1**3
        - 96 * j0 * j1 * d * k1**3
        - 240 * j1**2 * d * k1**3
        + 6 * j0**2 * k1**4
        + 30 * j0 * j1 * k1**4
        + 90 * j1**2 * k1**4
    )


def _direct_side(d: int, j0: int, k0: int, j1: int, k1: int, s: Sequence[int]) -> Fraction:
    area2 = j1 * k0 - j0 * k1
    span = gcd(j1 - j0, k0 - k1)
    p5 = sum(v**5 for v in s)
    p6 = sum(v**6 for v in s)
    p7 = sum(v**7 for v in s)
    vertex_part = area2 * _direct_side_vertex_polynomial(j0, k0, j1, k1, d)
    root_part = F(16 * area2, span) * (7 * d**2 * p5 - 18 * d * p6 + 12 * p7)
    return vertex_part - root_part


def _direct_truncation(d: int, trunc: model.Truncation) -> Fraction:
    total = sum(trunc.s)
    p5 = sum(v**5 for v in trunc.s)
    p6 = sum(v**6 for v in trunc.s)
    p7 = sum(v**7 for v in trunc.s)
    return (
        trunc.ell
        * trunc.weight
        * (192 * (total**7 - p7) - 288 * d * (total**6 - p6) + 112 * d**2 * (total**5 - p5))
    )


def irreducible_truncations(sing: model.IrreducibleSingularity) -> list[model.Truncation]:
    """The truncation features through which an irreducible singularity
    contributes, one per essential exponent past the initial grouping."""
    es = sing.essential
    chain = [sing.m]
    for e in es:
        chain.append(gcd(chain[-1], e))
    out: list[model.Truncation] = []
    if es and sing.n % sing.m == 0:
        out.append(model.Truncation(ell=1, weight=F(es[0]), s=(chain[1],) * (sing.m // chain[1])))
    for j in range(2, len(es) + 1):
        weight = F(
            sum((chain[t - 1] - chain[t]) * es[t - 1] for t in range(1, j)) + chain[j - 1] * es[j - 1],
            sing.m,
        )
        out.append(
            model.Truncation(
                ell=sing.m // chain[j - 1],
                weight=weight,
                s=(chain[j],) * (chain[j - 1] // chain[j]),
            )
        )
    return out


def irreducible_composite(sing: model.IrreducibleSingularity) -> model.CompositePoint:
    """The composite point a valid irreducible singularity (m, n) stands
    for: a tangent cone of one line of multiplicity m, the side
    (0, m) -> (n, 0) with root multiplicity gcd(m, n), its
    `irreducible_truncations`, and the flexes it absorbs."""
    m, n = sing.m, sing.n
    sides = (model.NewtonSide(0, m, n, 0, (gcd(m, n),)),)
    truncations = tuple(irreducible_truncations(sing))
    return model.CompositePoint((m,), sides, truncations, model.absorbed_flexes(sing), sing.label)


def branch_sides(m: int, contacts: Sequence[int]) -> tuple[model.NewtonSide, ...]:
    """Per nonlinear branch of contact r at an ordinary m-fold point, one
    polygon side (m-1, 1) -> (r, 0) with a simple root."""
    return tuple(model.NewtonSide(m - 1, 1, r, 0, (1,)) for r in contacts)


def ordinary_multiple_point(
    m: int, contacts: Sequence[int], absorbed_flexes: int | None = None, label: str | None = None
) -> model.CompositePoint:
    """The composite point a valid ordinary multiple point of multiplicity m
    stands for, the reference expansion of `model.OrdinaryMultiplePoint`:
    m reduced tangent-cone lines, per nonlinear branch of contact r the
    side (m-1, 1) -> (r, 0) with a simple root, and the absorbed-flex count,
    by default 3m(m-1) + sum(r) - m(m+1) when every branch is nonlinear and
    0 otherwise."""
    if absorbed_flexes is None:
        absorbed_flexes = 3 * m * (m - 1) + sum(contacts) - m * (m + 1) if len(contacts) == m else 0
    return model.CompositePoint((1,) * m, branch_sides(m, contacts), (), absorbed_flexes, label)


def expanded(descriptor: model.CurveDescriptor) -> model.CurveDescriptor:
    """`descriptor` with each `OrdinaryMultiplePoint` replaced by its
    `ordinary_multiple_point` expansion."""
    points = tuple(
        ordinary_multiple_point(p.m, p.contacts, p.absorbed_flexes, p.label)
        if isinstance(p, model.OrdinaryMultiplePoint)
        else p
        for p in descriptor.points
    )
    d = descriptor
    return model.CurveDescriptor(d.degree, d.stabilizer_degree, d.flexes, d.linear, d.nonlinear, points)


def _direct_top_coefficient(descriptor: model.CurveDescriptor) -> Fraction:
    """d^8 minus the direct per-feature top-coefficient contributions.

    Evaluated from closed-form integer expressions, independently of the
    series assembly; equals 8! times the H^8 coefficient of the
    adjusted predegree polynomial for every valid descriptor.
    """
    descriptor = expanded(descriptor)
    d = descriptor.degree
    total = F(d**8)
    for line in descriptor.linear:
        total -= _direct_line(d, line.mult, line.meets)
    for comp in descriptor.nonlinear:
        total -= _direct_nonlinear(d, comp.deg, comp.mult)
    for feature in descriptor.points:
        if isinstance(feature, model.FlexPoint):
            total -= _direct_side(d, 0, 1, feature.contact, 0, (1,))
        elif isinstance(feature, model.IrreducibleSingularity):
            total -= _direct_side(d, 0, feature.m, feature.n, 0, (gcd(feature.m, feature.n),))
            for trunc in irreducible_truncations(feature):
                total -= _direct_truncation(d, trunc)
        else:
            if feature.tangent_cone is not None:
                total -= _direct_tangent_cone(d, feature.tangent_cone)
            for side in feature.sides:
                if not side.suppress:
                    total -= _direct_side(d, side.j0, side.k0, side.j1, side.k1, side.s)
            for trunc in feature.truncations:
                total -= _direct_truncation(d, trunc)
    count = model.resolved_flex_count(descriptor)
    if count:
        total -= count * _direct_side(d, 0, 1, 3, 0, (1,))
    return total


def predegree_direct(descriptor: model.CurveDescriptor) -> int:
    """The predegree by direct summation of top-coefficient contributions.

    Only applicable when the orbit has dimension 8 (checked by running
    the assembly); serves as an end-to-end cross-check of `assemble`.
    """
    violations = model.validate(descriptor)
    if violations:
        raise engine.ValidationError(violations)
    report = engine.assemble(descriptor)
    if report.orbit_dimension < 8:
        raise engine.EngineError(
            f"direct formula inapplicable: orbit dimension is {report.orbit_dimension}, not 8"
        )
    value = _direct_top_coefficient(descriptor)
    if value.denominator != 1:
        raise engine.EngineError(f"direct route produced a non-integer value {value}")
    return int(value)


# ---------------------------------------------------------------------------
# closed form for curves whose special points are parametrized (t^m, t^n)
# ---------------------------------------------------------------------------


def pair_jet(a: int, b: int) -> tuple[int, int, int]:
    """The k^0, k^1, k^2 Taylor coefficients of
    a^2*b^2/((1+a*k)^3 (1+b*k)^3) - 4/((1+k)^3 (1+2k)^3), multiplied out."""
    p = a * a * b * b
    return (p - 4, -3 * p * (a + b) + 36, 3 * p * (2 * a * a + 3 * a * b + 2 * b * b) - 192)


def predegree_from_cusp_types(degree: int, points: Sequence[tuple[int, int]]) -> int:
    """Predegree of a reduced line-free curve whose special points are all
    parametrized as (t^m, t^n) with coprime exponents (ordinary flexes
    being the (1, k) cases), assuming the orbit has dimension 8.

    Each point enters through m*n times the k^0..k^2 Taylor coefficients
    of m^2 n^2/((1+mk)^3 (1+nk)^3) - 4/((1+k)^3 (1+2k)^3); ordinary
    flexes not listed explicitly are budgeted automatically as (1, 3)
    points, 3d(d-2) minus the absorbed count.
    """
    d = degree
    for m, n in points:
        if m < 1 or n <= m or gcd(m, n) != 1:
            raise engine.EngineError(f"({m}, {n}) is not a coprime multiplicity/contact pair")
    remaining = 3 * d * (d - 2) - sum(3 * m * n - 2 * m - 2 * n for m, n in points)
    if remaining < 0:
        raise engine.EngineError("absorbed flexes exceed the 3d(d-2) budget")
    weighted = [(4 * d * d, (1, -9, 48)), (3 * remaining, pair_jet(1, 3))]
    weighted += [(m * n, pair_jet(m, n)) for m, n in points]
    q0, q1, q2 = (sum(w * jet[i] for w, jet in weighted) for i in range(3))
    return d**8 - (q2 + 8 * d * q1 + 28 * d * d * q0)
