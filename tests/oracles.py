"""Reference implementations that tests compare the shipped code against.

The squarefree decomposition here is Yun's algorithm with Euclid's gcd
over Q, on lists of Fractions (constant term first, no trailing zeros).
It is slow, because its coefficients grow along the remainder sequence,
but it is the plain textbook form.

The correction oracles build terms as `TruncSeries` of Fractions by other
routes than the shipped integer formulas: the line term as an
antiderivative of a series product, the ordinary-multiple-point factor
through elementary symmetric functions of the contacts, and the union
factors as printed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from orbitdeg.corrections import _elementary_symmetric
from orbitdeg.series import TruncSeries, exp_linear

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


# ---------------------------------------------------------------------------
# correction terms
# ---------------------------------------------------------------------------


def line_term(mult: int, meets: Sequence[int], degree: int) -> TruncSeries:
    """The line correction as the antiderivative (zero constant term) of
    -(m^3/2) * exp(-d*H) * H^2 * prod(1 + r*H + r^2*H^2/2)."""
    product = exp_linear(-degree) * TruncSeries.monomial(2)
    for r in meets:
        product = product * TruncSeries.from_terms({0: 1, 1: r, 2: F(r * r, 2)})
    return (product * F(-(mult**3), 2)).antiderivative()


def ordinary_multiple_point_factor_sym(m: int, contacts: Sequence[int]) -> TruncSeries:
    """`corrections.ordinary_multiple_point_factor` through the
    elementary-symmetric form, an independent transcription."""
    e = _elementary_symmetric(contacts, 5)
    e1, e2, e3, e4, e5 = e[1], e[2], e[3], e[4], e[5]
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
