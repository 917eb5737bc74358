"""Reference implementations that tests compare the shipped code against.

The squarefree decomposition here is Yun's algorithm with Euclid's gcd
over Q, on lists of Fractions (constant term first, no trailing zeros).
It is slow, because its coefficients grow along the remainder sequence,
but it is the plain textbook form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

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
