"""Exact rationals and the predegree basis of truncated power series.

Every series in this package lives in Q[H]/(H^9) and is held in the
predegree basis: nine integers a_0..a_8 over one positive denominator,
standing for the sum of a_i * H^i / (i! * den).  The adjusted predegree
polynomial and every correction term are such pairs (a, den).
`TruncSeries` is a read-only view of one pair, for comparing and
printing; `predegree_strings` writes its coefficients without it, and
`ratio_string` writes the rationals the package prints.

There is no floating point anywhere; equality of series is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Sequence, Union

from .record import Record

RationalLike = Union[Fraction, int, str]

#: Number of retained coefficients: H^0 through H^8.
TRUNCATION_ORDER = 9

#: i! for i < 9, the denominators of the predegree basis H^i / i!.
FACTORIALS = tuple(factorial(i) for i in range(TRUNCATION_ORDER))


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact Fraction.

    Strings use the same format `rational_to_string` emits: either a
    plain integer ("-3") or a slash-separated pair ("22/7").
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def ratio_string(num: int, den: int) -> str:
    """num/den in lowest terms, for integers num and den > 0: "num/den",
    or just "num" when den divides num."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def rational_to_string(value: RationalLike) -> str:
    """Render a rational as "num/den", or just "num" when the denominator is 1."""
    q = to_rational(value)
    return ratio_string(q.numerator, q.denominator)


def predegree_strings(a: Sequence[int], den: int = 1) -> list[str]:
    """The coefficients of H^0..H^8 of the sum of a[i] * H^i / (i! * den),
    as "num/den" strings (integers over a positive denominator den).  A
    zero, six of the nine in every local term, stays "0"; the others are
    `ratio_string(a[i], i! * den)`, written out."""
    out = ["0"] * TRUNCATION_ORDER
    for i, v in enumerate(a):
        if v:
            f = FACTORIALS[i] * den
            g = gcd(v, f)
            out[i] = str(v // g) if g == f else f"{v // g}/{f // g}"
    return out


class TruncSeries(Record):
    """The series sum of a[i] * H^i / (i! * den) in Q[H]/(H^9), read only.

    A view of the integers a correction or a report was built from: it
    compares equal to any view of the same series, whatever its
    denominator, and prints as a polynomial in H.  It does no arithmetic.
    """

    __slots__ = ("a", "den")

    a: tuple[int, ...]
    den: int

    def __init__(self, a: Sequence[int], den: int = 1):
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of H^0..H^8 as exact Fractions."""
        return tuple([Fraction(v, f * self.den) for v, f in zip(self.a, FACTORIALS)])

    def to_strings(self) -> list[str]:
        """Serialize as nine "num/den" strings, constant term first."""
        return predegree_strings(self.a, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return all(x * other.den == y * self.den for x, y in zip(self.a, other.a))

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        parts: list[str] = []
        for degree, (v, f) in enumerate(zip(self.a, FACTORIALS)):
            if v == 0:
                continue
            sign = "-" if v < 0 else "+"
            body = ratio_string(abs(v), f * self.den)
            if degree:
                power = "H" if degree == 1 else f"H^{degree}"
                if body == "1":
                    body = power
                elif "/" in body:
                    body = f"({body})*{power}"
                else:
                    body = f"{body}*{power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncSeries({self!s})"
