"""Exact arithmetic for truncated power series.

Every quantity in this package lives in the quotient ring Q[H]/(H^9): a
series keeps the nine coefficients of H^0..H^8 as `fractions.Fraction`
values, and any product term of degree nine or higher is silently
discarded.  The adjusted predegree polynomial is one such series.  The
engine computes it in the predegree basis, sum of a_i * H^i / i! with
integer a_i over one denominator, and `from_predegree` /
`predegree_strings` turn that form into a series or into its strings.

There is no floating point anywhere; equality of series is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
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


def rational_to_string(value: RationalLike) -> str:
    """Render a rational as "num/den", or just "num" when the denominator is 1."""
    q = to_rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce_scalar(value: object) -> Fraction | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return None


class TruncSeries:
    """An element of Q[H]/(H^9), held as nine exact rational coefficients.

    Instances are immutable; all operators return new series.  Supports
    +, -, * (by series or rational scalar) and ** (non-negative integer
    exponent, computed by binary exponentiation).
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
        if isinstance(other, TruncSeries):
            return TruncSeries(a + b for a, b in zip(self.coeffs, other.coeffs))
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self + TruncSeries.constant(scalar)

    __radd__ = __add__

    def __sub__(self, other: object) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return TruncSeries(a - b for a, b in zip(self.coeffs, other.coeffs))
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self - TruncSeries.constant(scalar)

    def __rsub__(self, other: object) -> "TruncSeries":
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return TruncSeries.constant(scalar) - self

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(-a for a in self.coeffs)

    def __mul__(self, other: object) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            result = [Fraction(0)] * TRUNCATION_ORDER
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(TRUNCATION_ORDER - i):
                    b = other.coeffs[j]
                    if b:
                        result[i + j] += a * b
            return TruncSeries(result)
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return TruncSeries(a * scalar for a in self.coeffs)

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
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self == TruncSeries.constant(scalar)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        parts: list[str] = []
        for degree, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if degree == 0:
                body = rational_to_string(mag)
            else:
                power = "H" if degree == 1 else f"H^{degree}"
                if mag == 1:
                    body = power
                elif mag.denominator == 1:
                    body = f"{mag.numerator}*{power}"
                else:
                    body = f"({rational_to_string(mag)})*{power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncSeries({self!s})"


def exp_linear(scale: RationalLike) -> TruncSeries:
    """The truncated exponential of scale*H: sum of (scale*H)^i / i! for i < 9."""
    d = to_rational(scale)
    return TruncSeries(d**i / factorial(i) for i in range(TRUNCATION_ORDER))


def from_predegree(a: Sequence[int], den: int = 1) -> TruncSeries:
    """The series sum of a[i] * H^i / (i! * den), for integers a[i] and den > 0."""
    return TruncSeries([Fraction(v, f * den) for v, f in zip(a, FACTORIALS)])


def predegree_strings(a: Sequence[int], den: int = 1) -> list[str]:
    """`from_predegree(a, den).to_strings()`, written without building the series."""
    out = []
    for v, f in zip(a, FACTORIALS):
        q = f * den
        g = gcd(v, q)
        out.append(str(v // g) if g == q else f"{v // g}/{q // g}")
    return out
