"""Closed-form correction terms of the adjusted predegree polynomial.

Each global feature of a curve (a line component, a nonlinear component)
contributes a correction series of order >= 3; each local feature
(tangent cone, polygon side, truncation, irreducible singularity,
inflection) contributes one of order >= 6.  Any product of two such
terms has order >= 9 and vanishes in Q[H]/(H^9), so the polynomial is
exp(d*H) * (1 + sum of all terms): the paper's factor of a point is
1 + its term, and several features, or copies of one, add their terms.

Every term is built in the predegree basis: integers a_0..a_8 over one
positive denominator, standing for the sum of a_i * H^i / (i! * den).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm
from operator import mul
from typing import Sequence

from . import model
from .series import TruncSeries, to_rational

KIND_LINE = "I"
KIND_NONLINEAR = "II"
KIND_TANGENT_CONE = "III"
KIND_SIDE = "IV"
KIND_TRUNCATION = "V"
KIND_IRREDUCIBLE = "irreducible"
KIND_FLEX = "flex"
KIND_LOCAL = "local"


class FeatureError(ValueError):
    """A correction was requested for data violating its preconditions."""


def _check(problems: list[model.Violation]) -> None:
    """Raise FeatureError with the first of the model's violations, if any."""
    if problems:
        raise FeatureError(str(problems[0]))


@dataclass(frozen=True, slots=True)
class Correction:
    """An additive correction term tagged with the feature kind it came from.

    `a` holds the nine integers a_0..a_8 and `den` a positive integer:
    the term is the sum of a[i] * H^i / (i! * den).
    """

    kind: str
    a: tuple[int, ...]
    den: int = 1

    @property
    def term(self) -> TruncSeries:
        """The term as a read-only series view."""
        return TruncSeries(self.a, self.den)


def _local(kind: str, a6: int, a7: int, a8: int, den: int = 1) -> Correction:
    """A term a6*H^6/6! + a7*H^7/7! + a8*H^8/8!, over `den`."""
    return Correction(kind, (0, 0, 0, 0, 0, 0, a6, a7, a8), den)


def _power_sum(values: Sequence[int], power: int) -> int:
    return sum(v**power for v in values)


def _elementary_symmetric(values: Sequence[int], upto: int) -> list[int]:
    """e_0..e_upto of the given values (e_i = 0 beyond the list length)."""
    es = [0] * (upto + 1)
    es[0] = 1
    for v in values:
        for i in range(min(upto, len(values)), 0, -1):
            es[i] += v * es[i - 1]
    return es


# ---------------------------------------------------------------------------
# global components
# ---------------------------------------------------------------------------


def line_correction(mult: int, meets: Sequence[int], degree: int) -> Correction:
    """Correction for a line of multiplicity `mult` meeting the rest of the
    curve with multiplicities `meets`, on a curve of the given degree.

    The antiderivative (zero constant term) of
    -(m^3/2) * exp(-d*H) * H^2 * prod(1 + r*H + r^2*H^2/2), written out:
    with r_k the power sums of the intersection multiplicities, a_3..a_8 are
    -m^3, 3m^4, -6m^5, 10m^3(m^3 + r_3), -15m^3(m^4 + 4m*r_3 + 3r_4) and
    21m^3(m^5 + 10m^2*r_3 + 15m*r_4 + 6r_5).  The curve degree drops out.
    """
    _check(model.line_violations(mult, meets, degree))
    m = mult
    m3 = m**3
    r3 = _power_sum(meets, 3)
    r4 = _power_sum(meets, 4)
    r5 = _power_sum(meets, 5)
    a = (
        0,
        0,
        0,
        -m3,
        3 * m3 * m,
        -6 * m3 * m * m,
        10 * m3 * (m3 + r3),
        -15 * m3 * (m3 * m + 4 * m * r3 + 3 * r4),
        21 * m3 * (m3 * m * m + 10 * m * m * r3 + 15 * m * r4 + 6 * r5),
    )
    return Correction(KIND_LINE, a)


def nonlinear_correction(degree: int, component_degree: int, mult: int) -> Correction:
    """Correction for a degree-e component of multiplicity m on a degree-d curve:
    -2*e*m^5 * (H^5/20 - (5d+18m)H^6/360 + (9d+8m)m*H^7/420 - d*m^2*H^8/60).
    """
    d, e, m = degree, component_degree, mult
    _check(model.nonlinear_violations(e, m))
    if e * m > d:
        raise FeatureError(f"component accounts for degree {e * m} > curve degree {d}")
    s = -2 * e * m**5
    a = (0, 0, 0, 0, 0, 6 * s, -2 * s * (5 * d + 18 * m), 12 * s * m * (9 * d + 8 * m), -672 * s * d * m * m)
    return Correction(KIND_NONLINEAR, a)


# ---------------------------------------------------------------------------
# local features
# ---------------------------------------------------------------------------


def tangent_cone_correction(line_mults: Sequence[int]) -> Correction:
    """Correction for the tangent-cone fan at a point, from the multiplicities
    of the distinct tangent lines.

    With e_1..e_5 the elementary symmetric functions of the multiplicities:
    -e1*(e2*e3 - e1*e4 - e5) * (H^6/24 - e1*H^7/28 + e1^2*H^8/64).
    The prefactor vanishes identically when there are at most two lines.
    """
    _check(model.tangent_cone_violations(line_mults))
    return _cone_term(_elementary_symmetric(line_mults, 5))


def _cone_term(es: Sequence[int]) -> Correction:
    """The tangent-cone term from e_0..e_5 of the line multiplicities."""
    e1 = es[1]
    prefactor = -e1 * (es[2] * es[3] - e1 * es[4] - es[5])
    return _local(KIND_TANGENT_CONE, 30 * prefactor, -180 * e1 * prefactor, 630 * e1 * e1 * prefactor)


#: 420 / (i + 1) for i <= 6: the integral of t^i over [0, 1], times 420 = lcm(1..7).
_MOMENTS = tuple(420 // (i + 1) for i in range(7))


def _times_linear(f: Sequence[int], s0: int, s1: int) -> list[int]:
    """The polynomial f(t) * (s0 + s1*t), coefficients constant term first."""
    return [s0 * f[0]] + [s0 * f[i] + s1 * f[i - 1] for i in range(1, len(f))] + [s1 * f[-1]]


def _side_vertex_polynomials(j0: int, k0: int, j1: int, k1: int) -> tuple[int, int, int]:
    """(l6, l7, l8) = 30, 180 and 630 times the integrals over 0 <= t <= 1 of
    (jk)^2, (jk)^2 (j+k) and (jk)^2 (j+k)^2 along the side j = (1-t)j0 + t*j1,
    k = (1-t)k0 + t*k1: symmetric in the endpoints, since t <-> 1-t swaps them.

    The integrands are expanded in t as integers, and sum(c_i * t^i)
    integrates to sum(c_i * 420/(i+1)) / 420 with one exact division.
    """
    dj, dk = j1 - j0, k1 - k0
    p0, p1, p2 = j0 * k0, j0 * dk + k0 * dj, dj * dk  # jk = p0 + p1*t + p2*t^2
    q6 = [p0 * p0, 2 * p0 * p1, p1 * p1 + 2 * p0 * p2, 2 * p1 * p2, p2 * p2]
    q7 = _times_linear(q6, j0 + k0, dj + dk)
    q8 = _times_linear(q7, j0 + k0, dj + dk)
    l6, l7, l8 = (w * sum(map(mul, q, _MOMENTS)) // 420 for w, q in ((30, q6), (180, q7), (630, q8)))
    return l6, l7, l8


def newton_side_correction(side: model.NewtonSide) -> Correction:
    """Correction for one qualifying polygon side, -R * (L - G), where R is
    twice the area of the triangle cut out by the side and the origin, L the
    vertex polynomial (l6*H^6/6! - l7*H^7/7! + l8*H^8/8!, symmetric in the
    two endpoints) and G the root data (4*p5*H^6/6! - 36*p6*H^7/7! +
    192*p7*H^8/8!) / S, with S the lattice span and p_k the power sums of
    the root multiplicities.  S divides R, so the term is integral.
    """
    _check(model.side_violations(side))
    area2 = side.j1 * side.k0 - side.j0 * side.k1
    q = area2 // side.span()
    l6, l7, l8 = _side_vertex_polynomials(side.j0, side.k0, side.j1, side.k1)
    return _local(
        KIND_SIDE,
        -(area2 * l6 - 4 * q * _power_sum(side.s, 5)),
        area2 * l7 - 36 * q * _power_sum(side.s, 6),
        -(area2 * l8 - 192 * q * _power_sum(side.s, 7)),
    )


def truncation_correction(trunc: model.Truncation) -> Correction:
    """Correction for a branch truncation:
    -ell*W*(4*(S^5-p5)H^6/6! - 36*(S^6-p6)H^7/7! + 192*(S^7-p7)H^8/8!).
    """
    _check(model.truncation_violations(trunc))
    total = sum(trunc.s)
    w = trunc.ell * trunc.weight.numerator
    return _local(
        KIND_TRUNCATION,
        -4 * w * (total**5 - _power_sum(trunc.s, 5)),
        36 * w * (total**6 - _power_sum(trunc.s, 6)),
        -192 * w * (total**7 - _power_sum(trunc.s, 7)),
        trunc.weight.denominator,
    )


def local_correction_from_quadratic(
    alpha: object, beta: object, gamma: object, rho: object, delta: int = 1
) -> Correction:
    """Correction of a local component from the quadratic P(q) = alpha*q^2 +
    beta*q + gamma giving its degree-7 predegree coefficient:

    -delta * (P''(-rho)*H^6/(42*6!) + P'(-rho)*H^7/(7*7!) + P(-rho)*H^8/8!).
    """
    a, b, c, r = (to_rational(v) for v in (alpha, beta, gamma, rho))
    if delta < 1:
        raise FeatureError("the covering degree must be a positive integer")
    values = (-delta * 2 * a / 42, -delta * (-2 * a * r + b) / 7, -delta * (a * r * r - b * r + c))
    den = lcm(*(v.denominator for v in values))
    return _local(KIND_LOCAL, *(v.numerator * (den // v.denominator) for v in values), den)


# ---------------------------------------------------------------------------
# irreducible singularities
# ---------------------------------------------------------------------------


def pair_jet(a: int, b: int) -> tuple[int, int, int]:
    """The k^0, k^1, k^2 Taylor coefficients of
    a^2*b^2/((1+a*k)^3 (1+b*k)^3) - 4/((1+k)^3 (1+2k)^3)."""
    p = a * a * b * b
    return (p - 4, -3 * p * (a + b) + 36, 3 * p * (2 * a * a + 3 * a * b + 2 * b * b) - 192)


def irreducible_correction(sing: model.IrreducibleSingularity) -> Correction:
    """Correction term of an irreducible singularity.

    With e_0 = n, e_{r+1} = 0, and d_j the running gcd chain, the jet
    q = m*n*P(m, n) + sum_j (e_{j+1} - e_j) * d_j * P(d_j, 2*d_j) gives
    term = -(q0*H^6/6! + q1*H^7/7! + q2*H^8/8!).
    """
    _check(model.irreducible_violations(sing))
    weighted = [(sing.m * sing.n, pair_jet(sing.m, sing.n))]
    weighted += [(step * d, pair_jet(d, 2 * d)) for step, d in sing.chain_steps()]
    q0, q1, q2 = (sum(w * jet[i] for w, jet in weighted) for i in range(3))
    return _local(KIND_IRREDUCIBLE, -q0, -q1, -q2)


#: The term of one ordinary inflection (contact 3): -H^6/48 + 3*H^7/70 -
#: 197*H^8/4480 as the general contact formula gives it, and the same with
#: the H^6 coefficient -1/42 that circulates in print.  The printed value is
#: inconsistent with every cross-check in this package (see README), but
#: can be selected to reproduce the discrepancy.
_FLEX_DERIVED = irreducible_correction(model.IrreducibleSingularity(1, 3))
_FLEX_PRINTED = _local(KIND_FLEX, -120, 1512, -12411, 7)


def flex_correction(count: int, printed: bool = False) -> Correction:
    """The term of `count` ordinary inflections: count times that of one."""
    _check(model.flex_count_violations(count))
    one = _FLEX_PRINTED if printed else _FLEX_DERIVED
    return Correction(KIND_FLEX, tuple([count * v for v in one.a]), one.den)


# ---------------------------------------------------------------------------
# ordinary multiple points
# ---------------------------------------------------------------------------


def multiple_point_correction(m: int, contacts: Sequence[int]) -> Correction:
    """Correction of an ordinary multiple point: the sum of the terms of
    the composite point it stands for (`model.ordinary_multiple_point`),
    its m reduced tangent lines and one polygon side per nonlinear branch.
    The m lines have e_k = C(m, k), so the cost does not grow with m.

    `m` counts all branches (linear and nonlinear); `contacts` lists, for
    each nonlinear branch, the intersection multiplicity of the curve
    with that branch's tangent line.  Linear branches carry no term of
    their own but enter through m.
    """
    _check(model.multiple_point_violations(m, contacts))
    terms = [_cone_term([comb(m, k) for k in range(6)])] + [newton_side_correction(s) for s in model.branch_sides(m, contacts)]
    return Correction(KIND_LOCAL, tuple([sum(column) for column in zip(*[t.a for t in terms])]))
