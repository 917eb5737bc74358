"""Closed-form correction terms of the adjusted predegree polynomial.

Each global feature of a curve (a line component, a nonlinear component)
contributes a correction series of order >= 3; each local feature
(tangent cone, polygon side, truncation, irreducible singularity,
inflection) contributes one of order >= 6.  Any product of two such
terms has order >= 9 and vanishes in Q[H]/(H^9), so the polynomial is
exp(d*H) * (1 + sum of all terms); the point "factors" below are 1 + term,
and several features, or copies of one, combine by adding their terms.

Every term is built in the predegree basis: integers a_0..a_8 over one
positive denominator, standing for the sum of a_i * H^i / (i! * den).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from . import model
from .series import TruncSeries, from_predegree, to_rational

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
        """The term as an exact series, built on each access."""
        return from_predegree(self.a, self.den)


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
    es = _elementary_symmetric(line_mults, 5)
    e1 = es[1]
    prefactor = -e1 * (es[2] * es[3] - e1 * es[4] - es[5])
    return _local(KIND_TANGENT_CONE, 30 * prefactor, -180 * e1 * prefactor, 630 * e1 * e1 * prefactor)


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


def newton_side_correction(side: model.NewtonSide) -> Correction:
    """Correction for one qualifying polygon side, -R * (L - G), where R is
    twice the area of the triangle cut out by the side and the origin, L the
    vertex polynomial (l6*H^6/6! - l7*H^7/7! + l8*H^8/8!, symmetric in the
    two endpoints) and G the root data (4*p5*H^6/6! - 36*p6*H^7/7! +
    192*p7*H^8/8!) / S, with S the lattice span and p_k the power sums of
    the root multiplicities.  S divides R, so the term is integral.
    """
    _check(model.side_violations(side))
    j0, k0, j1, k1 = side.j0, side.k0, side.j1, side.k1
    area2 = j1 * k0 - j0 * k1
    q = area2 // side.span()
    return _local(
        KIND_SIDE,
        -(area2 * _side_l6(j0, k0, j1, k1) - 4 * q * _power_sum(side.s, 5)),
        area2 * _side_l7(j0, k0, j1, k1) - 36 * q * _power_sum(side.s, 6),
        -(area2 * _side_l8(j0, k0, j1, k1) - 192 * q * _power_sum(side.s, 7)),
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
    chain = sing.gcd_chain()
    exponents = (sing.n,) + sing.essential + (0,)
    weighted = [(sing.m * sing.n, pair_jet(sing.m, sing.n))]
    for j in range(len(sing.essential) + 1):
        weighted.append(((exponents[j + 1] - exponents[j]) * chain[j], pair_jet(chain[j], 2 * chain[j])))
    q0, q1, q2 = (sum(w * jet[i] for w, jet in weighted) for i in range(3))
    return _local(KIND_IRREDUCIBLE, -q0, -q1, -q2)


def irreducible_singularity_factor(sing: model.IrreducibleSingularity) -> TruncSeries:
    """Contribution 1 + term of an irreducible singularity."""
    return 1 + irreducible_correction(sing).term


def flexes_absorbed(sing: model.IrreducibleSingularity) -> int:
    """How many ordinary inflections the singularity absorbs from the
    3d(d-2) budget of a reduced line-free curve."""
    _check(model.irreducible_violations(sing))
    count = sing.absorbed_flex_count()
    if count < 0:
        raise RuntimeError(f"negative absorbed-flex count {count} for {sing}")
    return count


#: (a6, a7, a8) and denominator of an ordinary inflection (contact 3): the
#: term -H^6/48 + 3*H^7/70 - 197*H^8/4480 derived from the general contact
#: formula, and the same with the H^6 coefficient -1/42 that circulates in
#: print.  The printed value is inconsistent with every cross-check in this
#: package (see README), but can be selected to reproduce the discrepancy.
_FLEX_DERIVED = ((-15, 216, -1773), 1)
_FLEX_PRINTED = ((-120, 1512, -12411), 7)


def flex_correction(count: int, printed: bool = False) -> Correction:
    """The term of `count` ordinary inflections: count times that of one."""
    _check(model.flex_count_violations(count))
    (a6, a7, a8), den = _FLEX_PRINTED if printed else _FLEX_DERIVED
    return _local(KIND_FLEX, count * a6, count * a7, count * a8, den)


def flex_factor(printed: bool = False) -> TruncSeries:
    """The contribution 1 + term of a single ordinary inflection."""
    return flex_equivalent(1, printed)


def flex_equivalent(count: int, printed: bool = False) -> TruncSeries:
    """The contribution 1 + count*term of `count` ordinary inflections."""
    return 1 + flex_correction(count, printed).term


# ---------------------------------------------------------------------------
# ordinary multiple points
# ---------------------------------------------------------------------------


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


def ordinary_multiple_point_factor(m: int, contacts: Sequence[int]) -> TruncSeries:
    """Contribution 1 + term of an ordinary multiple point: the tangent-cone
    term plus one branch term per nonlinear branch.

    `m` counts all branches (linear and nonlinear); `contacts` lists, for
    each nonlinear branch, the intersection multiplicity of the curve
    with that branch's tangent line.  Linear branches carry no factor of
    their own but enter through m.
    """
    _check(model.multiple_point_violations(m, contacts))
    total = list(tangent_cone_correction((1,) * m).a[6:])
    for r in contacts:
        total = [x + y for x, y in zip(total, _branch_contact(m, r))]
    return 1 + _local(KIND_LOCAL, *total).term
