"""Closed-form correction terms of the adjusted predegree polynomial.

Each global feature of a curve (a line component, a nonlinear component)
contributes a correction series of order >= 3; each local feature
(tangent cone, polygon side, truncation, irreducible singularity,
inflection) contributes one of order >= 6.  Any product of two such
terms has order >= 9 and vanishes in Q[H]/(H^9), so the polynomial is
exp(d*H) * (1 + sum of all terms); the point "factors" below are 1 + term,
and several features, or copies of one, combine by adding their terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import model
from .series import TruncSeries, exp_linear, to_rational

F = Fraction

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


@dataclass(frozen=True)
class Correction:
    """An additive correction term tagged with the feature kind it came from."""

    kind: str
    term: TruncSeries


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

    Computed as the antiderivative (zero constant term) of
    -(m^3/2) * exp(-d*H) * H^2 * prod(1 + r*H + r^2*H^2/2).
    """
    if mult < 1 or degree < 1 or any(r < 1 for r in meets):
        raise FeatureError("line data must be positive integers")
    if sum(meets) != degree - mult:
        raise FeatureError(
            f"intersection multiplicities sum to {sum(meets)}, expected degree - mult = {degree - mult}"
        )
    product = exp_linear(-degree) * TruncSeries.monomial(2)
    for r in meets:
        product = product * TruncSeries.from_terms({0: 1, 1: r, 2: F(r * r, 2)})
    term = (product * F(-(mult**3), 2)).antiderivative()
    return Correction(KIND_LINE, term)


def line_correction_closed_form(mult: int, meets: Sequence[int]) -> Correction:
    """The same line correction written out coefficient by coefficient.

    Independent of the antiderivative route; the two are checked against
    each other in the test suite.  The curve degree drops out: only the
    power sums of the intersection multiplicities enter.
    """
    m = mult
    r3 = _power_sum(meets, 3)
    r4 = _power_sum(meets, 4)
    r5 = _power_sum(meets, 5)
    term = -TruncSeries.from_terms(
        {
            3: F(m**3, 6),
            4: F(-(m**4), 8),
            5: F(m**5, 20),
            6: F(-(m**3) * (m**3 + r3), 72),
            7: F(m**3 * (m**4 + 4 * m * r3 + 3 * r4), 336),
            8: F(-(m**3) * (m**5 + 10 * m**2 * r3 + 15 * m * r4 + 6 * r5), 1920),
        }
    )
    return Correction(KIND_LINE, term)


def nonlinear_correction(degree: int, component_degree: int, mult: int) -> Correction:
    """Correction for a degree-e component of multiplicity m on a degree-d curve:
    -2*e*m^5 * (H^5/20 - (5d+18m)H^6/360 + (9d+8m)m*H^7/420 - d*m^2*H^8/60).
    """
    d, e, m = degree, component_degree, mult
    if e < 2 or m < 1:
        raise FeatureError("nonlinear components need degree >= 2 and positive multiplicity")
    if e * m > d:
        raise FeatureError(f"component accounts for degree {e * m} > curve degree {d}")
    scale = -2 * e * m**5
    term = scale * TruncSeries.from_terms(
        {
            5: F(1, 20),
            6: F(-(5 * d + 18 * m), 360),
            7: F((9 * d + 8 * m) * m, 420),
            8: F(-d * m * m, 60),
        }
    )
    return Correction(KIND_NONLINEAR, term)


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
    if any(v < 1 for v in line_mults):
        raise FeatureError("tangent-cone multiplicities must be positive")
    es = _elementary_symmetric(line_mults, 5)
    e1 = es[1]
    prefactor = -e1 * (es[2] * es[3] - e1 * es[4] - es[5])
    term = prefactor * TruncSeries.from_terms({6: F(1, 24), 7: F(-e1, 28), 8: F(e1 * e1, 64)})
    return Correction(KIND_TANGENT_CONE, term)


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


def _side_vertex_series(j0: int, k0: int, j1: int, k1: int) -> TruncSeries:
    """The vertex polynomial of a side: symmetric in the two endpoints."""
    return TruncSeries.from_terms(
        {
            6: F(_side_l6(j0, k0, j1, k1), 720),
            7: F(-_side_l7(j0, k0, j1, k1), 5040),
            8: F(_side_l8(j0, k0, j1, k1), 40320),
        }
    )


def _side_root_series(span: int, s: Sequence[int]) -> TruncSeries:
    """The root-data polynomial of a side: (1/S)(4*p5*H^6/6! - 36*p6*H^7/7! + 192*p7*H^8/8!)."""
    return TruncSeries.from_terms(
        {
            6: F(4 * _power_sum(s, 5), 720 * span),
            7: F(-36 * _power_sum(s, 6), 5040 * span),
            8: F(192 * _power_sum(s, 7), 40320 * span),
        }
    )


def newton_side_correction(side: model.NewtonSide) -> Correction:
    """Correction for one qualifying polygon side, -R * (L - G), where R is
    twice the area of the triangle cut out by the side and the origin.
    """
    problems = model.side_violations(side)
    if problems:
        raise FeatureError(str(problems[0]))
    area2 = side.j1 * side.k0 - side.j0 * side.k1
    vertex = _side_vertex_series(side.j0, side.k0, side.j1, side.k1)
    roots = _side_root_series(side.span(), side.s)
    return Correction(KIND_SIDE, -area2 * (vertex - roots))


def truncation_correction(trunc: model.Truncation) -> Correction:
    """Correction for a branch truncation:
    -ell*W*(4*(S^5-p5)H^6/6! - 36*(S^6-p6)H^7/7! + 192*(S^7-p7)H^8/8!).
    """
    problems = model.truncation_violations(trunc)
    if problems:
        raise FeatureError(str(problems[0]))
    total = sum(trunc.s)
    weight = trunc.ell * trunc.weight
    term = -weight * TruncSeries.from_terms(
        {
            6: F(4 * (total**5 - _power_sum(trunc.s, 5)), 720),
            7: F(-36 * (total**6 - _power_sum(trunc.s, 6)), 5040),
            8: F(192 * (total**7 - _power_sum(trunc.s, 7)), 40320),
        }
    )
    return Correction(KIND_TRUNCATION, term)


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
    p = a * r * r - b * r + c
    p1 = -2 * a * r + b
    p2 = 2 * a
    term = -delta * TruncSeries.from_terms(
        {6: p2 / (42 * 720), 7: p1 / (7 * 5040), 8: p / 40320}
    )
    return Correction(KIND_LOCAL, term)


# ---------------------------------------------------------------------------
# irreducible singularities
# ---------------------------------------------------------------------------


def pair_jet(a: int, b: int) -> tuple[int, int, int]:
    """The k^0, k^1, k^2 Taylor coefficients of
    a^2*b^2/((1+a*k)^3 (1+b*k)^3) - 4/((1+k)^3 (1+2k)^3)."""
    p = a * a * b * b
    return (p - 4, -3 * p * (a + b) + 36, 3 * p * (2 * a * a + 3 * a * b + 2 * b * b) - 192)


def irreducible_singularity_factor(sing: model.IrreducibleSingularity) -> TruncSeries:
    """Contribution 1 + term of an irreducible singularity.

    With e_0 = n, e_{r+1} = 0, and d_j the running gcd chain, the jet
    q = m*n*P(m, n) + sum_j (e_{j+1} - e_j) * d_j * P(d_j, 2*d_j) gives
    term = -(q0*H^6/6! + q1*H^7/7! + q2*H^8/8!).
    """
    problems = model.irreducible_violations(sing)
    if problems:
        raise FeatureError(str(problems[0]))
    chain = sing.gcd_chain()
    exponents = (sing.n,) + sing.essential + (0,)
    weighted = [(sing.m * sing.n, pair_jet(sing.m, sing.n))]
    for j in range(len(sing.essential) + 1):
        weighted.append(((exponents[j + 1] - exponents[j]) * chain[j], pair_jet(chain[j], 2 * chain[j])))
    q0, q1, q2 = (sum(w * jet[i] for w, jet in weighted) for i in range(3))
    return TruncSeries.from_terms({0: 1, 6: F(-q0, 720), 7: F(-q1, 5040), 8: F(-q2, 40320)})


def flexes_absorbed(sing: model.IrreducibleSingularity) -> int:
    """How many ordinary inflections the singularity absorbs from the
    3d(d-2) budget of a reduced line-free curve."""
    problems = model.irreducible_violations(sing)
    if problems:
        raise FeatureError(str(problems[0]))
    count = sing.absorbed_flex_count()
    if count < 0:
        raise RuntimeError(f"negative absorbed-flex count {count} for {sing}")
    return count


#: The H^6..H^8 data of an ordinary inflection (contact 3) as derived from
#: the general contact formula.  A value of -1/42 for the H^6 coefficient
#: circulates in print; it is inconsistent with every cross-check in this
#: package (see README), but can be selected to reproduce the discrepancy.
_FLEX_DERIVED = TruncSeries.from_terms({0: 1, 6: F(-1, 48), 7: F(3, 70), 8: F(-197, 4480)})
_FLEX_PRINTED = TruncSeries.from_terms({0: 1, 6: F(-1, 42), 7: F(3, 70), 8: F(-197, 4480)})


def flex_factor(printed: bool = False) -> TruncSeries:
    """The contribution 1 + term of a single ordinary inflection."""
    return _FLEX_PRINTED if printed else _FLEX_DERIVED


def flex_equivalent(count: int, printed: bool = False) -> TruncSeries:
    """The contribution 1 + count*term of `count` ordinary inflections."""
    if count < 0:
        raise FeatureError("flex count must be >= 0")
    return 1 + count * (flex_factor(printed) - 1)


# ---------------------------------------------------------------------------
# ordinary multiple points
# ---------------------------------------------------------------------------


def _branch_contact_factor(m: int, r: int) -> TruncSeries:
    """Per-tangent-line contribution 1 + term of an ordinary multiple point
    of multiplicity m whose nonlinear branch meets its tangent with total
    multiplicity r."""
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
    return TruncSeries.from_terms({0: 1, 6: F(h6, 720), 7: F(h7, 5040), 8: F(h8, 40320)})


def ordinary_multiple_point_factor(m: int, contacts: Sequence[int]) -> TruncSeries:
    """Contribution 1 + term of an ordinary multiple point: the tangent-cone
    term plus one branch term per nonlinear branch.

    `m` counts all branches (linear and nonlinear); `contacts` lists, for
    each nonlinear branch, the intersection multiplicity of the curve
    with that branch's tangent line.  Linear branches carry no factor of
    their own but enter through m.
    """
    if m < 2:
        raise FeatureError("multiple points need multiplicity >= 2")
    if len(contacts) > m:
        raise FeatureError(f"at most m = {m} branches")
    if any(r < m + 1 for r in contacts):
        raise FeatureError(f"contacts must be >= m + 1 = {m + 1}")
    result = 1 + tangent_cone_correction((1,) * m).term
    for r in contacts:
        result = result + (_branch_contact_factor(m, r) - 1)
    return result


def ordinary_multiple_point_factor_sym(m: int, contacts: Sequence[int]) -> TruncSeries:
    """The same contribution through the elementary-symmetric form.

    An independent transcription used as an oracle for
    `ordinary_multiple_point_factor`.
    """
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
