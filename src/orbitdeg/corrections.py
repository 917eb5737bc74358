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
Every local term's a_6..a_8 are a sum of one jet, the k^0..k^2 Taylor
coefficients of p/((1+a*k)^3 (1+b*k)^3) (`_jets`); a polygon side's vertex
polynomial is that jet's integral along the side, in closed form.

Each public builder checks its arguments, raising FeatureError, and then
runs its term's kernel (`_line_term`, `_side_term`, ...), which assumes
valid data.  `engine.assemble` calls the kernels directly, after
`model.validate` has checked every rule and the records their types.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import Iterable, Sequence

from . import model
from .record import record
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


def _check_ints(*values: object) -> None:
    """Raise FeatureError, in the records' words, at the first value not exactly an int."""
    for value in values:
        if type(value) is not int:
            raise FeatureError(f"expected an integer, got {type(value).__name__}")


def _check_type(value: object, classes: tuple[type, ...], what: str) -> None:
    """Raise FeatureError, in the records' words, when the class of `value` is not one of `classes`."""
    if type(value) not in classes:
        raise FeatureError(f"expected {what}, got {type(value).__name__}")


def _check_int_sequence(values: object) -> None:
    """Raise FeatureError, in the records' words, unless `values` is a list or tuple of exact ints."""
    _check_type(values, (list, tuple), "a list or tuple of integers")
    _check_ints(*values)


def _check(problems: list[model.Violation]) -> None:
    """Raise FeatureError with the first of the model's violations, if any."""
    if problems:
        raise FeatureError(str(problems[0]))


@record
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


def _jets(terms: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The k^0, k^1, k^2 Taylor coefficients of the sum over (p, a, b) of
    p/((1+a*k)^3 (1+b*k)^3): the sum of p*(1, -3(a+b), 3(2a^2+3ab+2b^2))."""
    q0 = q1 = q2 = 0
    for p, a, b in terms:
        q0, q1, q2 = q0 + p, q1 + p * (a + b), q2 + p * (2 * a * a + 3 * a * b + 2 * b * b)
    return q0, -3 * q1, 3 * q2


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


def line_correction(mult: int, meets: list[int] | tuple[int, ...], degree: int) -> Correction:
    """Correction for a line of multiplicity `mult` meeting the rest of the
    curve with multiplicities `meets`, on a curve of the given degree.

    The antiderivative (zero constant term) of
    -(m^3/2) * exp(-d*H) * H^2 * prod(1 + r*H + r^2*H^2/2), written out:
    with r_k the power sums of the intersection multiplicities, a_3..a_8 are
    -m^3, 3m^4, -6m^5, 10m^3(m^3 + r_3), -15m^3(m^4 + 4m*r_3 + 3r_4) and
    21m^3(m^5 + 10m^2*r_3 + 15m*r_4 + 6r_5).  The curve degree drops out.
    """
    _check_ints(mult, degree)
    _check_int_sequence(meets)
    _check(model.line_violations(mult, meets, degree))
    return _line_term(mult, meets)


def _line_term(m: int, meets: Sequence[int]) -> Correction:
    """`line_correction` without its checks."""
    m3 = m**3
    r3, r4, r5 = (sum([r**k for r in meets]) for k in (3, 4, 5))
    a6 = 10 * m3 * (m3 + r3)
    a7 = -15 * m3 * (m3 * m + 4 * m * r3 + 3 * r4)
    a8 = 21 * m3 * (m3 * m * m + 10 * m * m * r3 + 15 * m * r4 + 6 * r5)
    return Correction(KIND_LINE, (0, 0, 0, -m3, 3 * m3 * m, -6 * m3 * m * m, a6, a7, a8))


def nonlinear_correction(degree: int, component_degree: int, mult: int) -> Correction:
    """Correction for a degree-e component of multiplicity m on a degree-d curve:
    -2*e*m^5 * (H^5/20 - (5d+18m)H^6/360 + (9d+8m)m*H^7/420 - d*m^2*H^8/60).
    """
    d, e, m = degree, component_degree, mult
    _check_ints(d, e, m)
    _check(model.nonlinear_violations(e, m))
    if e * m > d:
        raise FeatureError(f"component accounts for degree {e * m} > curve degree {d}")
    return _nonlinear_term(d, e, m)


def _nonlinear_term(d: int, e: int, m: int) -> Correction:
    """`nonlinear_correction` without its checks."""
    s = -2 * e * m**5
    a = (0, 0, 0, 0, 0, 6 * s, -2 * s * (5 * d + 18 * m), 12 * s * m * (9 * d + 8 * m), -672 * s * d * m * m)
    return Correction(KIND_NONLINEAR, a)


# ---------------------------------------------------------------------------
# local features
# ---------------------------------------------------------------------------


def tangent_cone_correction(line_mults: list[int] | tuple[int, ...]) -> Correction:
    """Correction for the tangent-cone fan at a point, from the multiplicities
    of the distinct tangent lines.

    With e_1..e_5 the elementary symmetric functions of the multiplicities:
    -e1*(e2*e3 - e1*e4 - e5) * (H^6/24 - e1*H^7/28 + e1^2*H^8/64).
    The prefactor vanishes identically when there are at most two lines.
    """
    _check_int_sequence(line_mults)
    _check(model.tangent_cone_violations(line_mults))
    return _cone_term(_elementary_symmetric(line_mults, 5))


def _cone_term(es: Sequence[int]) -> Correction:
    """The tangent-cone term from e_0..e_5 of the lines: the jet at (-30*e1*(e2*e3 - e1*e4 - e5), e1, e1)."""
    e1 = es[1]
    return _local(KIND_TANGENT_CONE, *_jets([(-30 * e1 * (es[2] * es[3] - e1 * es[4] - es[5]), e1, e1)]))


def _side_vertex_polynomials(j0: int, k0: int, j1: int, k1: int) -> tuple[int, int, int]:
    """(l6, l7, l8) = 30, 180 and 630 times the integrals over 0 <= t <= 1 of
    (jk)^2, (jk)^2 (j+k) and (jk)^2 (j+k)^2 along the side j = j0 + t*(j1-j0),
    k = k0 + t*(k1-k0), so that (l6, -l7, l8) integrates the jet at (30(jk)^2, j+k, j+k).

    With jk = A + B*t + C*t^2 and j+k = E + F*t, (jk)^2 is the sum of c_i*t^i
    over c = (A^2, 2AB, B^2+2AC, 2BC, C^2), and t^i integrates to 1/(i+1).  So
    l6 = P, l7 = 6E*P + F*Q and l8 = 21E^2*P + 7EF*Q + F^2*R, where P, Q and R
    are 30, 180 and 630 times the sums of c_i/(i+1), c_i/(i+2) and c_i/(i+3):
    integer forms, the factor 2 of c_1 and c_3 clearing their odd denominators.
    """
    dj, dk = j1 - j0, k1 - k0
    a, b, c = j0 * k0, j0 * dk + k0 * dj, dj * dk
    aa, ab, x, bc, cc = a * a, a * b, b * b + 2 * a * c, b * c, c * c
    e, f = j0 + k0, dj + dk
    p = 30 * aa + 30 * ab + 10 * x + 15 * bc + 6 * cc
    q = 90 * aa + 120 * ab + 45 * x + 72 * bc + 30 * cc
    r = 210 * aa + 315 * ab + 126 * x + 210 * bc + 90 * cc
    return p, 6 * e * p + f * q, e * (21 * e * p + 7 * f * q) + f * f * r


def newton_side_correction(side: model.NewtonSide) -> Correction:
    """Correction for one qualifying polygon side, -R * (L - G), where R is
    twice the area of the triangle cut out by the side and the origin, L the
    vertex polynomial (l6*H^6/6! - l7*H^7/7! + l8*H^8/8!, symmetric in the
    two endpoints) and G the root data, 1/S times the jets at (4*s^5, s, 2s)
    over the root multiplicities s, with S the lattice span.  S divides R,
    so the term is integral.
    """
    _check_type(side, (model.NewtonSide,), "a NewtonSide record")
    _check(model.side_violations(side))
    return _side_term(side.j0, side.k0, side.j1, side.k1, side.s)


def _side_term(j0: int, k0: int, j1: int, k1: int, roots: Sequence[int]) -> Correction:
    """`newton_side_correction` of the side (j0, k0) -> (j1, k1) with root multiplicities `roots`, unchecked."""
    area2 = j1 * k0 - j0 * k1
    q = area2 // gcd(j1 - j0, k0 - k1)
    l6, l7, l8 = _side_vertex_polynomials(j0, k0, j1, k1)
    g6, g7, g8 = _jets([(4 * q * s**5, s, 2 * s) for s in roots])
    return _local(KIND_SIDE, g6 - area2 * l6, g7 + area2 * l7, g8 - area2 * l8)


def truncation_correction(trunc: model.Truncation) -> Correction:
    """Correction for a branch truncation: ell*W times the jets at (4*s^5, s, 2s)
    over the conic multiplicities s, less the jet at (4*S^5, S, 2S) of their sum S."""
    _check_type(trunc, (model.Truncation,), "a Truncation record")
    _check(model.truncation_violations(trunc))
    return _truncation_term(trunc)


def _truncation_term(trunc: model.Truncation) -> Correction:
    """`truncation_correction` without its checks."""
    total = sum(trunc.s)
    w = trunc.ell * trunc.weight.numerator
    jets = _jets([(4 * w * s**5, s, 2 * s) for s in trunc.s] + [(-4 * w * total**5, total, 2 * total)])
    return _local(KIND_TRUNCATION, *jets, trunc.weight.denominator)


def local_correction_from_quadratic(
    alpha: object, beta: object, gamma: object, rho: object, delta: int = 1
) -> Correction:
    """Correction of a local component from the quadratic P(q) = alpha*q^2 +
    beta*q + gamma giving its degree-7 predegree coefficient:

    -delta * (P''(-rho)*H^6/(42*6!) + P'(-rho)*H^7/(7*7!) + P(-rho)*H^8/8!).
    """
    try:
        a, b, c, r = (to_rational(v) for v in (alpha, beta, gamma, rho))
    except (TypeError, ValueError) as exc:
        raise FeatureError(str(exc)) from exc
    _check_ints(delta)
    if delta < 1:
        raise FeatureError("the covering degree must be a positive integer")
    values = (-delta * 2 * a / 42, -delta * (-2 * a * r + b) / 7, -delta * (a * r * r - b * r + c))
    den = lcm(*(v.denominator for v in values))
    return _local(KIND_LOCAL, *(v.numerator * (den // v.denominator) for v in values), den)


# ---------------------------------------------------------------------------
# irreducible singularities
# ---------------------------------------------------------------------------


def irreducible_correction(sing: model.IrreducibleSingularity) -> Correction:
    """Correction term of an irreducible singularity.

    With e_0 = n, e_{r+1} = 0, and d_j the running gcd chain, the weights
    w = m*n at (m, n) and w = (e_{j+1} - e_j) * d_j at (d_j, 2*d_j) give the
    term as the jets at (-w*a^2*b^2, a, b), plus the jet at (4*sum(w), 1, 2).
    """
    _check_type(sing, (model.IrreducibleSingularity,), "an IrreducibleSingularity record")
    _check(model.irreducible_violations(sing))
    return _irreducible_term(sing)


def _irreducible_term(sing: model.IrreducibleSingularity) -> Correction:
    """`irreducible_correction` without its checks."""
    weighted = [(sing.m * sing.n, sing.m, sing.n)] + [(step * d, d, 2 * d) for step, d in sing.chain_steps()]
    terms = [(-w * a * a * b * b, a, b) for w, a, b in weighted]
    return _local(KIND_IRREDUCIBLE, *_jets(terms + [(4 * sum([w for w, _, _ in weighted]), 1, 2)]))


def flex_correction(count: int, printed: bool = False, contact: int = 3) -> Correction:
    """`count` times the term of an inflection of contact c >= 3: the irreducible
    term at m = 1, n = c, which is the jets at (-c^3, 1, c) and (4c, 1, 2).
    At c = 3 that is -H^6/48 + 3*H^7/70 - 197*H^8/4480; `printed` gives H^6 the
    coefficient -1/42 that circulates in print (6! * -1/42 = -120/7), which
    every cross-check in this package refutes (see README).
    """
    _check_ints(count, contact)
    _check(model.flex_count_violations(count) + model.flex_violations(contact))
    return _flex_term(count, printed, contact)


def _flex_term(count: int, printed: bool, contact: int = 3) -> Correction:
    """`flex_correction` without its checks."""
    q0, q1, q2 = _jets([(-count * contact**3, 1, contact), (4 * count * contact, 1, 2)])
    if printed and contact == 3:
        return _local(KIND_FLEX, -120 * count, 7 * q1, 7 * q2, 7)
    return _local(KIND_FLEX, q0, q1, q2)


# ---------------------------------------------------------------------------
# ordinary multiple points
# ---------------------------------------------------------------------------


def multiple_point_terms(m: int, contacts: list[int] | tuple[int, ...]) -> list[tuple[str, Correction]]:
    """The terms of an ordinary multiple point, each after the part it
    comes from: "tangent_cone", the m reduced tangent lines, whose e_k =
    C(m, k) keep the cost from growing with m, and "sides[i]", the polygon
    side (m-1, 1) -> (r, 0), with a simple root, of the i-th nonlinear
    branch, of contact r.

    `m` counts all branches (linear and nonlinear); `contacts` lists, for
    each nonlinear branch, the intersection multiplicity of the curve
    with that branch's tangent line.  Linear branches carry no term of
    their own but enter through m.
    """
    _check_ints(m)
    _check_int_sequence(contacts)
    _check(model.multiple_point_violations(m, contacts))
    return _multiple_point_terms(m, contacts)


def _multiple_point_terms(m: int, contacts: Sequence[int]) -> list[tuple[str, Correction]]:
    """`multiple_point_terms` without its checks."""
    sides = [(f"sides[{i}]", _side_term(m - 1, 1, r, 0, (1,))) for i, r in enumerate(contacts)]
    return [("tangent_cone", _cone_term([comb(m, k) for k in range(6)]))] + sides


def multiple_point_correction(m: int, contacts: list[int] | tuple[int, ...]) -> Correction:
    """Correction of an ordinary multiple point: the sum of its
    `multiple_point_terms`."""
    terms = [corr.a for _, corr in multiple_point_terms(m, contacts)]
    return Correction(KIND_LOCAL, tuple([sum(column) for column in zip(*terms)]))
