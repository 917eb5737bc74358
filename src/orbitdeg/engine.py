"""Assembly of adjusted predegree polynomials and derived orbit data.

The adjusted predegree polynomial of a degree-d curve is one sum pushed
through exp(d*H): exp(d*H) * (1 + sum of the breakdown's terms).  Global
terms (lines, nonlinear components) have order >= 3 and local ones order
>= 6, so the cross terms of the paper's exp(d*H) * (1 + global) *
prod(1 + local) have order >= 9 and vanish in Q[H]/(H^9).

All of it runs in the predegree basis, where a series is the sum of
a_i * H^i / i! with integer a_i over one common denominator.  There a
product is the binomial convolution (f*g)_k = sum_j C(k, j) f_j g_{k-j},
exp(d*H) is (d^i), and replacing H by m*H multiplies a_i by m^i; the
report's series and rationals are built once, from the result.

From the polynomial the report reads off the predegree coefficients
a_i = i! * c_i, the orbit dimension (largest i with a_i nonzero), the
predegree a_dim, and, when a stabilizer degree is supplied, the degree
of the orbit closure itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Optional, Sequence

from . import corrections, model
from .corrections import Correction
from .series import TRUNCATION_ORDER, TruncSeries, from_predegree, predegree_strings, rational_to_string

F = Fraction


class EngineError(Exception):
    """A computation could not be carried out on the given data."""


class ValidationError(EngineError):
    """The descriptor failed validation; carries the violation list."""

    def __init__(self, violations: Sequence[model.Violation]):
        self.violations = tuple(violations)
        summary = "; ".join(str(v) for v in violations)
        super().__init__(f"invalid descriptor: {summary}")


#: (a6, a7, a8) of the term per transversal intersection of two nonlinear
#: components (1 + term = 1 - H^6/9 + 11*H^7/40 - 311*H^8/960), per
#: transversal intersection of a nonlinear component and a line, and per
#: point of simple tangency of a line with a curve.
PAIR_CROSSING = (-80, 1386, -13062)
LINE_CROSSING = (-30, 588, -6552)
SIMPLE_TANGENCY = (-120, 2352, -26208)

_BINOMIALS = tuple(tuple(comb(k, j) for j in range(k + 1)) for k in range(TRUNCATION_ORDER))

_ERRATUM_NOTE = (
    "strict mode: the ordinary-inflection factor uses the circulated H^6 "
    "coefficient -1/42 instead of the derived -1/48; golden values that "
    "depend on inflection counts will not be reproduced"
)


@dataclass(frozen=True)
class OrbitReport:
    """Everything the computation yields for one curve."""

    app: TruncSeries
    predegree_polynomial: tuple[Fraction, ...]
    orbit_dimension: int
    predegree: Fraction
    degree: Optional[Fraction]
    breakdown: tuple[tuple[str, Correction], ...]
    erratum_notes: tuple[str, ...] = ()


def _convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two series in the predegree basis, truncated at H^9."""
    out = [0] * TRUNCATION_ORDER
    for j, y in enumerate(g):
        if y:
            for k in range(j, TRUNCATION_ORDER):
                out[k] += _BINOMIALS[k][j] * f[k - j] * y
    return out


def _integers(report: OrbitReport) -> tuple[list[int], int]:
    """The report's predegree coefficients as integers over one denominator."""
    den = lcm(*[c.denominator for c in report.predegree_polynomial])
    return [c.numerator * (den // c.denominator) for c in report.predegree_polynomial], den


def _build_report(
    a: Sequence[int],
    den: int,
    breakdown: Sequence[tuple[str, Correction]],
    stabilizer_degree: Optional[int],
    erratum_notes: tuple[str, ...] = (),
) -> OrbitReport:
    """The report of the polynomial sum of a[i] * H^i / (i! * den)."""
    # Tuples here and below are built from lists, not generators: tuple() of
    # a generator allocates ten slots and then shrinks, and the shrunk tuples
    # collect in CPython's per-size free lists, so a long run's peak memory
    # grows.
    coefficients = tuple([F(v, den) for v in a])
    dimension = 0
    for i, v in enumerate(a):
        if v:
            dimension = i
    predegree = coefficients[dimension]
    degree: Optional[Fraction] = None
    if stabilizer_degree is not None:
        degree = predegree / stabilizer_degree
        if degree.denominator != 1 or degree <= 0:
            raise EngineError(
                f"stabilizer degree {stabilizer_degree} does not divide the predegree "
                f"{rational_to_string(predegree)} into a positive integer"
            )
    return OrbitReport(
        app=from_predegree(a, den),
        predegree_polynomial=coefficients,
        orbit_dimension=dimension,
        predegree=predegree,
        degree=degree,
        breakdown=tuple(breakdown),
        erratum_notes=erratum_notes,
    )


def _feature_label(feature: model.PointFeature, index: int) -> str:
    return feature.label if feature.label is not None else f"points[{index}]"


def _feature_corrections(
    feature: model.PointFeature, index: int, erratum_strict: bool
) -> list[tuple[str, Correction]]:
    label = _feature_label(feature, index)
    out: list[tuple[str, Correction]] = []
    if isinstance(feature, model.FlexPoint):
        if erratum_strict and feature.contact == 3:
            corr = corrections.flex_correction(1, printed=True)
        else:
            single = corrections.irreducible_correction(model.IrreducibleSingularity(1, feature.contact))
            corr = Correction(corrections.KIND_FLEX, single.a, single.den)
        out.append((label, corr))
    elif isinstance(feature, model.IrreduciblePoint):
        out.append((label, corrections.irreducible_correction(feature.singularity)))
    else:
        if feature.tangent_cone is not None:
            out.append(
                (f"{label}.tangent_cone", corrections.tangent_cone_correction(feature.tangent_cone.line_mults))
            )
        for i, side in enumerate(feature.sides):
            if side.suppress:
                continue
            out.append((f"{label}.sides[{i}]", corrections.newton_side_correction(side)))
        for i, trunc in enumerate(feature.truncations):
            out.append((f"{label}.truncations[{i}]", corrections.truncation_correction(trunc)))
    return out


def assemble(descriptor: model.CurveDescriptor, *, erratum_strict: bool = False) -> OrbitReport:
    """Compute the orbit report of a curve from its descriptor.

    Raises ValidationError when the descriptor breaks an invariant and
    EngineError when a supplied stabilizer degree does not divide the
    predegree.
    """
    violations = model.validate(descriptor)
    if violations:
        raise ValidationError(violations)
    d = descriptor.degree
    breakdown: list[tuple[str, Correction]] = []
    for i, line in enumerate(descriptor.linear):
        breakdown.append((f"linear[{i}]", corrections.line_correction(line.mult, line.meets, d)))
    for i, comp in enumerate(descriptor.nonlinear):
        breakdown.append((f"nonlinear[{i}]", corrections.nonlinear_correction(d, comp.deg, comp.mult)))

    flex_in_use = False
    for i, feature in enumerate(descriptor.points):
        if isinstance(feature, model.FlexPoint) and feature.contact == 3:
            flex_in_use = True
        breakdown.extend(_feature_corrections(feature, i, erratum_strict))

    count = model.resolved_flex_count(descriptor)
    if count:
        flex_in_use = True
        breakdown.append(("ordinary_flexes", corrections.flex_correction(count, printed=erratum_strict)))

    den = lcm(*[corr.den for _, corr in breakdown])
    total = [den] + [0] * (TRUNCATION_ORDER - 1)
    for _, corr in breakdown:
        factor = den // corr.den
        for i, v in enumerate(corr.a):
            if v:
                total[i] += factor * v
    app = _convolve([d**i for i in range(TRUNCATION_ORDER)], total)
    notes = (_ERRATUM_NOTE,) if erratum_strict and flex_in_use else ()
    return _build_report(app, den, breakdown, descriptor.stabilizer_degree, notes)


def union(
    left: OrbitReport,
    right: OrbitReport,
    crossings: int = 0,
    line_crossings: int = 0,
    tangencies: int = 0,
    stabilizer_degree: Optional[int] = None,
) -> OrbitReport:
    """Report for the union of two reduced curves meeting transversally at
    nonsingular non-inflection points (plus optional simple tangencies).

    `crossings` counts nonlinear-with-nonlinear intersections,
    `line_crossings` nonlinear-with-line intersections.  The geometric
    preconditions are the caller's responsibility.
    """
    if min(crossings, line_crossings, tangencies) < 0:
        raise EngineError("intersection counts must be >= 0")
    breakdown = [(f"left.{label}", corr) for label, corr in left.breakdown]
    breakdown += [(f"right.{label}", corr) for label, corr in right.breakdown]
    meeting = [1] + [0] * (TRUNCATION_ORDER - 1)
    for count, factor, label in (
        (crossings, PAIR_CROSSING, "crossings"),
        (line_crossings, LINE_CROSSING, "line_crossings"),
        (tangencies, SIMPLE_TANGENCY, "tangencies"),
    ):
        if count:
            corr = Correction(corrections.KIND_LOCAL, (0,) * 6 + tuple([count * v for v in factor]))
            meeting = [x + y for x, y in zip(meeting, corr.a)]
            breakdown.append((label, corr))
    (la, lden), (ra, rden) = _integers(left), _integers(right)
    app = _convolve(_convolve(la, ra), meeting)
    notes = tuple(dict.fromkeys(left.erratum_notes + right.erratum_notes))
    return _build_report(app, lden * rden, breakdown, stabilizer_degree, notes)


def scale(report: OrbitReport, multiple: int, stabilizer_degree: Optional[int] = None) -> OrbitReport:
    """Report for the m-fold multiple of a curve: H is replaced by m*H, which
    multiplies every a_i by m^i.

    The stabilizer of the multiple need not match the original curve's,
    so the degree field is only populated when a stabilizer degree is
    passed explicitly.
    """
    if not isinstance(multiple, int) or multiple < 1:
        raise ValueError("scaling multiple must be a positive integer")
    powers = [multiple**i for i in range(TRUNCATION_ORDER)]
    a, den = _integers(report)
    breakdown = [
        (label, Correction(corr.kind, tuple([v * p for v, p in zip(corr.a, powers)]), corr.den))
        for label, corr in report.breakdown
    ]
    return _build_report([v * p for v, p in zip(a, powers)], den, breakdown, stabilizer_degree, report.erratum_notes)


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
    es = corrections._elementary_symmetric(line_mults, 5)
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
    chain = sing.gcd_chain()
    es = sing.essential
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


def _direct_top_coefficient(descriptor: model.CurveDescriptor) -> Fraction:
    """d^8 minus the direct per-feature top-coefficient contributions.

    Evaluated from closed-form integer expressions, independently of the
    series assembly; equals 8! times the H^8 coefficient of the
    adjusted predegree polynomial for every valid descriptor.
    """
    d = descriptor.degree
    total = F(d**8)
    for line in descriptor.linear:
        total -= _direct_line(d, line.mult, line.meets)
    for comp in descriptor.nonlinear:
        total -= _direct_nonlinear(d, comp.deg, comp.mult)
    for feature in descriptor.points:
        if isinstance(feature, model.FlexPoint):
            total -= _direct_side(d, 0, 1, feature.contact, 0, (1,))
        elif isinstance(feature, model.IrreduciblePoint):
            sing = feature.singularity
            total -= _direct_side(d, 0, sing.m, sing.n, 0, (gcd(sing.m, sing.n),))
            for trunc in irreducible_truncations(sing):
                total -= _direct_truncation(d, trunc)
        else:
            if feature.tangent_cone is not None:
                total -= _direct_tangent_cone(d, feature.tangent_cone.line_mults)
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
        raise ValidationError(violations)
    report = assemble(descriptor)
    if report.orbit_dimension < 8:
        raise EngineError(
            f"direct formula inapplicable: orbit dimension is {report.orbit_dimension}, not 8"
        )
    value = _direct_top_coefficient(descriptor)
    if value.denominator != 1:
        raise EngineError(f"direct route produced a non-integer value {value}")
    return int(value)


# ---------------------------------------------------------------------------
# closed form for curves whose special points are parametrized (t^m, t^n)
# ---------------------------------------------------------------------------


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
            raise EngineError(f"({m}, {n}) is not a coprime multiplicity/contact pair")
    remaining = 3 * d * (d - 2) - sum(3 * m * n - 2 * m - 2 * n for m, n in points)
    if remaining < 0:
        raise EngineError("absorbed flexes exceed the 3d(d-2) budget")
    weighted = [(4 * d * d, (1, -9, 48)), (3 * remaining, corrections.pair_jet(1, 3))]
    weighted += [(m * n, corrections.pair_jet(m, n)) for m, n in points]
    q0, q1, q2 = (sum(w * jet[i] for w, jet in weighted) for i in range(3))
    return d**8 - (q2 + 8 * d * q1 + 28 * d * d * q0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_obj(report: OrbitReport) -> dict:
    """JSON-ready form of a report, with all rationals as exact strings."""
    out: dict[str, object] = {
        "app": report.app.to_strings(),
        "predegree_polynomial": [rational_to_string(a) for a in report.predegree_polynomial],
        "orbit_dimension": report.orbit_dimension,
        "predegree": rational_to_string(report.predegree),
    }
    if report.degree is not None:
        out["degree"] = rational_to_string(report.degree)
    out["breakdown"] = [
        {"label": label, "kind": corr.kind, "term": predegree_strings(corr.a, corr.den)}
        for label, corr in report.breakdown
    ]
    if report.erratum_notes:
        out["erratum_notes"] = list(report.erratum_notes)
    return out


def report_to_text(report: OrbitReport) -> str:
    """Human-readable rendering of a report."""
    lines = [
        f"adjusted predegree polynomial: {report.app}",
        "predegree coefficients: "
        + ", ".join(
            f"a{i}={rational_to_string(a)}" for i, a in enumerate(report.predegree_polynomial)
        ),
        f"orbit dimension: {report.orbit_dimension}",
        f"predegree: {rational_to_string(report.predegree)}",
    ]
    if report.degree is not None:
        lines.append(f"orbit closure degree: {rational_to_string(report.degree)}")
    if report.breakdown:
        lines.append("contributions:")
        for label, corr in report.breakdown:
            lines.append(f"  {label} [{corr.kind}]: {corr.term}")
    for note in report.erratum_notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
