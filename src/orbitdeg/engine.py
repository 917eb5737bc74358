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
report's rationals are built once, from the result.

From the polynomial the report reads off the predegree coefficients
a_i = i! * c_i, the orbit dimension (largest i with a_i nonzero), the
predegree a_dim, and, when a stabilizer degree is supplied, the degree
of the orbit closure itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from . import corrections, model
from .corrections import Correction
from .series import TRUNCATION_ORDER, TruncSeries, predegree_strings, rational_to_string

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
    """Everything the computation yields for one curve.

    `a` and `den` are the integers the polynomial was built from: it is
    the sum of a[i] * H^i / (i! * den).
    """

    a: tuple[int, ...]
    den: int
    predegree_polynomial: tuple[Fraction, ...]
    orbit_dimension: int
    predegree: Fraction
    degree: Optional[Fraction]
    breakdown: tuple[tuple[str, Correction], ...]
    erratum_notes: tuple[str, ...] = ()

    @property
    def app(self) -> TruncSeries:
        """The adjusted predegree polynomial as a read-only series view."""
        return TruncSeries(self.a, self.den)


def _convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two series in the predegree basis, truncated at H^9."""
    out = [0] * TRUNCATION_ORDER
    for j, y in enumerate(g):
        if y:
            for k in range(j, TRUNCATION_ORDER):
                out[k] += _BINOMIALS[k][j] * f[k - j] * y
    return out


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
        a=tuple(a),
        den=den,
        predegree_polynomial=coefficients,
        orbit_dimension=dimension,
        predegree=predegree,
        degree=degree,
        breakdown=tuple(breakdown),
        erratum_notes=erratum_notes,
    )


def _feature_corrections(
    feature: model.PointFeature, index: int, erratum_strict: bool
) -> list[tuple[str, Correction]]:
    label = feature.label if feature.label is not None else f"points[{index}]"
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
    app = _convolve(_convolve(left.a, right.a), meeting)
    notes = tuple(dict.fromkeys(left.erratum_notes + right.erratum_notes))
    return _build_report(app, left.den * right.den, breakdown, stabilizer_degree, notes)


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
    breakdown = [
        (label, Correction(corr.kind, tuple([v * p for v, p in zip(corr.a, powers)]), corr.den))
        for label, corr in report.breakdown
    ]
    a = [v * p for v, p in zip(report.a, powers)]
    return _build_report(a, report.den, breakdown, stabilizer_degree, report.erratum_notes)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_obj(report: OrbitReport) -> dict:
    """JSON-ready form of a report, with all rationals as exact strings."""
    out: dict[str, object] = {
        "app": predegree_strings(report.a, report.den),
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
