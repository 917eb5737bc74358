"""Assembly of adjusted predegree polynomials and derived orbit data.

The adjusted predegree polynomial of a degree-d curve is one sum pushed
through exp(d*H): exp(d*H) * (1 + sum of the breakdown's terms).  Global
terms (lines, nonlinear components) have order >= 3 and local ones order
>= 6, so the cross terms of the paper's exp(d*H) * (1 + global) *
prod(1 + local) have order >= 9 and vanish in Q[H]/(H^9).

All of it runs in the predegree basis, where a series is the sum of
a_i * H^i / i! with integer a_i over one common denominator.  There a
product is the binomial convolution (f*g)_k = sum_j C(k, j) f_j g_{k-j},
exp(d*H) is (d^i), and replacing H by m*H multiplies a_i by m^i.

A report keeps the integers of the result and reads off them the
predegree coefficients a_i = i! * c_i, the orbit dimension (largest i
with a_i nonzero), the predegree a_dim, and, when a stabilizer degree is
supplied, the degree of the orbit closure itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Optional, Sequence

from . import corrections, model
from .corrections import Correction
from .series import TRUNCATION_ORDER, TruncSeries, predegree_strings, ratio_string


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
    the sum of a[i] * H^i / (i! * den).  Every number the report gives is
    read off them.  A stabilizer degree that does not divide the
    predegree into a positive integer is refused with EngineError.
    """

    a: tuple[int, ...]
    den: int
    breakdown: tuple[tuple[str, Correction], ...]
    stabilizer_degree: Optional[int] = None
    erratum_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        s, top = self.stabilizer_degree, self.a[self.orbit_dimension]
        if s is not None and (not s or top % (self.den * s) or top // (self.den * s) <= 0):
            raise EngineError(
                f"stabilizer degree {s} does not divide the predegree "
                f"{ratio_string(top, self.den)} into a positive integer"
            )

    @property
    def app(self) -> TruncSeries:
        """The adjusted predegree polynomial as a read-only series view."""
        return TruncSeries(self.a, self.den)

    @property
    def predegree_polynomial(self) -> tuple[Fraction, ...]:
        """The predegree coefficients a_0..a_8, exactly."""
        return tuple([Fraction(v, self.den) for v in self.a])

    @property
    def orbit_dimension(self) -> int:
        """The largest i with a_i nonzero (0 for the constant 1)."""
        return max([i for i, v in enumerate(self.a) if v], default=0)

    @property
    def predegree(self) -> Fraction:
        """a_dim, the predegree of the orbit closure."""
        return Fraction(self.a[self.orbit_dimension], self.den)

    @property
    def degree(self) -> Optional[Fraction]:
        """The degree of the orbit closure, when a stabilizer degree is given."""
        return None if self.stabilizer_degree is None else self.predegree / self.stabilizer_degree


def _convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two series in the predegree basis, truncated at H^9."""
    out = [0] * TRUNCATION_ORDER
    for j, y in enumerate(g):
        if y:
            for k in range(j, TRUNCATION_ORDER):
                out[k] += _BINOMIALS[k][j] * f[k - j] * y
    return out


def _feature_corrections(
    feature: model.PointFeature, index: int, erratum_strict: bool
) -> Iterator[tuple[str, Correction]]:
    label = feature.label if feature.label is not None else f"points[{index}]"
    if isinstance(feature, model.FlexPoint):
        if erratum_strict and feature.contact == 3:
            yield label, corrections.flex_correction(1, printed=True)
        else:
            single = corrections.irreducible_correction(model.IrreducibleSingularity(1, feature.contact))
            yield label, Correction(corrections.KIND_FLEX, single.a, single.den)
    elif isinstance(feature, model.IrreducibleSingularity):
        yield label, corrections.irreducible_correction(feature)
    else:
        if feature.tangent_cone is not None:
            yield f"{label}.tangent_cone", corrections.tangent_cone_correction(feature.tangent_cone)
        for i, side in enumerate(feature.sides):
            if not side.suppress:
                yield f"{label}.sides[{i}]", corrections.newton_side_correction(side)
        for i, trunc in enumerate(feature.truncations):
            yield f"{label}.truncations[{i}]", corrections.truncation_correction(trunc)


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
    # Tuples here, in `union` and in `scale` are built from lists: tuple() of a
    # generator allocates ten slots and then shrinks, and the shrunk tuples
    # collect in CPython's per-size free lists, so a long run's peak memory grows.
    return OrbitReport(tuple(app), den, tuple(breakdown), descriptor.stabilizer_degree, notes)


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
    return OrbitReport(tuple(app), left.den * right.den, tuple(breakdown), stabilizer_degree, notes)


def scale(report: OrbitReport, multiple: int, stabilizer_degree: Optional[int] = None) -> OrbitReport:
    """Report for the m-fold multiple of a curve: H is replaced by m*H, which
    multiplies every a_i by m^i.

    The stabilizer of the multiple need not match the original curve's,
    so the degree field is only populated when a stabilizer degree is
    passed explicitly.  A multiple below 1 is refused with EngineError.
    """
    if not isinstance(multiple, int) or multiple < 1:
        raise EngineError("scaling multiple must be a positive integer")
    powers = [multiple**i for i in range(TRUNCATION_ORDER)]
    breakdown = [
        (label, Correction(corr.kind, tuple([v * p for v, p in zip(corr.a, powers)]), corr.den))
        for label, corr in report.breakdown
    ]
    a = tuple([v * p for v, p in zip(report.a, powers)])
    return OrbitReport(a, report.den, tuple(breakdown), stabilizer_degree, report.erratum_notes)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_obj(report: OrbitReport) -> dict:
    """JSON-ready form of a report, with all rationals as exact strings."""
    dimension, den, s = report.orbit_dimension, report.den, report.stabilizer_degree
    out: dict[str, object] = {
        "app": predegree_strings(report.a, den),
        "predegree_polynomial": [ratio_string(v, den) for v in report.a],
        "orbit_dimension": dimension,
        "predegree": ratio_string(report.a[dimension], den),
    }
    if s is not None:
        # s divides a_dim: the report was refused unless den * s does
        out["degree"] = ratio_string(report.a[dimension] // s, den)
    out["breakdown"] = [
        {"label": label, "kind": corr.kind, "term": predegree_strings(corr.a, corr.den)}
        for label, corr in report.breakdown
    ]
    if report.erratum_notes:
        out["erratum_notes"] = list(report.erratum_notes)
    return out


def report_to_text(report: OrbitReport) -> str:
    """Human-readable rendering of a report, with the numbers of `report_to_obj`."""
    obj = report_to_obj(report)
    lines = [
        f"adjusted predegree polynomial: {report.app}",
        "predegree coefficients: " + ", ".join(f"a{i}={v}" for i, v in enumerate(obj["predegree_polynomial"])),
        f"orbit dimension: {obj['orbit_dimension']}",
        f"predegree: {obj['predegree']}",
    ]
    if "degree" in obj:
        lines.append(f"orbit closure degree: {obj['degree']}")
    if report.breakdown:
        lines.append("contributions:")
        for label, corr in report.breakdown:
            lines.append(f"  {label} [{corr.kind}]: {corr.term}")
    for note in report.erratum_notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
