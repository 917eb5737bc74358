"""Hypothesis strategies: the one source of random inputs for the tests.

Every test that needs a random input draws it from here, so a failing
property shrinks to a small case and reports how to reproduce it (the
settings profile in `conftest.py` prints the blob).  The shapes are kept
small: multiplicities of a few units, at most a few point features of
each kind, supports of at most a dozen terms.

- `rationals`, `ring_series` and `series_views`: coefficients, elements
  of the oracle ring Q[H]/(H^9), and the shipped read-only series views;
- `compositions`, `sides`, `truncations`, `irreducibles`, `composites`,
  `ordinary_multiple_points` and `descriptors`: structurally valid curve
  data, `multiple_point_curves`, descriptors with more ordinary multiple
  points and flexes that may be "auto", `scaled_descriptor`, the
  descriptor of the m-fold multiple of a drawn curve, and `unions`, two
  reduced curves with the descriptor of the curve they make together;
- `cusp_curves`: line-free curves whose special points are (t^m, t^n)
  points, for the closed-form predegree;
- `supports`: monomial supports for the Newton-polygon toolkit;
- `branch_curves`, `puiseux_curves` and `transverse_lines`: curves that
  are products of branches z = c y^e, z^q = c y^p or z = c y, whose
  polygon and root multiplicities are known, and `ordinary_branch_points`,
  such products that make the shorthand's ordinary multiple point;
- `planted_gcd_pairs`: integer polynomials with a common factor, for the
  squarefree step's gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

import oracles
import records
from orbitdeg import model, newton
from orbitdeg import series as shipped


def rationals(lo: int = -9, hi: int = 9) -> st.SearchStrategy[Fraction]:
    """num/den with lo <= num <= hi and 1 <= den <= 9, simplest first."""
    values = {Fraction(num, den) for num in range(lo, hi + 1) for den in range(1, 10)}
    return st.sampled_from(sorted(values, key=lambda q: (q.denominator, abs(q.numerator), q < 0)))


def ring_series() -> st.SearchStrategy[oracles.TruncSeries]:
    return st.builds(oracles.TruncSeries, st.lists(rationals(), min_size=9, max_size=9))


def series_views() -> st.SearchStrategy[shipped.TruncSeries]:
    return st.builds(shipped.TruncSeries, st.lists(st.integers(-99, 99), min_size=9, max_size=9), st.integers(1, 12))


@st.composite
def compositions(draw, total: int) -> tuple[int, ...]:
    """Positive integers summing to `total` (none for 0): bit c - 1 of one
    drawn mask puts a cut at c, so every composition is one draw away."""
    if total == 0:
        return ()
    mask = draw(st.integers(0, 2 ** (total - 1) - 1))
    bounds = [0] + [c for c in range(1, total) if mask >> (c - 1) & 1] + [total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def sides(draw) -> model.NewtonSide:
    drop = draw(st.integers(1, 4))
    run = drop + draw(st.integers(1, 5))
    j0 = draw(st.integers(0, 4))
    k1 = draw(st.integers(0, 3))
    return model.NewtonSide(j0, k1 + drop, j0 + run, k1, draw(compositions(gcd(run, drop))))


_WEIGHTS = rationals(1, 9)


@st.composite
def truncations(draw) -> model.Truncation:
    return model.Truncation(draw(st.integers(1, 3)), draw(_WEIGHTS), draw(compositions(draw(st.integers(1, 5)))))


@st.composite
def irreducibles(draw) -> model.IrreducibleSingularity:
    m = draw(st.integers(1, 4))
    if m == 1:
        return model.IrreducibleSingularity(1, draw(st.integers(2, 8)))
    n = draw(st.integers(m + 1, m + 6))
    essential: list[int] = []
    d = m
    if n % m:
        essential.append(n)
        d = gcd(d, n)
    last = n
    while d > 1:
        e = last + draw(st.integers(1, 4))
        while e % d == 0:
            e += 1
        essential.append(e)
        d = gcd(d, e)
        last = e
    return model.IrreducibleSingularity(m, n, tuple(essential))


def composites() -> st.SearchStrategy[model.CompositePoint]:
    cones = st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple)
    return st.builds(
        model.CompositePoint,
        tangent_cone=cones,
        sides=st.lists(sides(), max_size=2).map(tuple),
        truncations=st.lists(truncations(), max_size=2).map(tuple),
        absorbed_flexes=st.integers(0, 4),
    )


@st.composite
def ordinary_multiple_points(draw, max_m: int = 4, labels: bool = False) -> model.OrdinaryMultiplePoint:
    """An ordinary m-fold point, m in 2..max_m, with 0..m contacts in
    m+1..m+3, an absorbed-flex count that is None (the default count) or
    0..9, and, with labels=True, a label that may be None."""
    m = draw(st.integers(2, max_m))
    contacts = tuple(draw(st.lists(st.integers(m + 1, m + 3), max_size=m)))
    label = draw(st.none() | st.text(max_size=4)) if labels else None
    return model.OrdinaryMultiplePoint(m, contacts, draw(st.none() | st.integers(0, 9)), label)


# Built once: strategies built inside each draw doubled a descriptor's cost.
_SCALABLE_POINTS = st.builds(model.FlexPoint, st.integers(3, 6)) | composites() | ordinary_multiple_points()
_POINTS = _SCALABLE_POINTS | irreducibles()


@st.composite
def descriptors(draw, scalable: bool = False, reduced: bool = False) -> model.CurveDescriptor:
    """A valid descriptor with explicit flex count and no stabilizer degree.

    With scalable=True no irreducible features are drawn, so the curve
    stays expressible after taking multiples (see `scaled_descriptor`).
    With reduced=True every component has multiplicity 1.
    """
    mults = st.integers(1, 1 if reduced else 2)
    line_mults = draw(st.lists(mults, max_size=2))
    nonlinear = draw(st.lists(st.builds(model.NonlinearComponent, st.integers(2, 4), mults), max_size=2))
    if not line_mults and not nonlinear:
        nonlinear = [model.NonlinearComponent(draw(st.integers(2, 4)), 1)]
    degree = sum(line_mults) + sum(c.deg * c.mult for c in nonlinear)
    linear = tuple(model.LinearComponent(m, draw(compositions(degree - m))) for m in line_mults)
    points = draw(st.lists(_SCALABLE_POINTS if scalable else _POINTS, max_size=3))
    return model.CurveDescriptor(
        degree=degree,
        linear=linear,
        nonlinear=tuple(nonlinear),
        points=tuple(points),
        flexes=draw(st.integers(0, 5)),
    )


@st.composite
def multiple_point_curves(draw) -> model.CurveDescriptor:
    """A drawn descriptor, or a curve of one nonlinear component of degree
    3..8 with up to two drawn points, with one to three ordinary multiple
    points more (m in 2..6, some labelled) among its points and flexes an
    integer or "auto".  The result need not be valid: "auto" asks for one
    reduced nonlinear component, and the points' absorbed inflections may
    exceed its budget."""
    if draw(st.booleans()):
        base = draw(descriptors())
    else:
        d = draw(st.integers(3, 8))
        points = tuple(draw(st.lists(_POINTS, max_size=2)))
        base = model.CurveDescriptor(d, nonlinear=(model.NonlinearComponent(d),), points=points)
    points = base.points + tuple(draw(st.lists(ordinary_multiple_points(6, labels=True), min_size=1, max_size=3)))
    points = tuple(draw(st.permutations(points)))
    flexes = draw(st.sampled_from([base.flexes, model.AUTO_FLEXES]))
    return model.CurveDescriptor(base.degree, None, flexes, base.linear, base.nonlinear, points)


#: The union's point where two nonlinear branches cross, where a line
#: crosses a nonlinear branch, where two lines cross, and where a line
#: touches a nonlinear branch simply, as in the `conic-tangent-line` fixture.
_NODE = model.OrdinaryMultiplePoint(2, (3, 3))
_LINE_NODE = model.OrdinaryMultiplePoint(2, (3,))
_LINES_NODE = model.OrdinaryMultiplePoint(2, ())
_TANGENCY = model.CompositePoint((2,), (model.NewtonSide(0, 2, 2, 1, (1,)),))


@st.composite
def unions(draw) -> tuple[model.CurveDescriptor, model.CurveDescriptor, dict, model.CurveDescriptor]:
    """(left, right, counts, union): two reduced curves, which ask for
    automatic flexes where they may, the intersection counts of
    `engine.union`, and the union's own descriptor.

    Each pair of components meets as Bezout says: two lines once, two
    nonlinear components of degrees e and f in e*f crossings, and a line
    and a nonlinear component of degree e in e points, t of them simple
    tangencies and e - 2t crossings.  So d1*d2 = crossings + line_crossings
    + 2*tangencies + the line-line crossings.  The union concatenates the
    components, adds a point per intersection, extends each line's `meets`
    by the points where it meets the other curve, and counts the flexes of
    both curves, resolved first.
    """
    curves = []
    for _ in range(2):
        curve = draw(descriptors(reduced=True))
        auto = records.replace(curve, flexes=model.AUTO_FLEXES)
        curves.append(auto if not model.validate(auto) and draw(st.booleans()) else curve)
    left, right = curves
    counts = {"crossings": 0, "line_crossings": 0, "tangencies": 0}
    meets = [[list(line.meets) for line in curve.linear] for curve in curves]
    points = list(left.points + right.points)
    for i in range(len(left.linear)):
        for j in range(len(right.linear)):
            meets[0][i].append(1)
            meets[1][j].append(1)
            points.append(_LINES_NODE)
    for side, other in ((0, right), (1, left)):
        for line_meets in meets[side]:
            for comp in other.nonlinear:
                tangencies = draw(st.integers(0, comp.deg // 2))
                crossings = comp.deg - 2 * tangencies
                line_meets += [2] * tangencies + [1] * crossings
                points += [_TANGENCY] * tangencies + [_LINE_NODE] * crossings
                counts["tangencies"] += tangencies
                counts["line_crossings"] += crossings
    for a in left.nonlinear:
        for b in right.nonlinear:
            counts["crossings"] += a.deg * b.deg
            points += [_NODE] * (a.deg * b.deg)
    linear = tuple(model.LinearComponent(1, tuple(m)) for m in meets[0] + meets[1])
    union = model.CurveDescriptor(
        left.degree + right.degree,
        flexes=model.resolved_flex_count(left) + model.resolved_flex_count(right),
        linear=linear,
        nonlinear=left.nonlinear + right.nonlinear,
        points=tuple(points),
    )
    return left, right, counts, union


def scaled_descriptor(descriptor: model.CurveDescriptor, multiple: int) -> model.CurveDescriptor:
    """The descriptor of the m-fold multiple of a curve.

    Component multiplicities, intersection multiplicities, tangent-cone
    multiplicities, side vertices and root data, and truncation weights
    all scale by m; explicit inflections become scaled polygon sides, and
    an ordinary multiple point is first expanded into its composite point.
    Irreducible features are not supported (the multiple is not reduced).
    """
    linear = tuple(
        model.LinearComponent(c.mult * multiple, tuple(r * multiple for r in c.meets))
        for c in descriptor.linear
    )
    nonlinear = tuple(
        model.NonlinearComponent(c.deg, c.mult * multiple) for c in descriptor.nonlinear
    )
    points: list[model.PointFeature] = []
    for feature in oracles.expanded(descriptor).points:
        if isinstance(feature, model.FlexPoint):
            side = model.NewtonSide(0, multiple, feature.contact * multiple, 0, (multiple,))
            points.append(model.CompositePoint(sides=(side,)))
        elif isinstance(feature, model.IrreducibleSingularity):
            raise ValueError("irreducible features cannot be scaled at the descriptor level")
        else:
            cone = None
            if feature.tangent_cone is not None:
                cone = tuple(v * multiple for v in feature.tangent_cone)
            sides = tuple(
                model.NewtonSide(
                    s.j0 * multiple,
                    s.k0 * multiple,
                    s.j1 * multiple,
                    s.k1 * multiple,
                    tuple(v * multiple for v in s.s),
                    s.suppress,
                )
                for s in feature.sides
            )
            truncations = tuple(
                model.Truncation(t.ell, t.weight * multiple, tuple(v * multiple for v in t.s))
                for t in feature.truncations
            )
            points.append(model.CompositePoint(cone, sides, truncations, feature.absorbed_flexes))
    count = model.resolved_flex_count(descriptor)
    for _ in range(count):
        side = model.NewtonSide(0, multiple, 3 * multiple, 0, (multiple,))
        points.append(model.CompositePoint(sides=(side,)))
    return model.CurveDescriptor(
        degree=descriptor.degree * multiple,
        linear=linear,
        nonlinear=nonlinear,
        points=tuple(points),
        flexes=0,
    )


#: (m, n) with gcd 1, each the type of a (t^m, t^n) point.
_CUSP_TYPES = ((1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (2, 7), (3, 5))


@st.composite
def cusp_curves(draw) -> tuple[int, list[tuple[int, int]]]:
    """A degree d in 4..8 and up to three (m, n) point types with m < d
    whose absorbed inflections 3mn - 2m - 2n fit the 3d(d-2) budget."""
    degree = draw(st.integers(4, 8))
    budget = 3 * degree * (degree - 2)
    points = []
    for m, n in draw(st.lists(st.sampled_from(_CUSP_TYPES), max_size=3)):
        cost = 3 * m * n - 2 * m - 2 * n
        if m < degree and cost <= budget:
            points.append((m, n))
            budget -= cost
    return degree, points


_COEFFICIENTS = rationals().filter(bool)


@st.composite
def supports(draw, min_terms: int = 1) -> newton.MonomialSupport:
    """A degree-18 support of min_terms..12 distinct terms with exponents
    j, k in 0..9 (cell c is (j, k) = divmod(c, 10)) and nonzero rational
    coefficients."""
    cells = draw(st.lists(st.integers(0, 99), min_size=min_terms, max_size=12, unique=True))
    return newton.MonomialSupport.from_terms(18, [(*divmod(c, 10), draw(_COEFFICIENTS)) for c in cells])


_BRANCH_COEFFICIENTS = st.sampled_from((1, -1, 2, -2, 3))


@st.composite
def branch_curves(draw) -> list[tuple[int, int]]:
    """1..6 branches z = c y^e as pairs (c, e), with c in {1, -1, 2, -2, 3}
    and e in 2..5."""
    return draw(st.lists(st.tuples(_BRANCH_COEFFICIENTS, st.integers(2, 5)), min_size=1, max_size=6))


@st.composite
def puiseux_curves(draw) -> tuple[int, int, list[int]]:
    """(p, q, cs): 1..4 branches z^q = c y^p, one per c in cs, with c in
    {1, -1, 2, -2, 3}, q in 2..4 and p in q+1..9 coprime to q."""
    q = draw(st.integers(2, 4))
    p = draw(st.integers(q + 1, 9).filter(lambda p: gcd(p, q) == 1))
    return p, q, draw(st.lists(_BRANCH_COEFFICIENTS, min_size=1, max_size=4))


def transverse_lines() -> st.SearchStrategy[list[int]]:
    """The slopes c of 1..5 lines z = c y, each in {1, -1, 2, -2, 3}."""
    return st.lists(_BRANCH_COEFFICIENTS, min_size=1, max_size=5)


@st.composite
def ordinary_branch_points(draw) -> tuple[int, int, list[int]]:
    """(m, r, cs): the branch z = y^(r-m+1) and the m - 1 lines z = c y,
    one per c in cs, which make an ordinary m-fold point with one
    nonlinear branch of contact r; m in 2..6, r in m+1..m+7 and distinct
    c in {1, -1, 2, -2, 3}."""
    m = draw(st.integers(2, 6))
    r = draw(st.integers(m + 1, m + 7))
    return m, r, draw(st.lists(_BRANCH_COEFFICIENTS, min_size=m - 1, max_size=m - 1, unique=True))


_BIG = st.integers(-(2**100), 2**100)


def _int_polys(min_size: int) -> st.SearchStrategy[list[int]]:
    return st.lists(_BIG, min_size=min_size, max_size=4).filter(lambda p: not p or p[-1])


@st.composite
def planted_gcd_pairs(draw) -> tuple[list[int], list[int]]:
    """Integer polynomials a = g u and b = g v (constant term first, no
    trailing zeros) for drawn g, u and v of degree up to 3 with
    coefficients of up to 100 bits.  u or v may be zero; in about one pair
    in five one side is replaced by zero or a nonzero constant."""
    common = draw(_int_polys(1))
    a, b = ([int(c) for c in oracles.poly_mul(common, draw(_int_polys(0)))] for _ in range(2))
    if draw(st.integers(0, 4)) == 0:
        a = draw(st.lists(_BIG.filter(bool), max_size=1))
    return (a, b) if draw(st.booleans()) else (b, a)
