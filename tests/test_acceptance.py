"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a `criterion N PASS` line once its assertions hold, so
running `pytest tests/test_acceptance.py -s` gives a one-line-per-criterion
transcript.  There are no tolerances anywhere: all values are rational
and compared for equality.
"""

import json
from fractions import Fraction as F

import oracles
from orbitdeg import corpus, corrections, engine, model, newton
from oracles import TruncSeries, exp_linear
from test_newton import QUARTIC_TERMS

ONE = TruncSeries.one()


def series(terms):
    return TruncSeries.from_terms(terms)


def smooth_curve(degree, stabilizer=None):
    return model.CurveDescriptor(
        degree=degree,
        nonlinear=(model.NonlinearComponent(degree, 1),),
        flexes="auto",
        stabilizer_degree=stabilizer,
    )


def cusp():
    return model.IrreduciblePoint(model.IrreducibleSingularity(2, 3, (3,)))


def node():
    return model.CompositePoint(
        tangent_cone=model.TangentCone((1, 1)),
        sides=(model.NewtonSide(1, 1, 3, 0, (1,)), model.NewtonSide(1, 1, 3, 0, (1,))),
        absorbed_flexes=6,
    )


def with_points(degree, points, flexes="auto", stabilizer=None):
    return model.CurveDescriptor(
        degree=degree,
        nonlinear=(model.NonlinearComponent(degree, 1),),
        points=tuple(points),
        flexes=flexes,
        stabilizer_degree=stabilizer,
    )


def test_criterion_1_smooth_family():
    for d in range(3, 10):
        got = engine.assemble(smooth_curve(d)).predegree_polynomial
        expected = (
            1,
            d,
            d**2,
            d**3,
            d**4,
            d**5 - 12 * d,
            d**6 - 97 * d**2 + 162 * d,
            d**7 - 427 * d**3 + 1566 * d**2 - 1488 * d,
            d**8 - 1372 * d**4 + 7992 * d**3 - 15879 * d**2 + 10638 * d,
        )
        assert got == tuple(F(a) for a in expected), d
    conic = engine.assemble(smooth_curve(2)).app
    assert conic == series(
        {0: 1, 1: 2, 2: F(4, 2), 3: F(8, 6), 4: F(16, 24), 5: F(8, 120)}
    )
    print("criterion  1 PASS — smooth-family coefficients for d=2..9")


def test_criterion_2_nodal_quartics_and_rational_nodal():
    for n in range(4):
        descriptor = with_points(4, [node()] * n)
        assert engine.assemble(descriptor).predegree == 14280 - 1848 * n, n
    for d in range(3, 8):
        n = (d - 1) * (d - 2) // 2
        descriptor = with_points(d, [node()] * n)
        expected = d**8 - 1792 * d**4 + 11340 * d**3 - 25539 * d**2 + 22482 * d - 5112
        assert engine.assemble(descriptor).predegree == expected, d
    print("criterion  2 PASS — nodal quartics and rational nodal curves")


def test_criterion_3_biflecnode_quartic():
    biflecnode = model.CompositePoint(
        tangent_cone=model.TangentCone((1, 1)),
        sides=(model.NewtonSide(1, 1, 4, 0, (1,)), model.NewtonSide(1, 1, 4, 0, (1,))),
        absorbed_flexes=8,
    )
    report = engine.assemble(with_points(4, [biflecnode] * 3, stabilizer=24))
    assert report.predegree == 14280 - 3 * 2904
    assert report.degree == 232  # the rank-2 bundle moduli / instanton count
    print("criterion  3 PASS — biflecnode quartic predegree and degree 232")


def test_criterion_4_cusps():
    for d in range(3, 7):
        # compare the top coefficient itself: for d = 3 the orbit drops
        # dimension and the corrected value is 216 - 216 = 0
        plain = engine.assemble(smooth_curve(d)).predegree_polynomial[8]
        with_cusp = engine.assemble(with_points(d, [cusp()])).predegree_polynomial[8]
        assert plain - with_cusp == 72 * (28 * d**2 - 144 * d + 183), d
    cubic = engine.assemble(with_points(3, [cusp()], stabilizer=3))
    assert cubic.app.coeffs[6] == F(3, 8)
    assert cubic.app.coeffs[7] == F(1, 70)
    assert cubic.app.coeffs[8] == 0
    assert cubic.orbit_dimension == 7
    assert cubic.degree == 24
    tricuspidal = engine.assemble(with_points(4, [cusp()] * 3, stabilizer=6))
    assert tricuspidal.degree == 400
    sextic = engine.assemble(with_points(6, [cusp()] * 9, stabilizer=18))
    assert sextic.predegree == 908064
    assert sextic.degree == F(908064, 18) == 50448
    print("criterion  4 PASS — cusp corrections, cuspidal cubic, sextic 908064/50448")


def test_criterion_5_unions():
    line = engine.assemble(
        model.CurveDescriptor(degree=1, linear=(model.LinearComponent(1, ()),), flexes=0)
    )
    conic = engine.assemble(
        model.CurveDescriptor(degree=2, nonlinear=(model.NonlinearComponent(2, 1),), flexes=0)
    )
    conic_line = engine.union(conic, line, line_crossings=2, stabilizer_degree=4)
    assert (conic_line.orbit_dimension, conic_line.degree) == (7, 21)
    tangent = engine.union(conic, line, tangencies=1, stabilizer_degree=4)
    assert (tangent.orbit_dimension, tangent.degree) == (6, 42)
    assert engine.union(conic, conic, crossings=4).predegree == 6888
    cubic = engine.assemble(smooth_curve(3))
    assert engine.union(cubic, line, line_crossings=3).predegree == 8568
    through_flex = model.CurveDescriptor(
        degree=4,
        linear=(model.LinearComponent(1, (1, 1, 1)),),
        nonlinear=(model.NonlinearComponent(3, 1),),
        points=(
            model.CompositePoint(
                tangent_cone=model.TangentCone((1, 1)),
                sides=(model.NewtonSide(1, 1, 3, 0, (1,)),),
            ),
            model.CompositePoint(
                tangent_cone=model.TangentCone((1, 1)),
                sides=(model.NewtonSide(1, 1, 3, 0, (1,)),),
            ),
            model.CompositePoint(
                tangent_cone=model.TangentCone((1, 1)),
                sides=(model.NewtonSide(1, 1, 4, 0, (1,)),),
            ),
        ),
        flexes=8,
    )
    assert engine.assemble(through_flex).predegree == 8040
    print("criterion  5 PASS — unions: 21, 42, 6888, 8568, 8040")


def test_criterion_6_higher_unibranch_points():
    for k in (5, 7):
        descriptor = with_points(
            4, [model.IrreduciblePoint(model.IrreducibleSingularity(2, 4, (k,)))]
        )
        assert engine.assemble(descriptor).predegree == 14280 - 1785 * k, k
    piece = corrections.truncation_correction(model.Truncation(1, F(5), (1, 1))).term
    assert (exp_linear(4) * piece).app_coefficient(8) == -5 * 6528
    print("criterion  6 PASS — unibranch (2,4)+(2,k) corrections -1785k, -5*6528 piece")


def test_criterion_7_line_configurations():
    for d in range(3, 7):
        star = model.CurveDescriptor(
            degree=d,
            linear=tuple(model.LinearComponent(1, (d - 1,)) for _ in range(d)),
            points=(model.CompositePoint(tangent_cone=model.TangentCone((1,) * d)),),
            flexes=0,
        )
        full_power = series({0: 1, 1: 1, 2: F(1, 2)}) ** d
        expected = TruncSeries(full_power.coeffs[:6])
        assert engine.assemble(star).app == expected, d
    for mults in ((1, 1), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1)):
        descriptor = model.CurveDescriptor(
            degree=sum(mults),
            linear=tuple(
                model.LinearComponent(m, tuple(o for j, o in enumerate(mults) if j != i))
                for i, m in enumerate(mults)
            ),
            flexes=0,
        )
        expected = ONE
        for m in mults:
            expected = expected * series({0: 1, 1: m, 2: F(m * m, 2)})
        assert engine.assemble(descriptor).app == expected, mults
    print("criterion  7 PASS — concurrent and transversal line configurations")


def test_criterion_8_oracle_equivalences():
    # The other oracle routes are checked once, in the module suites: on
    # drawn inputs the direct route and descriptor-level scaling in
    # test_engine, the line antiderivative and the quadratic route in
    # test_corrections, which also has unibranch = side for k = 2..10.
    # direct top-coefficient route vs series assembly on the fixtures
    dim8 = 0
    for path in corpus.fixture_paths(corpus.corpus_dir()):
        with open(path, encoding="utf-8") as fh:
            descriptor = model.descriptor_from_obj(json.load(fh)["descriptor"])
        report = engine.assemble(descriptor)
        if report.orbit_dimension == 8:
            assert oracles.predegree_direct(descriptor) == report.predegree
            dim8 += 1
    assert dim8 >= 10

    # closed form for curves with only (t^m, t^n) points
    for d, points in ((4, []), (4, [(2, 3)]), (5, [(2, 3), (1, 4)]), (6, [(2, 3)] * 9), (5, [(3, 4)])):
        features = tuple(
            model.IrreduciblePoint(
                model.IrreducibleSingularity(m, n, (n,) if m > 1 else ())
            )
            for m, n in points
        )
        report = engine.assemble(with_points(d, features))
        assert report.predegree == oracles.predegree_from_cusp_types(d, points), (d, points)
    print("criterion  8 PASS — direct route on the dimension-8 fixtures, closed forms for cusp-type curves")


def test_criterion_9_newton_toolkit():
    # the hull against a reference on drawn supports is
    # test_newton::test_hull_against_reference
    support = newton.MonomialSupport.from_terms(4, QUARTIC_TERMS)
    polygon = newton.newton_polygon(support)
    [side] = newton.qualifying_sides(polygon)
    assert side == ((0, 2), (4, 0))
    data = newton.side_data(support, side)
    assert data.span == 2
    assert data.profile == ((2, 1),)
    assert newton.local_invariants(support) == (2, 4)

    # end-to-end: polygon side + the known truncation reproduce -1785k at k = 5
    feature = model.CompositePoint(
        tangent_cone=model.TangentCone((2,)),
        sides=(data.as_newton_side(),),
        truncations=(model.Truncation(1, F(5), (1, 1)),),
        absorbed_flexes=15,
    )
    report = engine.assemble(with_points(4, [feature]))
    assert report.predegree == 14280 - 1785 * 5
    print("criterion  9 PASS — quartic polygon, side data, invariants and end-to-end pipeline")


def test_criterion_10_erratum_demonstration():
    default_results = {r.name: r for r in corpus.run()}
    assert all(r.passed for r in default_results.values())
    strict_results = {r.name: r for r in corpus.run(erratum_strict=True)}
    nodal = strict_results["nodal-quartic"]
    assert not nodal.passed
    assert any("predegree" in failure for failure in nodal.failures)
    print("criterion 10 PASS — printed inflection coefficient reproducibly breaks goldens")
