"""Assembly, unions, scaling, and the independent top-coefficient routes."""

import dataclasses
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbitdeg import corpus, corrections, engine, model
from orbitdeg import series as shipped
from orbitdeg.series import TRUNCATION_ORDER
from oracles import TruncSeries, exp_linear, factor, ring
from strategies import cusp_curves, descriptors, scaled_descriptor

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


LINE = model.CurveDescriptor(degree=1, linear=(model.LinearComponent(1, ()),), flexes=0)
CONIC = model.CurveDescriptor(degree=2, nonlinear=(model.NonlinearComponent(2, 1),), flexes=0)
CUSPIDAL_CUBIC = model.CurveDescriptor(
    degree=3,
    nonlinear=(model.NonlinearComponent(3, 1),),
    points=(model.IrreducibleSingularity(2, 3, (3,)),),
    flexes="auto",
    stabilizer_degree=3,
)


def test_conic_report():
    report = engine.assemble(CONIC)
    assert report.app == series({0: 1, 1: 2, 2: 2, 3: F(4, 3), 4: F(2, 3), 5: F(1, 15)})
    assert report.orbit_dimension == 5
    assert report.predegree == 8


def test_cuspidal_cubic_report():
    report = engine.assemble(CUSPIDAL_CUBIC)
    assert report.app == series(
        {0: 1, 1: 3, 2: F(9, 2), 3: F(9, 2), 4: F(27, 8), 5: F(69, 40), 6: F(3, 8), 7: F(1, 70)}
    )
    assert report.orbit_dimension == 7
    assert report.predegree == 72
    assert report.degree == 24


def test_smooth_quartic_predegree():
    report = engine.assemble(smooth_curve(4))
    assert report.predegree == 14280
    assert report.orbit_dimension == 8


def test_dimension_law_on_fixtures():
    descriptors = [CONIC, CUSPIDAL_CUBIC, smooth_curve(4), LINE] + fixture_descriptors()
    for descriptor in descriptors:
        report = engine.assemble(descriptor)
        assert report.predegree != 0
        coefficients = report.predegree_polynomial
        assert all(a == 0 for a in coefficients[report.orbit_dimension + 1 :])
        assert coefficients[report.orbit_dimension] > 0


def fixture_descriptors():
    out = []
    for path in corpus.fixture_paths(corpus.corpus_dir()):
        with open(path, encoding="utf-8") as fh:
            out.append(model.descriptor_from_obj(json.load(fh)["descriptor"]))
    return out


def product_form(descriptor, report, strict):
    """The paper's multiplicative formula exp(dH) * (1 + G) * prod(1 + L_i),
    with the automatic inflections as the factor of one inflection ** count."""
    global_sum = TruncSeries.zero()
    local_factors = []
    for label, corr in report.breakdown:
        if corr.kind in (corrections.KIND_LINE, corrections.KIND_NONLINEAR):
            global_sum = global_sum + corr.term
        elif label == "ordinary_flexes":
            count = model.resolved_flex_count(descriptor)
            local_factors.append(factor(corrections.flex_correction(1, printed=strict)) ** count)
        else:
            local_factors.append(ONE + corr.term)
    app = exp_linear(descriptor.degree) * (ONE + global_sum)
    for local in local_factors:
        app = app * local
    return app


def assert_sum_and_product_forms(descriptor, strict):
    """app = exp(dH) * (1 + sum of the breakdown terms), and the product form."""
    report = engine.assemble(descriptor, erratum_strict=strict)
    total = TruncSeries.zero()
    for _, corr in report.breakdown:
        total = total + corr.term
    assert report.app == exp_linear(descriptor.degree) * (ONE + total)
    assert report.app == product_form(descriptor, report, strict)


def test_breakdown_reassembles_additively():
    for descriptor in fixture_descriptors():
        # strict-mode predegrees need not be divisible by the stabilizer degree
        descriptor = dataclasses.replace(descriptor, stabilizer_degree=None)
        for strict in (False, True):
            assert_sum_and_product_forms(descriptor, strict)


UNION_COUNTS = st.fixed_dictionaries(
    {"crossings": st.integers(0, 4), "line_crossings": st.integers(0, 4), "tangencies": st.integers(0, 4)}
)
UNION_FACTORS = {
    "crossings": oracles.PAIR_CROSSING_FACTOR,
    "line_crossings": oracles.LINE_CROSSING_FACTOR,
    "tangencies": oracles.SIMPLE_TANGENCY_FACTOR,
}
UNION_OPERANDS = st.sampled_from(fixture_descriptors()[:6]) | descriptors()


@settings(max_examples=20)
@given(UNION_OPERANDS, UNION_OPERANDS, UNION_COUNTS)
def test_union_matches_product_form(left, right, counts):
    left, right = engine.assemble(left), engine.assemble(right)
    expected = ring(left.app) * right.app
    for name, count in counts.items():
        expected = expected * UNION_FACTORS[name] ** count
    assert engine.union(left, right, **counts).app == expected


@settings(max_examples=60)
@given(descriptors())
def test_app_equals_product_form_property(descriptor):
    for strict in (False, True):
        assert_sum_and_product_forms(descriptor, strict)
    # integrality: in derived mode only a truncation weight W brings in a
    # denominator, so with every W an integer the report's den is 1
    weights = [t.weight for p in descriptor.points if isinstance(p, model.CompositePoint) for t in p.truncations]
    if all(w.denominator == 1 for w in weights):
        assert engine.assemble(descriptor).den == 1


@settings(max_examples=60)
@given(descriptors(), st.booleans(), st.integers(1, 4))
def test_scale_multiplies_each_a_i_by_m_to_the_i(descriptor, strict, multiple):
    report = engine.assemble(descriptor, erratum_strict=strict)
    scaled = engine.scale(report, multiple)
    powers = [multiple**i for i in range(TRUNCATION_ORDER)]
    assert list(scaled.predegree_polynomial) == [p * a for p, a in zip(powers, report.predegree_polynomial)]
    assert [(label, corr.kind) for label, corr in scaled.breakdown] == [
        (label, corr.kind) for label, corr in report.breakdown
    ]
    for (_, corr), (_, scaled_corr) in zip(report.breakdown, scaled.breakdown):
        expected = [p * a for p, a in zip(powers, ring(corr.term).app_coefficients())]
        assert list(ring(scaled_corr.term).app_coefficients()) == expected


@settings(max_examples=60)
@given(descriptors(), descriptors(), descriptors(), st.booleans(), UNION_COUNTS, UNION_COUNTS)
def test_union_is_commutative_and_associative(first, second, third, strict, counts, more_counts):
    a, b, c = (engine.assemble(d, erratum_strict=strict) for d in (first, second, third))
    assert engine.union(a, b, **counts).app == engine.union(b, a, **counts).app
    left = engine.union(engine.union(a, b, **counts), c, **more_counts)
    right = engine.union(a, engine.union(b, c, **more_counts), **counts)
    assert left.app == right.app


def test_no_series_products_in_assembly_union_or_scale():
    # the shipped series is a read-only view with no arithmetic to call:
    # assembly, unions and scaling run on the integers a_0..a_8 alone
    ring_methods = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__", "__neg__")
    ring_methods += ("substitute_scaled", "antiderivative", "derivative", "app_coefficients")
    assert [name for name in ring_methods if hasattr(shipped.TruncSeries, name)] == []
    descriptors = fixture_descriptors()
    assert len(descriptors) == 24
    for descriptor in descriptors:
        report = engine.assemble(descriptor)
        union = engine.union(report, report, crossings=2, line_crossings=1, tangencies=3)
        assert union.den == report.den**2
        assert engine.scale(report, 3).orbit_dimension == report.orbit_dimension


def test_validation_error_raised():
    bad = model.CurveDescriptor(degree=3, nonlinear=(model.NonlinearComponent(2, 1),))
    with pytest.raises(engine.ValidationError):
        engine.assemble(bad)


def test_degree_requires_divisibility():
    descriptor = model.CurveDescriptor(
        degree=2, nonlinear=(model.NonlinearComponent(2, 1),), flexes=0, stabilizer_degree=3
    )
    with pytest.raises(engine.EngineError):
        engine.assemble(descriptor)


@pytest.mark.parametrize(
    "combine, message",
    [
        (lambda r: engine.union(r, r, crossings=-1), "intersection counts must be >= 0"),
        (lambda r: engine.union(r, r, line_crossings=-2), "intersection counts must be >= 0"),
        (lambda r: engine.union(r, r, tangencies=-1), "intersection counts must be >= 0"),
        (lambda r: engine.scale(r, 0), "scaling multiple must be a positive integer"),
        (lambda r: engine.scale(r, -3), "scaling multiple must be a positive integer"),
    ],
)
def test_union_and_scale_refuse_bad_counts(combine, message):
    with pytest.raises(engine.EngineError) as raised:
        combine(engine.assemble(CONIC))
    assert str(raised.value) == message


def test_union_conic_and_line():
    report = engine.union(
        engine.assemble(CONIC), engine.assemble(LINE), line_crossings=2, stabilizer_degree=4
    )
    assert report.app == series(
        {0: 1, 1: 3, 2: F(9, 2), 3: F(13, 3), 4: 3, 5: F(7, 5), 6: F(19, 60), 7: F(1, 60)}
    )
    assert report.orbit_dimension == 7
    assert report.degree == 21


def test_union_conic_and_tangent_line():
    report = engine.union(
        engine.assemble(CONIC), engine.assemble(LINE), tangencies=1, stabilizer_degree=4
    )
    assert report.orbit_dimension == 6
    assert report.degree == 42


def test_union_two_conics():
    conic = engine.assemble(CONIC)
    report = engine.union(conic, conic, crossings=4)
    assert report.app == series(
        {
            0: 1,
            1: 4,
            2: 8,
            3: F(32, 3),
            4: F(32, 3),
            5: F(122, 15),
            6: F(64, 15),
            7: F(41, 30),
            8: F(41, 240),
        }
    )
    assert report.predegree == 6888


def test_union_cubic_and_line():
    cubic = engine.assemble(smooth_curve(3))
    line = engine.assemble(LINE)
    assert engine.union(cubic, line, line_crossings=3).predegree == 8568


def test_union_matches_direct_descriptor():
    # the same curves assembled in one shot as plain descriptors
    def node_with_line(contact):
        return model.CompositePoint(
            tangent_cone=(1, 1),
            sides=(model.NewtonSide(1, 1, contact, 0, (1,)),),
        )

    conic_line = model.CurveDescriptor(
        degree=3,
        linear=(model.LinearComponent(1, (1, 1)),),
        nonlinear=(model.NonlinearComponent(2, 1),),
        points=(node_with_line(3), node_with_line(3)),
        flexes=0,
    )
    via_union = engine.union(engine.assemble(CONIC), engine.assemble(LINE), line_crossings=2)
    assert engine.assemble(conic_line).app == via_union.app

    two_conics = model.CurveDescriptor(
        degree=4,
        nonlinear=(model.NonlinearComponent(2, 1), model.NonlinearComponent(2, 1)),
        points=tuple(
            model.CompositePoint(
                tangent_cone=(1, 1),
                sides=(model.NewtonSide(1, 1, 3, 0, (1,)), model.NewtonSide(1, 1, 3, 0, (1,))),
            )
            for _ in range(4)
        ),
        flexes=0,
    )
    conic_report = engine.assemble(CONIC)
    assert engine.assemble(two_conics).app == engine.union(conic_report, conic_report, crossings=4).app


def test_scale_line_to_double_line():
    report = engine.scale(engine.assemble(LINE), 2)
    assert report.app == series({0: 1, 1: 2, 2: 2})
    assert report.orbit_dimension == 2


def test_scale_identity():
    report = engine.assemble(CONIC)
    assert engine.scale(report, 1).app == report.app


def test_scale_matches_double_conic_descriptor():
    doubled = model.CurveDescriptor(degree=4, nonlinear=(model.NonlinearComponent(2, 2),), flexes=0)
    assert engine.scale(engine.assemble(CONIC), 2).app == engine.assemble(doubled).app


@settings(max_examples=60)
@given(descriptors(scalable=True), st.integers(2, 4))
def test_scaling_law_random_descriptors(descriptor, multiple):
    # The m-fold multiple written as a descriptor (every multiplicity, meets
    # entry, cone line, side endpoint and root times m; inflections as
    # scaled sides) against engine.scale, in derived mode.  Irreducible
    # points have no descriptor-level multiple: m times a branch is not a
    # reduced branch, so the scalable strategy draws none.
    expected = engine.scale(engine.assemble(descriptor), multiple)
    direct = engine.assemble(scaled_descriptor(descriptor, multiple))
    assert engine.report_to_obj(direct)["app"] == engine.report_to_obj(expected)["app"]


def test_direct_route_fixture_values():
    assert oracles.predegree_direct(smooth_curve(4)) == 14280
    sextic = model.CurveDescriptor(
        degree=6,
        nonlinear=(model.NonlinearComponent(6, 1),),
        points=tuple(model.IrreducibleSingularity(2, 3, (3,)) for _ in range(9)),
        flexes="auto",
    )
    assert oracles.predegree_direct(sextic) == 908064


def test_direct_route_rejects_small_orbits():
    with pytest.raises(engine.EngineError):
        oracles.predegree_direct(CONIC)


@settings(max_examples=200)
@given(descriptors())
def test_direct_route_matches_assembly_random(descriptor):
    report = engine.assemble(descriptor)
    assert oracles._direct_top_coefficient(descriptor) == report.predegree_polynomial[8]


def test_closed_form_route():
    assert oracles.predegree_from_cusp_types(4, []) == 14280
    assert oracles.predegree_from_cusp_types(4, [(2, 3)]) == 10320
    assert oracles.predegree_from_cusp_types(6, [(2, 3)] * 9) == 908064
    for d in range(3, 8):
        assert oracles.predegree_from_cusp_types(d, []) == engine.assemble(smooth_curve(d)).predegree


@settings(max_examples=25)
@given(cusp_curves())
def test_closed_form_matches_assembly_on_cusp_curves(curve):
    d, points = curve
    features = tuple(
        model.IrreducibleSingularity(m, n, (n,) if n % m != 0 and m > 1 else ())
        for m, n in points
    )
    descriptor = model.CurveDescriptor(
        degree=d, nonlinear=(model.NonlinearComponent(d, 1),), points=features, flexes="auto"
    )
    # the closed form is a_8, which is the predegree only while the orbit
    # has dimension 8: a quartic with a (1, 4) and a (3, 4) point has a_8 = 0
    assert engine.assemble(descriptor).predegree_polynomial[8] == oracles.predegree_from_cusp_types(d, points)


def test_erratum_strict_changes_flex_dependent_values():
    default = engine.assemble(smooth_curve(4))
    strict = engine.assemble(smooth_curve(4), erratum_strict=True)
    assert default.predegree == 14280
    assert strict.predegree != 14280
    assert strict.erratum_notes
    assert not default.erratum_notes
    # a flexless curve is unaffected
    assert engine.assemble(CONIC, erratum_strict=True).app == engine.assemble(CONIC).app


def test_report_serialization_round_trip():
    report = engine.assemble(CUSPIDAL_CUBIC)
    obj = engine.report_to_obj(report)
    assert obj["predegree"] == "72"
    assert obj["degree"] == "24"
    assert obj["orbit_dimension"] == 7
    assert TruncSeries.from_strings(obj["app"]) == report.app
    assert obj["predegree_polynomial"][7] == "72"
    text = engine.report_to_text(report)
    assert "orbit dimension: 7" in text
    assert "predegree: 72" in text


# -- a report is its integers ------------------------------------------------------

REFUSED = "refused"


def numbers_from_fractions(a, den, stabilizer):
    """The reported numbers built the long way, in Fractions: the predegree
    coefficients, the orbit dimension, the predegree and the degree, which
    is None without a stabilizer degree and REFUSED when the stabilizer
    degree does not divide the predegree into a positive integer."""
    coefficients = tuple(F(v, den) for v in a)
    dimension = max((i for i, c in enumerate(coefficients) if c), default=0)
    predegree = coefficients[dimension]
    if stabilizer is None:
        return coefficients, dimension, predegree, None
    degree = predegree / stabilizer if stabilizer else F(0)
    return coefficients, dimension, predegree, degree if degree.denominator == 1 and degree > 0 else REFUSED


def assert_numbers_read_off_the_integers(report):
    coefficients, dimension, predegree, degree = numbers_from_fractions(report.a, report.den, report.stabilizer_degree)
    assert [type(c) for c in report.predegree_polynomial] == [F] * TRUNCATION_ORDER
    assert report.predegree_polynomial == coefficients
    assert type(report.orbit_dimension) is int and report.orbit_dimension == dimension
    assert type(report.predegree) is F and report.predegree == predegree
    assert report.degree == degree and type(report.degree) is type(degree)
    obj = engine.report_to_obj(report)
    assert obj["predegree_polynomial"] == [shipped.rational_to_string(c) for c in coefficients]
    assert (obj["orbit_dimension"], obj["predegree"]) == (dimension, shipped.rational_to_string(predegree))
    assert obj.get("degree") == (None if degree is None else shipped.rational_to_string(degree))


def assert_stabilizer_rule(build, stabilizer):
    """`build(s)` gives the report with stabilizer degree s: it is refused
    exactly when the degree, built the long way, is."""
    plain = build(None)
    assert_numbers_read_off_the_integers(plain)
    if numbers_from_fractions(plain.a, plain.den, stabilizer)[3] == REFUSED:
        with pytest.raises(engine.EngineError) as raised:
            build(stabilizer)
        assert str(raised.value) == (
            f"stabilizer degree {stabilizer} does not divide the predegree "
            f"{shipped.rational_to_string(plain.predegree)} into a positive integer"
        )
    else:
        assert_numbers_read_off_the_integers(build(stabilizer))


def test_report_keeps_only_what_it_was_built_from():
    fields = [field.name for field in dataclasses.fields(engine.OrbitReport)]
    assert fields == ["a", "den", "breakdown", "stabilizer_degree", "erratum_notes"]
    assert not hasattr(engine, "F") and not hasattr(engine, "_build_report")


def test_report_numbers_on_fixtures():
    for descriptor in fixture_descriptors():
        for strict in (False, True):
            assert_stabilizer_rule(
                lambda s: engine.assemble(dataclasses.replace(descriptor, stabilizer_degree=s), erratum_strict=strict),
                descriptor.stabilizer_degree,
            )


@settings(max_examples=60)
@given(descriptors(), descriptors(), st.booleans(), st.integers(1, 3), st.integers(-3, 8))
def test_report_numbers_on_unions_and_scales(first, second, strict, multiple, stabilizer):
    left, right = (engine.assemble(d, erratum_strict=strict) for d in (first, second))
    for build in (
        lambda s: engine.union(left, right, crossings=1, tangencies=1, stabilizer_degree=s),
        lambda s: engine.scale(left, multiple, stabilizer_degree=s),
    ):
        # a stabilizer degree drawn at random, and the predegree's integer part,
        # which divides an integral predegree into 1
        assert_stabilizer_rule(build, stabilizer)
        plain = build(None)
        assert_stabilizer_rule(build, plain.a[plain.orbit_dimension] // plain.den)


@pytest.mark.parametrize("stabilizer", [0, -2, 5])
def test_union_and_scale_refuse_a_stabilizer_that_does_not_divide(stabilizer):
    cubic = engine.assemble(dataclasses.replace(CUSPIDAL_CUBIC, stabilizer_degree=None))  # predegree 72
    for build in (
        lambda s: engine.union(cubic, cubic, crossings=9, stabilizer_degree=s),
        lambda s: engine.scale(cubic, 2, stabilizer_degree=s),
    ):
        plain = build(None)
        assert numbers_from_fractions(plain.a, plain.den, stabilizer)[3] == REFUSED
        assert_stabilizer_rule(build, stabilizer)
