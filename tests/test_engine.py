"""Assembly, unions, scaling, and the independent top-coefficient routes."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import records
from orbitdeg import corpus, corrections, engine, model
from orbitdeg import series as shipped
from orbitdeg.series import TRUNCATION_ORDER
from oracles import TruncSeries, exp_linear, factor, ring
from strategies import cusp_curves, descriptors, multiple_point_curves, scaled_descriptor, unions

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


def k_fold_line(k):
    return model.CurveDescriptor(k, linear=(model.LinearComponent(k),))


def k_fold_conic(k):
    return model.CurveDescriptor(2 * k, nonlinear=(model.NonlinearComponent(2, k),))


def star_of_lines(k):
    """k lines through one point, which has k reduced tangent-cone lines."""
    lines = (model.LinearComponent(1, (k - 1,)),) * k
    return model.CurveDescriptor(k, linear=lines, points=(model.CompositePoint((1,) * k),))


def conic_with_tangent_lines(k):
    """A smooth conic and k of its tangent lines in general position: each
    line touches the conic once and crosses the other k - 1 lines."""
    lines = (model.LinearComponent(1, (2,) + (1,) * (k - 1)),) * k
    tangency = model.CompositePoint((2,), (model.NewtonSide(0, 2, 2, 1, (1,)),))
    crossings = (model.CompositePoint((1, 1)),) * (k * (k - 1) // 2)
    return model.CurveDescriptor(
        k + 2, linear=lines, nonlinear=(model.NonlinearComponent(2),), points=(tangency,) * k + crossings
    )


TRIANGLE = model.CurveDescriptor(3, linear=(model.LinearComponent(1, (1, 1)),) * 3)
CONIC_AND_SECANT = model.CurveDescriptor(
    3,
    linear=(model.LinearComponent(1, (1, 1)),),
    nonlinear=(model.NonlinearComponent(2),),
    points=(model.OrdinaryMultiplePoint(2, (3,)),) * 2,
)

#: Families whose orbit has dimension below dim PGL(3) = 8 (or reaches 8
#: as the family grows): the curve for a parameter k, the values of k
#: checked, the dimension of the curve's stabilizer in PGL(3) worked out by
#: hand, and the predegree where it is known by hand (None elsewhere).
SMALL_ORBITS = {
    # the stabilizer of a line is that of a point of the dual plane; the
    # orbit closure of the k-th power of a line is the k-th Veronese surface
    "k-fold line": (k_fold_line, (1, 2, 3, 5), lambda k: 6, lambda k: k**2),
    # a smooth conic is fixed by PGL(2); the orbit closure of the k-th power
    # of the conic is the k-th Veronese image of the 5-space of conics
    "k-fold conic": (k_fold_conic, (1, 2, 3), lambda k: 3, lambda k: 8 * k**5),
    # the common point (6 dimensions), then PGL(2) on the pencil of lines
    # through it fixing k >= 3 of them
    "star of k lines": (star_of_lines, (3, 5, 6, 10), lambda k: 3, None),
    # PGL(2) of the conic fixing the k points of tangency
    "conic with k tangent lines": (conic_with_tangent_lines, (1, 2, 3, 4, 5), lambda k: max(3 - k, 0), None),
    # the diagonal torus of the three vertices
    "triangle": (lambda k: TRIANGLE, (1,), lambda k: 2, None),
    # PGL(2) of the conic fixing the two points on the line
    "conic and a secant line": (lambda k: CONIC_AND_SECANT, (1,), lambda k: 1, None),
}


@pytest.mark.parametrize("family", SMALL_ORBITS)
def test_orbit_dimension_is_eight_minus_the_stabilizer(family):
    build, ks, stabilizer_dimension, predegree = SMALL_ORBITS[family]
    for k in ks:
        report = engine.assemble(build(k))
        assert report.orbit_dimension == 8 - stabilizer_dimension(k), k
        if predegree is not None:
            assert report.predegree == predegree(k), k


def test_star_of_lines_predegree():
    """A regression test: the predegree of k concurrent lines is
    k(k-1)(k-2)(k^2 + 3k - 3).  The first three factors are recalled, not
    checked here, as the predegree of k distinct points of P^1 under PGL(2)
    (Aluffi-Faber, "Linear orbits of d-tuples of points in P^1", 1993);
    k^2 + 3k - 3 is only a fit to this tool's own output."""
    for k in (3, 4, 5, 6, 10, 17):
        assert engine.assemble(star_of_lines(k)).predegree == k * (k - 1) * (k - 2) * (k * k + 3 * k - 3)


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
        descriptor = records.replace(descriptor, stabilizer_degree=None)
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


#: What a field asks for, by its annotation, and what an entry of its tuple
#: asks for, in the wording of the records' type errors.
_ASKS = {
    "int": ("an integer", None),
    "bool": ("a boolean", None),
    "Fraction": ("a Fraction or an integer", None),
    "Optional[int]": ("an integer", None),
    "Optional[str]": ("a string", None),
    "Union[int, str]": ("an integer or a string", None),
    "tuple[int, ...]": ("a tuple of integers", "an integer"),
    "Optional[tuple[int, ...]]": ("a tuple of integers", "an integer"),
    "tuple[LinearComponent, ...]": ("a tuple of LinearComponent records", "a LinearComponent record"),
    "tuple[NonlinearComponent, ...]": ("a tuple of NonlinearComponent records", "a NonlinearComponent record"),
    "tuple[NewtonSide, ...]": ("a tuple of NewtonSide records", "a NewtonSide record"),
    "tuple[Truncation, ...]": ("a tuple of Truncation records", "a Truncation record"),
    "tuple[PointFeature, ...]": (
        "a tuple of point records",
        "a FlexPoint or IrreducibleSingularity or CompositePoint or OrdinaryMultiplePoint record",
    ),
}


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"stabilizer_degree": "2"}, "stabilizer_degree"),
        ({"degree": 2.0}, "degree"),
        ({"degree": True, "nonlinear": (), "linear": (model.LinearComponent(1, ()),)}, "degree"),
        ({"flexes": True}, "flexes"),
    ],
)
def test_validation_refuses_wrongly_typed_scalars(fields, path):
    # a bool is an int to Python, and a float or a string compares badly with one
    what = _ASKS[model.CurveDescriptor.__annotations__[path]][0]
    with pytest.raises(model.DescriptorSchemaError) as excinfo:
        model.CurveDescriptor(**{"degree": 2, "nonlinear": (model.NonlinearComponent(2, 1),), **fields})
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: expected {what}, got {type(fields[path]).__name__}"


@pytest.mark.parametrize(
    "cls, fields, path, message",
    [
        (model.CompositePoint, {"tangent_cone": ("1", "1")}, "tangent_cone[0]", "expected an integer, got str"),
        (model.CurveDescriptor, {"degree": 4, "points": {"a": 1}}, "points", "expected a tuple of point records, got dict"),
        (
            model.CurveDescriptor,
            {"degree": 4, "points": ("cusp",)},
            "points[0]",
            "expected a FlexPoint or IrreducibleSingularity or CompositePoint or OrdinaryMultiplePoint record, got str",
        ),
        (model.CurveDescriptor, {"degree": 1, "linear": (1,)}, "linear[0]", "expected a LinearComponent record, got int"),
        (model.NewtonSide, {"j0": 1, "k0": 1, "j1": 3, "k1": 0, "s": None}, "s", "expected a tuple of integers, got NoneType"),
        (model.NewtonSide, {"j0": 1.0, "k0": 1, "j1": 3, "k1": 0, "s": (1,)}, "j0", "expected an integer, got float"),
        (model.Truncation, {"ell": 1, "weight": "1/2", "s": (1,)}, "W", "expected a Fraction or an integer, got str"),
        (model.FlexPoint, {"contact": "3"}, "contact", "expected an integer, got str"),
        (model.IrreducibleSingularity, {"m": 2, "n": 3, "essential": ("5",)}, "essential[0]", "expected an integer, got str"),
        (model.NonlinearComponent, {"deg": 4, "mult": True}, "mult", "expected an integer, got bool"),
        (model.FlexPoint, {"contact": 3, "label": 5}, "label", "expected a string, got int"),
        (model.CompositePoint, {"absorbed_flexes": 0.0}, "absorbed_flexes", "expected an integer, got float"),
        (model.OrdinaryMultiplePoint, {"m": 2, "contacts": (3, "4")}, "contacts[1]", "expected an integer, got str"),
        (model.OrdinaryMultiplePoint, {"m": 2, "absorbed_flexes": True}, "absorbed_flexes", "expected an integer, got bool"),
    ],
)
def test_validation_refuses_wrongly_typed_nested_fields(cls, fields, path, message):
    # each raised TypeError or AttributeError, or gave a report, before the
    # field types were checked; a record in a tuple is checked when it is built
    with pytest.raises(model.DescriptorSchemaError) as excinfo:
        cls(**fields)
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


#: The wrong values the property draws that a field of the annotation
#: takes after all (`validate` refuses a `flexes` string other than "auto"
#: as a value).
_TAKES = {
    "Optional[str]": ("1", None),
    "Optional[int]": (None,),
    "Optional[tuple[int, ...]]": (None,),
    "bool": (True,),
    "Union[int, str]": ("1",),
}


def _swappable(record):
    """(key, what, taken, value, rebuild) for each field of `record`, each
    entry of its tuples and the same below each record it holds: the key
    that the record holding the value names it by (its field's, or key[i]
    for an entry), what the field or entry asks for, the wrong values it
    takes after all, and rebuild(new), which is `record` with that one
    value replaced by `new`."""
    annotations = type(record).__annotations__
    for name in records.fields(type(record)):
        value, key = getattr(record, name), "W" if name == "weight" else name
        what, entry_what = _ASKS[annotations[name]]

        def put(new, name=name):
            return records.replace(record, **{name: new})

        yield key, what, _TAKES.get(annotations[name], ()), value, put
        for idx, item in enumerate(value if type(value) is tuple else ()):

            def put_item(new, value=value, idx=idx, put=put):
                return put(value[:idx] + (new,) + value[idx + 1 :])

            yield f"{key}[{idx}]", entry_what, (), item, put_item
            for *inner, rebuild in _swappable(item) if type(item) is not int else ():
                yield *inner, lambda new, rebuild=rebuild, put_item=put_item: put_item(rebuild(new))


@settings(max_examples=200)
@given(descriptors(), st.data())
def test_validation_names_the_field_of_the_wrong_type(descriptor, data):
    # the innermost record built with the wrong value refuses it
    slots = list(_swappable(descriptor))
    key, what, taken, value, rebuild = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    other = model.LinearComponent(1) if type(value) is model.NonlinearComponent else model.NonlinearComponent(2)
    wrong = data.draw(st.sampled_from([v for v in (1.5, "1", True, None, [1], other) if v not in taken]), label="wrong")
    with pytest.raises(model.DescriptorSchemaError) as excinfo:
        rebuild(wrong)
    assert excinfo.value.path == key
    assert str(excinfo.value) == f"{key}: expected {what}, got {type(wrong).__name__}"


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


@pytest.mark.parametrize("value", [1.5, True, "2"])
def test_union_scale_and_reports_refuse_numbers_that_are_not_int(value):
    # past the check, 1.5 would make float a_i that the writer cannot print,
    # True would scale by 1, and a stabilizer 1.0 would give a float degree
    conic = engine.assemble(CONIC)
    counts, multiple = "intersection counts must be integers", "scaling multiple must be a positive integer"
    stabilizer = f"stabilizer degree must be an integer, got {type(value).__name__}"
    for build, message in [
        (lambda: engine.union(conic, conic, crossings=value), counts),
        (lambda: engine.union(conic, conic, line_crossings=value), counts),
        (lambda: engine.union(conic, conic, tangencies=value), counts),
        (lambda: engine.scale(conic, value), multiple),
        (lambda: engine.scale(conic, 1, stabilizer_degree=value), stabilizer),
        (lambda: engine.union(conic, conic, stabilizer_degree=value), stabilizer),
        (lambda: engine.OrbitReport(conic.a, conic.den, conic.breakdown, value), stabilizer),
    ]:
        with pytest.raises(engine.EngineError) as raised:
            build()
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


@settings(max_examples=100)
@given(unions())
def test_union_matches_the_curve_it_makes(case):
    # the union's own descriptor ties each universal factor to the local
    # term of a node or a tangency point, and the product of the two
    # curves' global terms to those of the union, whose degree and `meets`
    # have grown
    left, right, counts, union = case
    assert model.validate(union) == []
    for strict in (False, True):
        via_union = engine.union(*(engine.assemble(d, erratum_strict=strict) for d in (left, right)), **counts)
        direct = engine.assemble(union, erratum_strict=strict)
        assert (direct.app, direct.erratum_notes) == (via_union.app, via_union.erratum_notes)


@settings(max_examples=200)
@given(multiple_point_curves())
def test_ordinary_multiple_point_assembles_as_the_composite_it_stands_for(descriptor):
    # the record's terms come from `corrections.multiple_point_terms`, its
    # reference expansion's from the cone and side builders
    expansion = oracles.expanded(descriptor)
    violations = model.validate(descriptor)
    assert violations == model.validate(expansion)
    for strict in () if violations else (False, True):
        report, expected = (engine.assemble(d, erratum_strict=strict) for d in (descriptor, expansion))
        assert report == expected
        assert engine.report_to_obj(report) == engine.report_to_obj(expected)


def builder_breakdown(descriptor, strict):
    """The breakdown of a valid descriptor, term by term from the public
    builders, each checking its arguments, where `assemble` runs their kernels."""
    d = descriptor.degree
    out = [(f"linear[{i}]", corrections.line_correction(c.mult, c.meets, d)) for i, c in enumerate(descriptor.linear)]
    out += [(f"nonlinear[{i}]", corrections.nonlinear_correction(d, c.deg, c.mult)) for i, c in enumerate(descriptor.nonlinear)]
    for i, point in enumerate(descriptor.points):
        label = point.label if point.label is not None else f"points[{i}]"
        if isinstance(point, model.FlexPoint):
            out.append((label, corrections.flex_correction(1, strict, point.contact)))
        elif isinstance(point, model.IrreducibleSingularity):
            out.append((label, corrections.irreducible_correction(point)))
        elif isinstance(point, model.OrdinaryMultiplePoint):
            terms = corrections.multiple_point_terms(point.m, point.contacts)
            out += [(f"{label}.{part}", corr) for part, corr in terms]
        else:
            if point.tangent_cone is not None:
                out.append((f"{label}.tangent_cone", corrections.tangent_cone_correction(point.tangent_cone)))
            out += [
                (f"{label}.sides[{j}]", corrections.newton_side_correction(side))
                for j, side in enumerate(point.sides)
                if not side.suppress
            ]
            out += [
                (f"{label}.truncations[{j}]", corrections.truncation_correction(trunc))
                for j, trunc in enumerate(point.truncations)
            ]
    count = model.resolved_flex_count(descriptor)
    if count:
        out.append(("ordinary_flexes", corrections.flex_correction(count, printed=strict)))
    return tuple(out)


@settings(max_examples=200)
@given(descriptors())
def test_assembly_kernels_agree_with_the_builders(descriptor):
    for strict in () if model.validate(descriptor) else (False, True):
        assert engine.assemble(descriptor, erratum_strict=strict).breakdown == builder_breakdown(descriptor, strict)


@settings(max_examples=200)
@given(descriptors())
def test_irreducible_points_assemble_as_their_composite_form(descriptor):
    points = tuple(
        oracles.irreducible_composite(p) if isinstance(p, model.IrreducibleSingularity) else p for p in descriptor.points
    )
    composite = records.replace(descriptor, points=points)
    for strict in (False, True):
        report, expected = (engine.assemble(d, erratum_strict=strict) for d in (descriptor, composite))
        obj, expected_obj = (engine.report_to_obj(r) for r in (report, expected))
        assert (report.app, report.erratum_notes) == (expected.app, expected.erratum_notes)
        assert {**obj, "breakdown": None} == {**expected_obj, "breakdown": None}


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


def test_erratum_strict_notes_only_contact_3_flexes():
    high = model.CurveDescriptor(
        degree=4,
        nonlinear=(model.NonlinearComponent(4, 1),),
        points=(model.FlexPoint(4, label="hyperflex"), model.FlexPoint(5)),
        flexes=0,
    )
    strict = engine.assemble(high, erratum_strict=True)
    assert not strict.erratum_notes
    assert strict == engine.assemble(high)
    for ordinary in (records.replace(high, points=high.points + (model.FlexPoint(3),)), records.replace(high, flexes=1)):
        strict, derived = (engine.assemble(ordinary, erratum_strict=s) for s in (True, False))
        assert strict.erratum_notes
        assert strict.erratum_notes == engine.assemble(smooth_curve(4), erratum_strict=True).erratum_notes
        assert not derived.erratum_notes
        assert strict.app != derived.app


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
    fields = records.fields(engine.OrbitReport)
    assert fields == ["a", "den", "breakdown", "stabilizer_degree", "erratum_notes"]
    assert not hasattr(engine, "F") and not hasattr(engine, "_build_report")


def test_report_numbers_on_fixtures():
    for descriptor in fixture_descriptors():
        for strict in (False, True):
            assert_stabilizer_rule(
                lambda s: engine.assemble(records.replace(descriptor, stabilizer_degree=s), erratum_strict=strict),
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
    cubic = engine.assemble(records.replace(CUSPIDAL_CUBIC, stabilizer_degree=None))  # predegree 72
    for build in (
        lambda s: engine.union(cubic, cubic, crossings=9, stabilizer_degree=s),
        lambda s: engine.scale(cubic, 2, stabilizer_degree=s),
    ):
        plain = build(None)
        assert numbers_from_fractions(plain.a, plain.den, stabilizer)[3] == REFUSED
        assert_stabilizer_rule(build, stabilizer)
