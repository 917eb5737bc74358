"""Descriptor model: validation rules, JSON parsing, round-trips."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import records
from orbitdeg import corpus, engine, model
from strategies import descriptors, irreducibles


def violations_of(descriptor):
    return [str(v) for v in model.validate(descriptor)]


def test_smooth_conic_is_valid():
    descriptor = model.CurveDescriptor(
        degree=2, nonlinear=(model.NonlinearComponent(2, 1),), flexes=0
    )
    assert model.validate(descriptor) == []


def test_line_intersection_sum_checked():
    descriptor = model.CurveDescriptor(
        degree=3,
        linear=(model.LinearComponent(1, (1,)),),
        nonlinear=(model.NonlinearComponent(2, 1),),
    )
    problems = violations_of(descriptor)
    assert any("sum to 1" in p and "expected degree - mult = 2" in p for p in problems)


def test_component_degree_sum_checked():
    descriptor = model.CurveDescriptor(degree=5, nonlinear=(model.NonlinearComponent(2, 2),))
    assert any("sum to 4" in p for p in violations_of(descriptor))


def test_non_essential_exponent_rejected():
    sing = model.IrreducibleSingularity(2, 4, (6,))
    problems = [str(v) for v in model.irreducible_violations(sing)]
    assert any("multiple of gcd 2" in p for p in problems)


def test_unreduced_branch_rejected():
    sing = model.IrreducibleSingularity(2, 4, ())
    problems = [str(v) for v in model.irreducible_violations(sing)]
    assert any("not 1" in p for p in problems)


def test_essential_contact_must_open_list():
    # 3 is not a multiple of 2, so it is essential and must appear first
    sing = model.IrreducibleSingularity(2, 3, (5,))
    problems = [str(v) for v in model.irreducible_violations(sing)]
    assert any("must open the exponent list" in p for p in problems)
    assert model.irreducible_violations(model.IrreducibleSingularity(2, 3, (3,))) == []


def test_no_essential_terms_is_allowed():
    assert model.irreducible_violations(model.IrreducibleSingularity(1, 4, ())) == []


def test_side_slope_bounds():
    flat = model.NewtonSide(0, 1, 1, 0, (1,))  # slope exactly -1
    assert model.side_violations(flat)
    ok = model.NewtonSide(0, 1, 3, 0, (1,))
    assert model.side_violations(ok) == []
    bad_s = model.NewtonSide(0, 2, 4, 0, (1,))  # span 2 but s sums to 1
    assert any("lattice span" in str(v) for v in model.side_violations(bad_s))


def test_auto_flexes_restrictions():
    with_line = model.CurveDescriptor(
        degree=3,
        linear=(model.LinearComponent(1, (2,)),),
        nonlinear=(model.NonlinearComponent(2, 1),),
        flexes="auto",
    )
    assert any("line" in p for p in violations_of(with_line))
    two_components = model.CurveDescriptor(
        degree=4,
        nonlinear=(model.NonlinearComponent(2, 1), model.NonlinearComponent(2, 1)),
        flexes="auto",
    )
    assert any("single reduced" in p for p in violations_of(two_components))
    overdrawn = model.CurveDescriptor(
        degree=3,
        nonlinear=(model.NonlinearComponent(3, 1),),
        points=(
            model.IrreducibleSingularity(2, 3, (3,)),
            model.IrreducibleSingularity(2, 3, (3,)),
        ),
        flexes="auto",
    )
    assert any("exceed the budget" in p for p in violations_of(overdrawn))


def test_resolved_flex_count():
    cubic = model.CurveDescriptor(
        degree=3,
        nonlinear=(model.NonlinearComponent(3, 1),),
        points=(model.IrreducibleSingularity(2, 3, (3,)),),
        flexes="auto",
    )
    assert model.resolved_flex_count(cubic) == 1
    # a hyperflex (contact 4) takes two of the quartic's 3d(d-2) = 24
    quartic = model.CurveDescriptor(
        degree=4, nonlinear=(model.NonlinearComponent(4, 1),), points=(model.FlexPoint(4),), flexes="auto"
    )
    assert model.resolved_flex_count(quartic) == 22


@settings(max_examples=200)
@given(descriptors(), st.booleans())
def test_validation_resolves_the_flex_count(descriptor, auto):
    # `assemble` takes the ordinary-flex count from its validation
    if auto:
        descriptor = records.replace(descriptor, flexes=model.AUTO_FLEXES)
    violations, count = model._violations_and_flex_count(descriptor)
    assert violations == model.validate(descriptor)
    if not violations:
        assert count == model.resolved_flex_count(descriptor)


CONIC = model.NonlinearComponent(2, 1)


@pytest.mark.parametrize(
    "problems, expected",
    [
        (lambda: model.validate(model.CurveDescriptor(0)), ["degree: degree must be a positive integer"]),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.FlexPoint(2),))),
            ["points[0].contact: flex contact order must be >= 3"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.CompositePoint(absorbed_flexes=-1),))),
            ["points[0].absorbed_flexes: absorbed flex count must be >= 0"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.OrdinaryMultiplePoint(1),))),
            ["points[0].m: multiple points need multiplicity >= 2"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.OrdinaryMultiplePoint(2, (3, 2)),))),
            ["points[0].contacts[1]: contact must be >= m + 1 = 3"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.OrdinaryMultiplePoint(2, (3, 3, 3)),))),
            ["points[0].contacts: at most m = 2 branches"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), points=(model.OrdinaryMultiplePoint(2, (), -1),))),
            ["points[0].absorbed_flexes: absorbed flex count must be >= 0"],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), flexes="three")),
            ['flexes: flex count must be an integer or "auto"'],
        ),
        (
            lambda: model.validate(model.CurveDescriptor(2, nonlinear=(CONIC,), stabilizer_degree=0)),
            ["stabilizer_degree: stabilizer degree must be a positive integer"],
        ),
        (
            lambda: model.validate(
                model.CurveDescriptor(
                    2, nonlinear=(CONIC,), points=(model.CompositePoint(truncations=(model.Truncation(1, Fraction(1), ()),)),)
                )
            ),
            ["points[0].truncations[0].s: conic multiplicities must be a non-empty list of positive integers"],
        ),
        (
            lambda: model.irreducible_violations(model.IrreducibleSingularity(0, 3)),
            ["singularity.m: multiplicity must be a positive integer"],
        ),
        (
            lambda: model.irreducible_violations(model.IrreducibleSingularity(2, 3, (5, 5))),
            ["singularity.essential[1]: exponents must be strictly increasing"],
        ),
        (
            lambda: model.irreducible_violations(model.IrreducibleSingularity(2, 5, (3,))),
            ["singularity.essential[0]: first exponent must be >= the contact order 5"],
        ),
        (
            lambda: model.side_violations(model.NewtonSide(0, 2, 4, 0, (3, -1))),
            ["side.s: root multiplicities must be positive"],
        ),
        (
            lambda: model.truncation_violations(model.Truncation(0, Fraction(1), (1,))),
            ["truncation.ell: ell must be a positive integer"],
        ),
        (
            lambda: model.irreducible_violations(model.IrreducibleSingularity(1, 1)),
            ["singularity.n: contact order must exceed the multiplicity 1"],
        ),
        (
            # the other rules take each of these, whose absorbed-flex counts are -1, -2, 8 and 29
            lambda: model.validate(
                model.CurveDescriptor(
                    2,
                    nonlinear=(CONIC,),
                    points=tuple(
                        model.IrreducibleSingularity(*args) for args in ((1, 1), (1, 0), (3, 2, (2,)), (5, 3, (3,)))
                    ),
                )
            ),
            [
                "points[0].n: contact order must exceed the multiplicity 1",
                "points[1].n: contact order must exceed the multiplicity 1",
                "points[2].n: contact order must exceed the multiplicity 3",
                "points[3].n: contact order must exceed the multiplicity 5",
            ],
        ),
        (
            lambda: model.side_violations(model.NewtonSide(3, 1, 1, 0, (1,))),
            ["side: endpoints must satisfy j0 < j1"],
        ),
        (
            # the slope rule refuses this side too, but names the wrong cause
            lambda: model.validate(
                model.CurveDescriptor(
                    2, nonlinear=(CONIC,), points=(model.CompositePoint(sides=(model.NewtonSide(3, 1, 1, 0, (1,)),)),)
                )
            ),
            ["points[0].sides[0]: endpoints must satisfy j0 < j1"],
        ),
    ],
)
def test_each_rule_names_its_field(problems, expected):
    assert [str(v) for v in problems()] == expected


def _point_doc(point):
    return {"degree": 4, "nonlinear": [{"deg": 4}], "points": [point]}


def _side_doc(**fields):
    return _point_doc({"kind": "composite", "sides": [{"from": [0, 2], "to": [4, 0], "s": [2], **fields}]})


def _truncation_doc(truncation):
    return _point_doc({"kind": "composite", "truncations": [truncation]})


SCHEMA = model.DescriptorSchemaError


@pytest.mark.parametrize(
    "document, error, message",
    [
        ([], SCHEMA, ": expected an object, got list"),
        ({"degree": 2, "bogus": 1}, SCHEMA, "bogus: unknown field"),
        ({}, SCHEMA, "degree: missing required field"),
        ({"degree": "4"}, SCHEMA, "degree: expected an integer, got str"),
        ({"degree": 4, "flexes": "x"}, SCHEMA, "flexes: expected an integer, got str"),
        ({"degree": 4, "stabilizer_degree": 1.5}, SCHEMA, "stabilizer_degree: expected an integer, got float"),
        ({"degree": 1, "linear": {}}, SCHEMA, "linear: expected an array, got dict"),
        ({"degree": 1, "linear": [{"mult": True}]}, SCHEMA, "linear[0].mult: expected an integer, got bool"),
        ({"degree": 1, "linear": [{"meets": []}]}, SCHEMA, 'linear[0]: missing "mult"'),
        ({"degree": 1, "linear": [{"mult": 1, "meets": [1, "2"]}]}, SCHEMA, "linear[0].meets[1]: expected an integer, got str"),
        ({"degree": 1, "linear": [{"mult": 1, "at": 2}]}, SCHEMA, "linear[0].at: unknown field"),
        ({"degree": 2, "nonlinear": [5]}, SCHEMA, "nonlinear[0]: expected an object, got int"),
        ({"degree": 2, "nonlinear": [{"deg": 2, "mult": True}]}, SCHEMA, "nonlinear[0].mult: expected an integer, got bool"),
        ({"degree": 2, "nonlinear": [{"mult": 1}]}, SCHEMA, 'nonlinear[0]: missing "deg"'),
        ({"degree": 2, "nonlinear": [{"deg": 2, "mult": 1, "bogus": 1}]}, SCHEMA, "nonlinear[0].bogus: unknown field"),
        (_side_doc(**{"from": [0, 1, 2]}), SCHEMA, "points[0].sides[0].from: expected a [j, k] pair"),
        (_side_doc(**{"from": [0, None]}), SCHEMA, "points[0].sides[0].from[1]: expected an integer, got NoneType"),
        (_side_doc(suppress=1), SCHEMA, "points[0].sides[0].suppress: expected a boolean, got int"),
        (_point_doc({"kind": "composite", "sides": [{"from": [0, 2], "s": [2]}]}), SCHEMA, 'points[0].sides[0]: missing "to"'),
        (_truncation_doc({"ell": 1, "s": [1]}), SCHEMA, 'points[0].truncations[0]: missing "W"'),
        (_truncation_doc({"ell": 1, "W": "1/0", "s": [1]}), SCHEMA, "points[0].truncations[0].W: invalid rational literal: '1/0'"),
        (
            _truncation_doc({"ell": 1, "W": 2.5, "s": [1]}),
            SCHEMA,
            'points[0].truncations[0].W: expected an integer or "num/den" string, got float',
        ),
        (_point_doc({"kind": 3}), SCHEMA, "points[0].kind: expected a string, got int"),
        (_point_doc({"kind": "cusp"}), SCHEMA, "points[0].kind: unknown point kind 'cusp'"),
        (_point_doc({"contact": 3}), SCHEMA, "points[0].kind: unknown point kind ''"),
        (_point_doc({"kind": "flex", "contact": 3, "label": 7}), SCHEMA, "points[0].label: expected a string, got int"),
        (_point_doc({"kind": "flex", "label": 7, "zz": 1}), SCHEMA, "points[0].label: expected a string, got int"),
        (_point_doc([1]), SCHEMA, "points[0]: expected an object, got list"),
        (_point_doc({"kind": "irreducible", "m": 2}), SCHEMA, 'points[0]: missing "n"'),
        (_point_doc({"kind": "flex", "contact": 3, "m": 2}), SCHEMA, "points[0].m: unknown field"),
        (_point_doc({"kind": "ordinary_multiple_point", "m": "2"}), SCHEMA, "points[0].m: expected an integer, got str"),
        (
            _point_doc({"kind": "ordinary_multiple_point", "m": 2, "contacts": [3, "4"]}),
            SCHEMA,
            "points[0].contacts[1]: expected an integer, got str",
        ),
        (_point_doc({"kind": "ordinary_multiple_point", "contacts": [3]}), SCHEMA, 'points[0]: missing "m"'),
        (_point_doc({"kind": "composite", "tangent_cone": [1, [1]]}), SCHEMA, "points[0].tangent_cone[1]: expected an integer, got list"),
        (_point_doc({"kind": "composite", "absorbed_flexes": "2"}), SCHEMA, "points[0].absorbed_flexes: expected an integer, got str"),
        ({"degree": 4, "points": {}}, SCHEMA, "points: expected an array, got dict"),
        (
            _point_doc({"kind": "ordinary_multiple_point", "m": 2, "absorbed_flexes": None}),
            SCHEMA,
            "points[0].absorbed_flexes: expected an integer, got NoneType",
        ),
    ],
)
def test_parse_error_class_path_and_message(document, error, message):
    with pytest.raises(model.DescriptorError) as info:
        model.parse(json.dumps(document))
    assert type(info.value) is error
    assert str(info.value) == message
    assert message.startswith(f"{info.value.path}: ")


def test_parse_malformed_json_has_position():
    with pytest.raises(model.DescriptorParseError) as info:
        model.parse('{"degree": 2,,}')
    assert info.value.line == 1
    assert info.value.column is not None


def test_parse_biflecnode_shorthand():
    text = json.dumps(
        {
            "degree": 4,
            "stabilizer_degree": 24,
            "flexes": 0,
            "nonlinear": [{"deg": 4, "mult": 1}],
            "points": [
                {"kind": "ordinary_multiple_point", "m": 2, "contacts": [4, 4], "absorbed_flexes": 8}
            ]
            * 3,
        }
    )
    descriptor = model.parse(text)
    assert descriptor.degree == 4
    assert descriptor.points == (model.OrdinaryMultiplePoint(2, (4, 4), 8),) * 3
    # the point stands for the composite of its two tangent lines and one side per branch
    side = model.NewtonSide(1, 1, 4, 0, (1,))
    composite = records.replace(descriptor, points=(model.CompositePoint((1, 1), (side, side), (), 8),) * 3)
    assert engine.assemble(descriptor) == engine.assemble(composite)


def test_multiple_point_absorbed_default():
    # all branches nonlinear: 3m(m-1) + sum(contacts) - m(m+1); else 0
    def absorbed(point):
        document = {"degree": 4, "flexes": 0, "nonlinear": [{"deg": 4, "mult": 1}], "points": [point]}
        parsed = model.parse(json.dumps(document)).points[0]
        return parsed.absorbed_flexes, model.absorbed_flexes(parsed)

    assert absorbed({"kind": "ordinary_multiple_point", "m": 2, "contacts": [4, 4]}) == (None, 8)
    assert absorbed({"kind": "ordinary_multiple_point", "m": 3, "contacts": [4, 5, 4]}) == (None, 19)
    assert absorbed({"kind": "ordinary_multiple_point", "m": 2, "contacts": [3]}) == (None, 0)
    assert absorbed({"kind": "ordinary_multiple_point", "m": 2, "contacts": [4, 4], "absorbed_flexes": 3}) == (3, 3)


@st.composite
def dressed_descriptors(draw) -> model.CurveDescriptor:
    """A drawn descriptor plus what `strategies.descriptors` leaves out:
    point labels, suppressed sides, automatic flexes and a stabilizer degree.
    The result need not be valid; parsing does not validate."""
    base = draw(descriptors())
    points = []
    for point in base.points:
        if isinstance(point, model.CompositePoint):
            sides = tuple(records.replace(side, suppress=draw(st.booleans())) for side in point.sides)
            point = records.replace(point, sides=sides)
        points.append(records.replace(point, label=draw(st.none() | st.text(max_size=6))))
    return records.replace(
        base,
        points=tuple(points),
        flexes=draw(st.sampled_from([base.flexes, model.AUTO_FLEXES])),
        stabilizer_degree=draw(st.none() | st.integers(1, 100)),
    )


@settings(max_examples=100)
@given(dressed_descriptors(), st.sampled_from([None, 2]))
def test_parse_inverts_serialize(descriptor, indent):
    assert model.parse(model.serialize(descriptor, indent=indent)) == descriptor


def test_serialize_text():
    # keys in the reader's order, "kind" first in a point; no None or False value
    descriptor = model.CurveDescriptor(
        degree=5,
        stabilizer_degree=3,
        flexes="auto",
        linear=(model.LinearComponent(1, (2, 2)),),
        nonlinear=(model.NonlinearComponent(4),),
        points=(
            model.FlexPoint(4),
            model.IrreducibleSingularity(2, 3, (3,), label="cusp"),
            model.CompositePoint(
                (2,),
                (model.NewtonSide(0, 2, 4, 0, (1, 1)), model.NewtonSide(1, 1, 3, 0, (1,), suppress=True)),
                (model.Truncation(1, Fraction(5, 2), (1, 1)),),
                absorbed_flexes=3,
                label="tacnode",
            ),
            model.OrdinaryMultiplePoint(3, (4,), label="triple"),
        ),
    )
    text = (
        '{"degree": 5, "stabilizer_degree": 3, "flexes": "auto", "linear": [{"mult": 1, "meets": [2, 2]}], '
        '"nonlinear": [{"deg": 4, "mult": 1}], "points": [{"kind": "flex", "contact": 4}, '
        '{"kind": "irreducible", "label": "cusp", "m": 2, "n": 3, "essential": [3]}, '
        '{"kind": "composite", "label": "tacnode", "tangent_cone": [2], '
        '"sides": [{"from": [0, 2], "to": [4, 0], "s": [1, 1]}, {"from": [1, 1], "to": [3, 0], "s": [1], "suppress": true}], '
        '"truncations": [{"ell": 1, "W": "5/2", "s": [1, 1]}], "absorbed_flexes": 3}, '
        '{"kind": "ordinary_multiple_point", "label": "triple", "m": 3, "contacts": [4]}]}'
    )
    assert model.serialize(descriptor, indent=None) == text
    assert model.serialize(descriptor) == json.dumps(json.loads(text), indent=2)
    assert model.parse(text) == descriptor


def test_records_equal_only_their_own_class():
    cusp = model.IrreducibleSingularity(2, 3, (3,))
    assert cusp != (2, 3, (3,), None)
    assert cusp != model.IrreducibleSingularity(2, 3, (3,), label="cusp")
    assert model.FlexPoint(3) != model.IrreducibleSingularity(1, 3)
    assert model.FlexPoint(3) != (3, None)
    assert model.CompositePoint((1, 1)) != model.CompositePoint((1, 1), label="node")
    assert model.LinearComponent(2) != model.NonlinearComponent(2)
    assert model.NewtonSide(0, 2, 4, 0, (2,)) != (0, 2, 4, 0, (2,), False)
    assert model.Truncation(1, Fraction(5), (1,)) != (1, Fraction(5), (1,))
    assert model.CurveDescriptor(2) != (2, None, 0, (), (), ())
    assert len({cusp, model.IrreducibleSingularity(2, 3, (3,), label="cusp"), (2, 3, (3,), None)}) == 3


def test_record_repr_names_every_field():
    # the README's Name(field=value, ...), through a nested record
    point = model.CompositePoint(sides=(model.NewtonSide(1, 1, 3, 0, (1,)),), label="p")
    assert repr(point) == (
        "CompositePoint(tangent_cone=None, sides=(NewtonSide(j0=1, k0=1, j1=3, k1=0, s=(1,), suppress=False),), "
        "truncations=(), absorbed_flexes=0, label='p')"
    )


def test_parse_serialize_round_trip_corpus():
    for path in corpus.fixture_paths(corpus.corpus_dir()):
        with open(path, encoding="utf-8") as fh:
            descriptor = model.descriptor_from_obj(json.load(fh)["descriptor"])
        assert model.validate(descriptor) == []
        assert model.parse(model.serialize(descriptor)) == descriptor


def _mutations(obj):
    """Single invariant-breaking edits of a descriptor JSON object."""
    import copy

    out = []
    bumped = copy.deepcopy(obj)
    bumped["degree"] = bumped["degree"] + 1
    out.append(bumped)  # component degree sum breaks
    if obj.get("linear"):
        worse = copy.deepcopy(obj)
        worse["linear"][0]["meets"] = [v + 1 for v in worse["linear"][0]["meets"]] or [1]
        out.append(worse)
    for index, point in enumerate(obj.get("points", [])):
        if point.get("kind") == "irreducible":
            worse = copy.deepcopy(obj)
            worse["points"][index]["essential"] = [
                worse["points"][index]["m"] * 4 + 2 * worse["points"][index]["n"]
            ]
            out.append(worse)
            break
        if point.get("kind") == "composite" and point.get("sides"):
            worse = copy.deepcopy(obj)
            worse["points"][index]["sides"][0]["s"] = [
                v + 1 for v in worse["points"][index]["sides"][0]["s"]
            ]
            out.append(worse)
            break
    return out


def test_corpus_fixtures_reject_mutations():
    for path in corpus.fixture_paths(corpus.corpus_dir()):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)["descriptor"]
        for mutated in _mutations(obj):
            descriptor = model.descriptor_from_obj(mutated)
            assert model.validate(descriptor), f"mutation of {path.name} slipped through"


def test_absorbed_flex_counts():
    assert model.absorbed_flexes(model.IrreducibleSingularity(1, 3)) == 1
    assert model.absorbed_flexes(model.IrreducibleSingularity(1, 5)) == 3
    assert model.absorbed_flexes(model.IrreducibleSingularity(2, 3, (3,))) == 8
    assert model.absorbed_flexes(model.IrreducibleSingularity(2, 4, (5,))) == 15


def test_absorbed_flex_count_examples():
    for k in range(3, 9):
        assert model.absorbed_flexes(model.IrreducibleSingularity(1, k)) == k - 2
    assert model.absorbed_flexes(model.IrreducibleSingularity(2, 3, (3,))) == 8
    assert model.absorbed_flexes(model.IrreducibleSingularity(2, 4, (5,))) == 15
    assert model.absorbed_flexes(model.IrreducibleSingularity(2, 4, (7,))) == 21


@settings(max_examples=50)
@given(irreducibles())
def test_absorbed_flex_count_is_nonnegative(sing):
    count = model.absorbed_flexes(sing)
    assert count >= 0
    if gcd(sing.m, sing.n) == 1 and sing.essential == (sing.n,):
        assert count == 3 * sing.m * sing.n - 2 * sing.m - 2 * sing.n
