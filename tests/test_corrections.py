"""Correction terms and point factors against their printed and derived oracles."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbitdeg import corrections, model
from oracles import TruncSeries, exp_linear, factor, ring
from strategies import compositions, irreducibles, sides, truncations

ONE = TruncSeries.one()


def series(terms):
    return TruncSeries.from_terms(terms)


@st.composite
def line_components(draw, max_mult: int = 5, max_rest: int = 6) -> tuple[int, tuple[int, ...], int]:
    """(m, meets, d): a line of multiplicity m on a degree-d curve, meeting
    the rest of it with the multiplicities `meets`, which sum to d - m."""
    m, rest = draw(st.integers(1, max_mult)), draw(st.integers(0, max_rest))
    return m, draw(compositions(rest)), m + rest


def cone_mults(min_lines: int = 1, max_lines: int = 5, max_mult: int = 3) -> st.SearchStrategy[tuple[int, ...]]:
    return st.lists(st.integers(1, max_mult), min_size=min_lines, max_size=max_lines).map(tuple)


# -- line components --------------------------------------------------------


def test_line_correction_single_line():
    expected = -series(
        {3: F(1, 6), 4: F(-1, 8), 5: F(1, 20), 6: F(-1, 72), 7: F(1, 336), 8: F(-1, 1920)}
    )
    assert corrections.line_correction(1, (), 1).term == expected


def test_line_correction_star_ray_display():
    for d in range(2, 9):
        term = corrections.line_correction(1, (d - 1,), d).term
        r = d - 1
        expected = -series(
            {
                3: F(1, 6),
                4: F(-1, 8),
                5: F(1, 20),
                6: F(-(1 + r**3), 72),
                7: F(1 + 4 * r**3 + 3 * r**4, 336),
                8: F(-(1 + 10 * r**3 + 15 * r**4 + 6 * r**5), 1920),
            }
        )
        assert term == expected


@settings(max_examples=100)
@given(line_components())
def test_line_correction_closed_form_matches_antiderivative(line):
    assert corrections.line_correction(*line).term == oracles.line_term(*line)


def test_line_correction_precondition():
    with pytest.raises(corrections.FeatureError):
        corrections.line_correction(1, (1,), 3)


# -- nonlinear components ----------------------------------------------------


def test_nonlinear_correction_reduced_irreducible():
    for d in range(2, 7):
        expected = -2 * d * series(
            {5: F(1, 20), 6: F(-(5 * d + 18), 360), 7: F(9 * d + 8, 420), 8: F(-d, 60)}
        )
        assert corrections.nonlinear_correction(d, d, 1).term == expected


def test_nonlinear_correction_conic_fifth_coefficient():
    term = corrections.nonlinear_correction(2, 2, 1).term
    assert term.coeffs[5] == F(-1, 5)
    app = exp_linear(2) * (ONE + term)
    assert app.coeffs[5] == F(1, 15)


def test_double_conic_by_scaling():
    conic_app = exp_linear(2) * (ONE + corrections.nonlinear_correction(2, 2, 1).term)
    double_app = exp_linear(4) * (ONE + corrections.nonlinear_correction(4, 2, 2).term)
    assert double_app == conic_app.substitute_scaled(2)


def test_nonlinear_correction_precondition():
    with pytest.raises(corrections.FeatureError):
        corrections.nonlinear_correction(3, 2, 2)


@pytest.mark.parametrize(
    "build, problems",
    [
        (lambda: corrections.line_correction(0, (1,), 1), model.line_violations(0, (1,), 1)),
        (lambda: corrections.line_correction(1, (0, 2), 3), model.line_violations(1, (0, 2), 3)),
        (lambda: corrections.line_correction(1, (), 0), model.line_violations(1, (), 0)),
        (lambda: corrections.nonlinear_correction(3, 1, 1), model.nonlinear_violations(1, 1)),
        (lambda: corrections.nonlinear_correction(3, 2, 0), model.nonlinear_violations(2, 0)),
        (lambda: corrections.tangent_cone_correction((1, 0, 1)), model.tangent_cone_violations((1, 0, 1))),
        (lambda: corrections.flex_correction(-1), model.flex_count_violations(-1)),
        (lambda: corrections.multiple_point_correction(1, ()), model.multiple_point_violations(1, ())),
    ],
)
def test_builders_raise_the_first_model_violation(build, problems):
    assert problems
    with pytest.raises(corrections.FeatureError) as excinfo:
        build()
    assert str(excinfo.value) == str(problems[0])


# -- tangent cones -----------------------------------------------------------


def test_tangent_cone_precondition():
    for mults in ((1, 0, 1), (-1,), (2, 1, -3)):
        with pytest.raises(corrections.FeatureError):
            corrections.tangent_cone_correction(mults)
    assert ring(corrections.tangent_cone_correction(()).term).is_zero()


@settings(max_examples=10)
@given(cone_mults(max_lines=2, max_mult=5))
def test_tangent_cone_vanishes_for_two_lines(mults):
    assert ring(corrections.tangent_cone_correction(mults).term).is_zero()


def test_tangent_cone_reduced_lines_display():
    for m in range(1, 9):
        expected = -(m**2) * (m - 1) * (m - 2) * (m**2 + 3 * m - 3) * series(
            {6: F(1, 720), 7: F(-m, 840), 8: F(m * m, 1920)}
        )
        assert corrections.tangent_cone_correction((1,) * m).term == expected


def test_tangent_cone_three_lines_value():
    expected = -9 * series({6: F(1, 24), 7: F(-3, 28), 8: F(9, 64)})
    assert corrections.tangent_cone_correction((1, 1, 1)).term == expected


# -- polygon sides -----------------------------------------------------------


def flex_side(contact):
    return model.NewtonSide(0, 1, contact, 0, (1,))


def test_side_flex_closed_form():
    for k in range(3, 11):
        expected = -(k * (k - 2)) * series(
            {
                6: F(k + 2, 720),
                7: F(-(k * k + 3 * k + 6), 1680),
                8: F(2 * k**3 + 7 * k**2 + 16 * k + 32, 13440),
            }
        )
        assert corrections.newton_side_correction(flex_side(k)).term == expected


def test_side_contact_two_is_trivial():
    assert ring(corrections.newton_side_correction(flex_side(2)).term).is_zero()


def test_side_matches_multiple_point_branch_factor():
    for m in range(2, 9):
        for r in range(m + 1, m + 12):
            side = model.NewtonSide(m - 1, 1, r, 0, (1,))
            got = corrections.newton_side_correction(side).term
            assert got == corrections._local(corrections.KIND_LOCAL, *oracles._branch_contact(m, r)).term, (m, r)


def test_side_unibranch_display():
    # side from (0, m) to (n, 0) carrying a single root of multiplicity gcd(m, n)
    for m in range(1, 7):
        for n in range(m + 1, 9):
            shared = gcd(m, n)
            side = model.NewtonSide(0, m, n, 0, (shared,))
            got = ONE + corrections.newton_side_correction(side).term
            expected = ONE - m * n * series(
                {
                    6: F(m**2 * n**2 - 4 * shared**4, 720),
                    7: F(-3 * (m**3 * n**2 + m**2 * n**3 - 12 * shared**5), 5040),
                    8: F(3 * (2 * m**4 * n**2 + 3 * m**3 * n**3 + 2 * m**2 * n**4 - 64 * shared**6), 40320),
                }
            )
            assert got == expected


@settings(max_examples=50)
@given(st.tuples(*[st.integers(0, 9)] * 4))
def test_side_vertex_polynomial_symmetry(vertices):
    j0, k0, j1, k1 = vertices
    for vertex_polynomial in (oracles._side_l6, oracles._side_l7, oracles._side_l8):
        assert vertex_polynomial(j0, k0, j1, k1) == vertex_polynomial(j1, k1, j0, k0)


#: (j0, k0, j1, k1) in [-9, 9]^4 as the base-19 digits of one index: one
#: draw per example, where four draws make 2,000 examples a second slower
VERTEX_TUPLES = st.sampled_from(range(19**4)).map(lambda c: tuple(c // 19**i % 19 - 9 for i in range(4)))


@settings(max_examples=2000)
@given(VERTEX_TUPLES)
def test_side_vertex_integral_matches_expanded_forms(vertices):
    expanded = tuple(l(*vertices) for l in (oracles._side_l6, oracles._side_l7, oracles._side_l8))
    assert corrections._side_vertex_polynomials(*vertices) == expanded


def test_side_precondition():
    with pytest.raises(corrections.FeatureError):
        corrections.newton_side_correction(model.NewtonSide(0, 1, 1, 0, (1,)))


# -- truncations --------------------------------------------------------------


def test_truncation_two_simple_conics():
    trunc = model.Truncation(1, F(5), (1, 1))
    expected = -5 * series({6: F(1, 6), 7: F(-31, 70), 8: F(3, 5)})
    assert corrections.truncation_correction(trunc).term == expected


@settings(max_examples=10)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 5))
def test_truncation_single_conic_vanishes(ell, weight, s):
    trunc = model.Truncation(ell, F(weight), (s,))
    assert ring(corrections.truncation_correction(trunc).term).is_zero()


def test_truncation_linear_in_weight():
    trunc = model.Truncation(1, F(5), (1, 1))
    doubled = model.Truncation(2, F(5), (1, 1))
    assert corrections.truncation_correction(doubled).term == 2 * ring(corrections.truncation_correction(trunc).term)


# -- the quadratic route -------------------------------------------------------


def test_quadratic_route_zero():
    assert ring(corrections.local_correction_from_quadratic(0, 0, 0, 5).term).is_zero()


@settings(max_examples=40)
@given(cone_mults(min_lines=3, max_mult=4))
def test_quadratic_route_rederives_tangent_cone(mults):
    es = corrections._elementary_symmetric(mults, 5)
    e1 = es[1]
    prefactor = es[2] * es[3] - e1 * es[4] - es[5]
    rederived = e1 * ring(corrections.local_correction_from_quadratic(630 * prefactor, 0, 0, e1).term)
    assert rederived == corrections.tangent_cone_correction(mults).term


def test_quadratic_route_refuses_a_covering_degree_below_one():
    with pytest.raises(corrections.FeatureError, match="^the covering degree must be a positive integer$"):
        corrections.local_correction_from_quadratic(7, -3, 2, 4, delta=0)


def test_quadratic_route_linear_in_delta():
    single = corrections.local_correction_from_quadratic(7, -3, 2, 4, delta=1).term
    triple = corrections.local_correction_from_quadratic(7, -3, 2, 4, delta=3).term
    assert triple == 3 * ring(single)


# -- irreducible singularities --------------------------------------------------


def taylor_k2(numerator, linear_roots):
    """k^0..k^2 Taylor coefficients of numerator / prod((1 + c*k)^3), by
    multiplying out the denominator and inverting it term by term."""
    denominator = [F(1), F(0), F(0)]
    for c in linear_roots:
        for _ in range(3):
            denominator = [denominator[0], denominator[1] + c * denominator[0], denominator[2] + c * denominator[1]]
    inverse = []
    for n in range(3):
        known = sum((denominator[j] * inverse[n - j] for j in range(1, n + 1)), F(0))
        inverse.append(((1 if n == 0 else 0) - known) / denominator[0])
    return [numerator * c for c in inverse]


def test_pair_jet_against_taylor_expansion():
    base = taylor_k2(4, (1, 2))
    for a in range(1, 9):
        for b in range(1, 9):
            main = taylor_k2(a * a * b * b, (a, b))
            assert corrections.pair_jet(a, b) == tuple(x - y for x, y in zip(main, base)), (a, b)


def test_unibranch_factor_smooth_point():
    assert factor(corrections.irreducible_correction(model.IrreducibleSingularity(1, 2))) == ONE


def test_unibranch_factor_ordinary_cusp():
    got = factor(corrections.irreducible_correction(model.IrreducibleSingularity(2, 3, (3,))))
    assert got == series({0: 1, 6: F(-4, 15), 7: F(3, 5), 8: F(-19, 28)})


def test_unibranch_factor_ordinary_flex():
    got = factor(corrections.irreducible_correction(model.IrreducibleSingularity(1, 3)))
    assert got == series({0: 1, 6: F(-1, 48), 7: F(3, 70), 8: F(-197, 4480)})


def test_unibranch_factor_matches_flex_side():
    for k in range(2, 11):
        unibranch = factor(corrections.irreducible_correction(model.IrreducibleSingularity(1, k)))
        assert unibranch == ONE + corrections.newton_side_correction(flex_side(k)).term


def test_unibranch_factor_one_pair_display():
    # singularities with exactly one exponent pair beyond (m, n)
    cases = []
    for m in (2, 3, 4):
        for n in range(m + 1, m + 6):
            if gcd(m, n) == 1:
                cases.append((m, n, n))
            if n % m == 0:
                for n1 in range(n + 1, n + 8):
                    if gcd(m, n1) == 1:
                        cases.append((m, n, n1))
    assert cases
    for m, n, n1 in cases:
        sing = model.IrreducibleSingularity(m, n, (n1,))
        got = factor(corrections.irreducible_correction(sing))
        expected = ONE - series(
            {
                6: F(m * (4 * m**4 * (n1 - n) + m**2 * n**3 - 4 * n1), 720),
                7: F(-3 * m * (12 * m**5 * (n1 - n) + m**3 * n**3 + m**2 * n**4 - 12 * n1), 5040),
                8: F(
                    3 * m * (64 * m**6 * (n1 - n) + 2 * m**4 * n**3 + 3 * m**3 * n**4 + 2 * m**2 * n**5 - 64 * n1),
                    40320,
                ),
            }
        )
        assert got == expected, (m, n, n1)


# -- ordinary multiple points ----------------------------------------------------


def multiple_point_factor(m, contacts):
    return factor(corrections.multiple_point_correction(m, contacts))


def test_ordinary_multiple_point_factor_precondition():
    for m, contacts in ((1, ()), (0, ()), (2, (3, 3, 3)), (3, (4, 3)), (2, (2,))):
        with pytest.raises(corrections.FeatureError):
            corrections.multiple_point_correction(m, contacts)
    assert multiple_point_factor(2, ()) == ONE


def test_multiple_point_general_node():
    got = multiple_point_factor(2, (3, 3))
    assert got == series({0: 1, 6: F(-1, 6), 7: F(101, 280), 8: F(-25, 64)})


def test_multiple_point_biflecnode():
    got = multiple_point_factor(2, (4, 4))
    assert got == series({0: 1, 6: F(-1, 3), 7: F(88, 105), 8: F(-15, 14)})


def test_multiple_point_node_with_line_branch_is_square_root():
    half = multiple_point_factor(2, (3,))
    assert half == series({0: 1, 6: F(-1, 12), 7: F(101, 560), 8: F(-25, 128)})
    assert half * half == multiple_point_factor(2, (3, 3))


def test_multiple_point_line_node_contact_display():
    # node with one linear branch, the other of tangent contact k
    for k in range(2, 8):
        got = multiple_point_factor(2, (k + 1,))
        expected = series(
            {
                0: 1,
                6: F(-(k + 1) * (k + 2) * (k + 3), 720),
                7: F(3 * (k + 1) * (k**3 + 7 * k**2 + 21 * k + 23), 5040),
                8: F(-3 * (k + 1) * (k + 3) ** 2 * (2 * k**2 + 5 * k + 17), 40320),
            }
        )
        assert got == expected


@st.composite
def multiple_points(draw) -> tuple[int, tuple[int, ...]]:
    """(m, contacts): up to m nonlinear branches, each of contact m+1..m+11."""
    m = draw(st.integers(2, 8))
    return m, tuple(draw(st.lists(st.integers(m + 1, m + 11), max_size=m)))


@settings(max_examples=100)
@given(multiple_points())
def test_multiple_point_matches_symmetric_form(point):
    # the term is the cone's plus one closed per-branch term per contact,
    # and its factor the elementary-symmetric transcription
    m, contacts = point
    expected = list(corrections.tangent_cone_correction((1,) * m).a)
    for r in contacts:
        expected[6:] = [x + y for x, y in zip(expected[6:], oracles._branch_contact(m, r))]
    got = corrections.multiple_point_correction(m, contacts)
    assert got.a == tuple(expected) and got.den == 1
    assert factor(got) == oracles.ordinary_multiple_point_factor_sym(m, contacts)


def test_multiple_point_is_tangent_cone_plus_branch_contacts():
    # the closed per-branch form against one side term per branch, and the
    # m reduced lines, taken from e_k = C(m, k), against the m-tuple of ones
    for m in range(2, 13):
        cone = corrections.tangent_cone_correction((1,) * m).a
        assert corrections.multiple_point_correction(m, ()) == corrections.Correction(corrections.KIND_LOCAL, cone), m
        for r in range(m + 1, m + 12):
            expected = cone[:6] + tuple(x + y for x, y in zip(cone[6:], oracles._branch_contact(m, r)))
            assert corrections.multiple_point_correction(m, (r,)) == corrections.Correction(
                corrections.KIND_LOCAL, expected
            ), (m, r)


def test_smooth_branches_display():
    # every branch smooth, nonlinear, without inflection: contacts all m+1
    for m in range(2, 6):
        got = multiple_point_factor(m, (m + 1,) * m)
        per_branch = series(
            {
                0: 1,
                6: F(-m * (m**3 + m**2 + m + 16), 720),
                7: F(3 * (2 * m**5 + 2 * m**4 + 2 * m**3 + 37 * m**2 + 16 * m + 11), 5040),
                8: F(-21 * (m**6 + m**5 + m**4 + 21 * m**3 + 13 * m**2 + 17 * m + 9), 40320),
            }
        )
        assert got == per_branch ** (m * (m - 1))


# -- inflection bookkeeping -------------------------------------------------------


def test_flex_equivalent_examples():
    assert factor(corrections.flex_correction(0)) == ONE
    assert factor(corrections.flex_correction(1)) == factor(
        corrections.irreducible_correction(model.IrreducibleSingularity(1, 3))
    )
    assert factor(corrections.flex_correction(6)).coeffs[6] == F(-6, 48)
    assert corrections.flex_correction(1).a[6:] == (-15, 216, -1773)


def test_flex_correction_precondition():
    for printed in (False, True):
        with pytest.raises(corrections.FeatureError):
            corrections.flex_correction(-1, printed)
        assert ring(corrections.flex_correction(0, printed).term).is_zero()


def test_flex_factor_conventions():
    assert factor(corrections.flex_correction(1)).coeffs[6] == F(-1, 48)
    assert factor(corrections.flex_correction(1, printed=True)).coeffs[6] == F(-1, 42)


# -- structural invariants ---------------------------------------------------------


@settings(max_examples=40)
@given(
    line_components(max_mult=3, max_rest=5),
    st.integers(2, 9).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, d))),
    cone_mults(min_lines=3),
    sides(),
    truncations(),
    irreducibles(),
)
def test_orders_of_corrections(line, nonlinear, mults, side, trunc, sing):
    assert ring(corrections.line_correction(*line).term).order() == 3
    assert ring(corrections.nonlinear_correction(*nonlinear, 1).term).order() == 5
    for corr in (
        corrections.tangent_cone_correction(mults),
        corrections.newton_side_correction(side),
        corrections.truncation_correction(trunc),
        corrections.irreducible_correction(sing),
    ):
        assert ring(corr.term).is_zero() or ring(corr.term).order() >= 6


@settings(max_examples=50)
@given(st.integers(2, 3), cone_mults(), sides(), truncations())
def test_scaling_homogeneity_of_local_terms(multiple, mults, side, trunc):
    scaled = corrections.tangent_cone_correction(tuple(v * multiple for v in mults))
    assert scaled.term == ring(corrections.tangent_cone_correction(mults).term).substitute_scaled(multiple)

    scaled_side = model.NewtonSide(
        side.j0 * multiple,
        side.k0 * multiple,
        side.j1 * multiple,
        side.k1 * multiple,
        tuple(v * multiple for v in side.s),
    )
    assert corrections.newton_side_correction(scaled_side).term == ring(
        corrections.newton_side_correction(side).term
    ).substitute_scaled(multiple)

    scaled_trunc = model.Truncation(trunc.ell, trunc.weight * multiple, tuple(v * multiple for v in trunc.s))
    assert corrections.truncation_correction(scaled_trunc).term == ring(
        corrections.truncation_correction(trunc).term
    ).substitute_scaled(multiple)
