"""Polygon extraction, side data, squarefree decomposition, local invariants."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import poly_derivative, poly_monic, poly_mul
from orbitdeg import newton
from orbitdeg.newton import MonomialSupport, yun_squarefree
from strategies import branch_curves, planted_gcd_pairs, rationals, supports

# the quartic (y^2 - x z)^2 = y^3 z written out at the point (1:0:0), tangent z = 0
QUARTIC_TERMS = [(4, 0, 1), (2, 1, -2), (0, 2, 1), (3, 1, -1)]


def support(degree, terms):
    return MonomialSupport.from_terms(degree, terms)


def hull_reference(points):
    """Vertices by direct support-function sweep: a point is a vertex exactly
    when it is the unique minimizer of w*j + k for some weight w > 0."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    slopes = set()
    for i, (j1, k1) in enumerate(pts):
        for j2, k2 in pts[i + 1 :]:
            if j1 != j2:
                w = F(k2 - k1, j1 - j2)
                if w > 0:
                    slopes.add(w)
    ordered = sorted(slopes)
    weights = [ordered[0] / 2] if ordered else [F(1)]
    weights += [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    if ordered:
        weights.append(ordered[-1] + 1)
    vertices = []
    for pj, pk in pts:
        for w in weights:
            value = w * pj + pk
            if all(w * qj + qk > value for qj, qk in pts if (qj, qk) != (pj, pk)):
                vertices.append((pj, pk))
                break
    return sorted(vertices)


def test_quartic_polygon():
    polygon = newton.newton_polygon(support(4, QUARTIC_TERMS))
    assert polygon.vertices == ((0, 2), (4, 0))


def test_single_term_polygon():
    polygon = newton.newton_polygon(support(5, [(0, 3, 1)]))
    assert polygon.vertices == ((0, 3),)
    assert newton.qualifying_sides(polygon) == []


def test_flex_support_polygon():
    polygon = newton.newton_polygon(support(4, [(0, 1, 1), (3, 0, 2)]))
    assert polygon.vertices == ((0, 1), (3, 0))
    assert newton.qualifying_sides(polygon) == [((0, 1), (3, 0))]


def test_slope_minus_one_excluded():
    # two lines through the point: z * (z - y) has no side in (-1, 0)
    polygon = newton.newton_polygon(support(2, [(0, 2, 1), (1, 1, -1)]))
    assert newton.qualifying_sides(polygon) == []


def test_qualifying_side_of_quartic():
    polygon = newton.newton_polygon(support(4, QUARTIC_TERMS))
    sides = newton.qualifying_sides(polygon)
    assert sides == [((0, 2), (4, 0))]


def test_empty_support_rejected():
    empty = MonomialSupport(4, ())
    with pytest.raises(newton.SupportError):
        newton.newton_polygon(empty)
    with pytest.raises(newton.SupportError, match="^empty support$"):
        newton.local_invariants(empty)


@settings(max_examples=500)
@given(supports())
def test_hull_against_reference(supp):
    polygon = newton.newton_polygon(supp)
    assert sorted(polygon.vertices) == hull_reference([(j, k) for j, k, _ in supp.terms])


def test_side_data_quartic():
    supp = support(4, QUARTIC_TERMS)
    data = newton.side_data(supp, ((0, 2), (4, 0)))
    assert data.span == 2
    assert data.gammas == (F(1), F(-2), F(1))
    assert data.profile == ((2, 1),)
    assert data.s_values() == (2,)
    side = data.as_newton_side()
    assert (side.j0, side.k0, side.j1, side.k1, side.s) == (0, 2, 4, 0, (2,))


def test_side_data_flex():
    supp = support(3, [(0, 1, 2), (3, 0, 5)])
    data = newton.side_data(supp, ((0, 1), (3, 0)))
    assert data.span == 1
    assert data.gammas == (F(2), F(5))
    assert data.profile == ((1, 1),)


def test_side_data_two_simple_roots():
    supp = support(4, [(0, 2, 1), (4, 0, -1), (1, 0, 1)])
    data = newton.side_data(supp, ((0, 2), (4, 0)))
    assert data.gammas == (F(1), F(0), F(-1))
    assert data.profile == ((1, 2),)
    assert data.s_values() == (1, 1)


def test_side_data_missing_endpoint_coefficients():
    # not a hull side: a side whose end is not a support term is refused
    supp = support(4, [(2, 1, -2), (4, 0, 1)])
    with pytest.raises(newton.SupportError, match=r"^side endpoint \(0, 2\) is not a term of the support$"):
        newton.side_data(supp, ((0, 2), (4, 0)))
    supp2 = support(4, [(0, 2, 1), (2, 1, -2)])
    with pytest.raises(newton.SupportError, match=r"^side endpoint \(4, 0\) is not a term of the support$"):
        newton.side_data(supp2, ((0, 2), (4, 0)))


def test_side_data_refuses_a_side_of_one_term():
    # its span would be gcd(0, 0) = 0
    supp = support(4, [(0, 2, 1), (4, 0, 1)])
    with pytest.raises(newton.SupportError, match=r"^side endpoints are the same term \(0, 2\)$"):
        newton.side_data(supp, ((0, 2), (0, 2)))


@settings(max_examples=200)
@given(supports(min_terms=2))
def test_side_data_random_invariants(supp):
    for side in newton.qualifying_sides(newton.newton_polygon(supp)):
        data = newton.side_data(supp, side)
        assert data.gammas[0] != 0 and data.gammas[-1] != 0
        assert sum(mult * count for mult, count in data.profile) == data.span


def expand_branches(branches):
    """The terms (j, k, coefficient) of the product of z - c y^e over the
    branches (c, e)."""
    product = {(0, 0): 1}
    for c, e in branches:
        step = Counter()
        for (j, k), coeff in product.items():
            step[j, k + 1] += coeff
            step[j + e, k] -= c * coeff
        product = step
    return [(j, k, coeff) for (j, k), coeff in sorted(product.items()) if coeff]


@settings(max_examples=200)
@given(branch_curves())
def test_sides_of_a_product_of_branches(branches):
    # z = c y^e has slope -1/e: the branches with one e make one side,
    # steepest first, and k equal c on it make a root of multiplicity k
    terms = expand_branches(branches)
    supp = support(max(j + k for j, k, _ in terms), terms)
    by_exponent = {}
    for c, e in branches:
        by_exponent.setdefault(e, Counter())[c] += 1
    vertices = [(0, len(branches))]
    expected = []
    for e, by_c in sorted(by_exponent.items()):
        j, k = vertices[-1]
        count = sum(by_c.values())
        vertices.append((j + e * count, k - count))
        expected.append((tuple(vertices[-2:]), tuple(sorted(by_c.values(), reverse=True))))
    polygon = newton.newton_polygon(supp)
    assert polygon.vertices == tuple(vertices)
    assert [(side, newton.side_data(supp, side).s_values()) for side in newton.qualifying_sides(polygon)] == expected


def test_tacnode_side():
    # (z - y^2)(z - 2y^2): two smooth branches tangent to z = 0, apart at second order
    supp = support(4, [(0, 2, 1), (2, 1, -3), (4, 0, 2)])
    [side] = newton.qualifying_sides(newton.newton_polygon(supp))
    assert side == ((0, 2), (4, 0))
    assert newton.side_data(supp, side).s_values() == (1, 1)


def test_local_invariants_quartic():
    assert newton.local_invariants(support(4, QUARTIC_TERMS)) == (2, 4)


def test_local_invariants_smooth_flex():
    for k in range(3, 7):
        supp = support(k, [(0, 1, 1), (k, 0, -1)])
        assert newton.local_invariants(supp) == (1, k)


def test_local_invariants_line_component():
    supp = support(3, [(0, 1, 1), (1, 1, 2)])
    multiplicity, contact = newton.local_invariants(supp)
    assert contact is None


def test_local_invariants_point_not_on_curve():
    with pytest.raises(newton.SupportError):
        newton.local_invariants(support(2, [(0, 0, 1), (1, 0, 1)]))


# -- exact univariate polynomials -------------------------------------------------


def test_yun_double_root():
    # t^2 (t - 1)
    p = [F(0), F(0), F(-1), F(1)]
    result = yun_squarefree(p)
    assert [(mult, len(factor) - 1) for mult, factor in result] == [(1, 1), (2, 1)]


def test_yun_irreducible_square():
    # (t^2 - 2)^2 has two conjugate double roots
    p = poly_mul([F(-2), F(0), F(1)], [F(-2), F(0), F(1)])
    result = yun_squarefree(p)
    assert [(mult, len(factor) - 1) for mult, factor in result] == [(2, 2)]


def test_yun_squarefree_input():
    p = [F(6), F(-5), F(1)]  # (t-2)(t-3)
    result = yun_squarefree(p)
    assert [(mult, len(factor) - 1) for mult, factor in result] == [(1, 2)]


def test_yun_zero_and_constant():
    with pytest.raises(ValueError, match="^zero polynomial has no squarefree decomposition$"):
        yun_squarefree([F(0), 0, "0"])
    assert yun_squarefree([F(-3, 2), 0]) == []


def test_poly_gcd_is_primitive_with_positive_lead():
    # gcd of 6(x - 1)^2 (x + 2) and -4(x - 1)(x + 3)
    a = [12, -18, 0, 6]
    b = [12, -8, -4]
    assert newton.poly_gcd(a, b) == [-1, 1]
    assert newton.poly_gcd(b, a) == [-1, 1]
    assert newton.poly_gcd([-2, 0, -4], []) == [1, 0, 2]


def test_poly_divmod_is_exact_division_over_the_integers():
    # (3x + 2)(x^2 - 5) by 3x + 2; 3x^3 + 2x^2 - 14x - 11 by the monic x - 1
    assert newton.poly_divmod([-10, -15, 2, 3], [2, 3]) == ([-5, 0, 1], [])
    assert newton.poly_divmod([-11, -14, 2, 3], [-1, 1]) == ([-9, 5, 3], [-20])
    with pytest.raises(ArithmeticError):
        newton.poly_divmod([1, 0, 1], [1, 2])
    with pytest.raises(ZeroDivisionError):
        newton.poly_divmod([1, 1], [0])


nonzero_rationals = rationals().filter(bool)
# a factor of degree 1 to 3 whose leading coefficient need not be 1
factors = st.builds(lambda low, lead: [*low, lead], st.lists(rationals(), min_size=1, max_size=3), nonzero_rationals)
factor_blocks = st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=3)


def power_product(blocks, lead=F(1)):
    """lead times the product of factor**mult over the blocks (factor, mult)."""
    product = [lead]
    for factor, mult in blocks:
        for _ in range(mult):
            product = poly_mul(product, factor)
    return product


@settings(max_examples=150)
@given(factor_blocks, nonzero_rationals)
def test_yun_properties(blocks, lead):
    product = power_product(blocks, lead)
    result = yun_squarefree(product)
    assert result == oracles.yun_squarefree(product)
    rebuilt = [F(1)]
    for mult, factor in result:
        assert factor[-1] == 1 and all(type(c) is F for c in factor)
        for _ in range(mult):
            rebuilt = poly_mul(rebuilt, factor)
    assert rebuilt == poly_monic(product)
    assert [mult for mult, _ in result] == sorted({mult for mult, _ in result})
    for i, (_, factor) in enumerate(result):
        assert oracles.poly_gcd(factor, poly_derivative(factor)) == [1]
        for _, other in result[i + 1 :]:
            assert oracles.poly_gcd(factor, other) == [1]


def _int_mul(a, b):
    if not (a and b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _blocks_product(degree):
    """Monic integer factors -- x + c for c = 1, -1, 2, -2, ... and
    irreducible quadratics x^2 + x + c -- raised to multiplicities cycling
    through 1, 2, 3, 4 until the product has the given degree, scaled by
    -3.  Returns the product and the expected [(multiplicity, factor)]."""
    linear = ([c, 1] for n in range(1, degree + 1) for c in (n, -n))
    quadratic = ([c, 1, 1] for c in range(1, degree + 1))
    by_mult = {}
    total = 0
    for step in range(degree):
        mult = step % 4 + 1
        factor = next(quadratic) if step % 3 == 2 else next(linear)
        if total + mult * (len(factor) - 1) > degree:
            factor, mult = next(linear), 1
            if total + 1 > degree:
                break
        by_mult[mult] = _int_mul(by_mult.get(mult, [1]), factor)
        total += mult * (len(factor) - 1)
    product = [-3]
    for mult, factor in by_mult.items():
        for _ in range(mult):
            product = _int_mul(product, factor)
    assert len(product) - 1 == degree
    return product, sorted(by_mult.items())


@pytest.mark.parametrize("degree", [78, 100, 160])
def test_yun_high_degree_product(monkeypatch, degree):
    # Euclid over Q took seconds at degree 78: its remainder coefficients
    # grow to thousands of bits; the PRS took seconds at degree 160, and
    # the heuristic gcd settles every step here without it
    prs_calls = []
    prs_gcd = newton._prs_gcd
    monkeypatch.setattr(newton, "_prs_gcd", lambda a, b: prs_calls.append(1) or prs_gcd(a, b))
    product, expected = _blocks_product(degree)
    result = yun_squarefree(product)
    assert [(mult, [int(c) for c in factor]) for mult, factor in result] == expected
    assert all(c.denominator == 1 for _, factor in result for c in factor)
    assert prs_calls == []
    rebuilt = [1]
    for mult, factor in expected:
        for _ in range(mult):
            rebuilt = _int_mul(rebuilt, factor)
    assert [-3 * c for c in rebuilt] == product


def _primitive_prs_gcd(a, b):
    return newton._prs_gcd(newton._primitive(a), newton._primitive(b))


@settings(max_examples=300)
@given(planted_gcd_pairs())
def test_gcd_matches_the_prs_with_exact_cofactors(pair):
    a, b = pair
    g, a_over_g, b_over_g = newton._gcd_cofactors(a, b)
    assert newton.poly_gcd(a, b) == g == _primitive_prs_gcd(a, b)
    assert _int_mul(g, a_over_g) == a and _int_mul(g, b_over_g) == b


@settings(max_examples=100)
@given(planted_gcd_pairs(), factor_blocks)
def test_prs_answers_when_every_heuristic_candidate_fails(pair, blocks):
    def refused(a, b):
        tried.append(1)
        yield [0] * (len(a) + len(b)) + [1]  # x^n, n above both degrees, divides neither

    product = power_product(blocks)
    tried = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton, "_heuristic_candidates", refused)
        g = newton.poly_gcd(*pair)
        result = yun_squarefree(product)
    assert tried
    assert g == _primitive_prs_gcd(*pair)
    assert poly_monic(g) == oracles.poly_gcd(*pair)
    assert result == oracles.yun_squarefree(product)
