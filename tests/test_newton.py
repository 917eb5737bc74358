"""Polygon extraction, side data, squarefree decomposition, local invariants."""

import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import poly_derivative, poly_monic, poly_mul
from orbitdeg import corpus, model, newton
from orbitdeg.newton import MonomialSupport, yun_squarefree
from strategies import (
    branch_curves,
    ordinary_branch_points,
    planted_gcd_pairs,
    puiseux_curves,
    rationals,
    supports,
    transverse_lines,
)

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


def exact_type(value):
    return int if F(value).denominator == 1 else F


@settings(max_examples=200)
@given(supports(min_terms=2), st.data())
def test_integral_coefficients_are_stored_as_ints_however_written(supp, data):
    # each coefficient written as a Fraction, as "num/den" or "2num/2den",
    # or, when it is integral, as an int
    terms = []
    for j, k, c in supp.terms:
        q = F(c)
        forms = [q, f"{q.numerator}/{q.denominator}", f"{2 * q.numerator}/{2 * q.denominator}"]
        if q.denominator == 1:
            forms.append(q.numerator)
        terms.append((j, k, data.draw(st.sampled_from(forms))))
    written = support(supp.degree, terms)
    assert [(j, k, c, type(c)) for j, k, c in written.terms] == [(j, k, c, exact_type(c)) for j, k, c in supp.terms]
    for side in newton.qualifying_sides(newton.newton_polygon(written)):
        side_data = newton.side_data(written, side)
        assert side_data == newton.side_data(supp, side)
        assert [type(g) for g in side_data.gammas] == [exact_type(g) for g in side_data.gammas]


def expand_branches(branches):
    """The terms (j, k, coefficient) of the product of z^q - c y^p over the
    branches (c, p, q)."""
    product = {(0, 0): 1}
    for c, p, q in branches:
        step = Counter()
        for (j, k), coeff in product.items():
            step[j, k + q] += coeff
            step[j + p, k] -= c * coeff
        product = step
    return [(j, k, coeff) for (j, k), coeff in sorted(product.items()) if coeff]


def support_of(branches):
    terms = expand_branches(branches)
    return support(max(j + k for j, k, _ in terms), terms)


@settings(max_examples=200)
@given(branch_curves())
def test_sides_of_a_product_of_branches(branches):
    # z = c y^e has slope -1/e: the branches with one e make one side,
    # steepest first, and k equal c on it make a root of multiplicity k
    supp = support_of([(c, e, 1) for c, e in branches])
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


@settings(max_examples=200)
@given(puiseux_curves())
def test_side_of_puiseux_branches(curve):
    # n branches z^q = c y^p make one side of slope -q/p, (0, nq) -> (np, 0);
    # its polynomial is the product of (t - c), so k equal c make a root of
    # multiplicity k
    p, q, cs = curve
    supp = support_of([(c, p, q) for c in cs])
    n = len(cs)
    polygon = newton.newton_polygon(supp)
    assert polygon.vertices == ((0, n * q), (n * p, 0))
    [side] = newton.qualifying_sides(polygon)
    data = newton.side_data(supp, side)
    assert (data.span, data.k0 - data.k1, data.j1 - data.j0) == (n, n * q, n * p)
    assert data.s_values() == tuple(sorted(Counter(cs).values(), reverse=True))


@settings(max_examples=200)
@given(transverse_lines(), st.none() | puiseux_curves())
def test_transverse_lines_make_no_qualifying_side(lines, curve):
    # lines z = c y make the side of slope -1, which does not qualify; after
    # it come the sides of any other branches
    n = len(lines)
    branches = [(c, 1, 1) for c in lines]
    vertices, qualifying = ((0, n), (n, 0)), []
    if curve:
        p, q, cs = curve
        branches += [(c, p, q) for c in cs]
        vertices = ((0, n + len(cs) * q), (n, len(cs) * q), (n + len(cs) * p, 0))
        qualifying = [vertices[1:]]
    polygon = newton.newton_polygon(support_of(branches))
    assert polygon.vertices == vertices
    assert newton.qualifying_sides(polygon) == qualifying


@settings(max_examples=200)
@given(ordinary_branch_points())
def test_side_of_the_shorthand_branch(point):
    # the lines make the side of slope -1, which does not qualify; the
    # branch makes (m-1, 1) -> (r, 0) with a simple root, the side that the
    # shorthand writes for it
    m, r, cs = point
    supp = support_of([(1, r - m + 1, 1)] + [(c, 1, 1) for c in cs])
    polygon = newton.newton_polygon(supp)
    sides = [newton.side_data(supp, side).as_newton_side() for side in newton.qualifying_sides(polygon)]
    assert sides == list(oracles.branch_sides(m, [r]))


def test_tacnode_side():
    # (z - y^2)(z - 2y^2): two smooth branches tangent to z = 0, apart at second order
    supp = support(4, [(0, 2, 1), (2, 1, -3), (4, 0, 2)])
    [side] = newton.qualifying_sides(newton.newton_polygon(supp))
    assert side == ((0, 2), (4, 0))
    assert newton.side_data(supp, side).s_values() == (1, 1)


def branch_frame(m, r):
    """A branch of contact r at an ordinary m-fold point, in the frame of
    its tangent z = 0: the branch z = y^(r-m+1) and the point's other m - 1
    branches as the lines z = c y, c = 1..m-1."""
    return [(1, r - m + 1, 1)] + [(c, 1, 1) for c in range(1, m)]


#: The local equations of each fixture point that has polygon sides, as
#: branches (c, p, q) for `support_of`: per shorthand branch the equation
#: in its tangent's frame, per composite point one equation.  In fixture
#: order, their qualifying sides are the fixture's sides.
FIXTURE_EQUATIONS = {
    "biflecnode-quartic": 6 * [branch_frame(2, 4)],
    "conic-line": 2 * [branch_frame(2, 3)],
    "conic-tangent-line": [[(0, 1, 1), (1, 2, 1)]],  # z (z - y^2): the line and the conic it touches
    "cubic-line-through-flex": 2 * [branch_frame(2, 3)] + [branch_frame(2, 4)],
    "cubic-line": 3 * [branch_frame(2, 3)],
    "nodal-quartic-3": 6 * [branch_frame(2, 3)],
    "nodal-quartic": 2 * [branch_frame(2, 3)],
    "quadritangent-conics": [[(1, 2, 1), (1, 2, 1)]],  # (z - y^2)^2
    "quartic-triple-point": 3 * [branch_frame(3, 4)],
    "rational-nodal-quintic": 12 * [branch_frame(2, 3)],
    "tacnodal-quartic": [[(1, 2, 1), (2, 2, 1)]],  # (z - y^2)(z - 2y^2)
    "two-transversal-conics": 8 * [branch_frame(2, 3)],
}


def test_fixture_sides_rebuilt_from_local_equations():
    # a fixture side that was mistyped, or a polygon step that went wrong,
    # shows up as a difference here
    rebuilt = {}
    for name, equations in FIXTURE_EQUATIONS.items():
        rebuilt[name] = []
        for branches in equations:
            supp = support_of(branches)
            polygon = newton.newton_polygon(supp)
            rebuilt[name] += [newton.side_data(supp, side).as_newton_side() for side in newton.qualifying_sides(polygon)]
    written = {}
    for path in corpus.fixture_paths(corpus.corpus_dir()):
        descriptor = model.descriptor_from_obj(json.loads(path.read_text(encoding="utf-8"))["descriptor"])
        points = oracles.expanded(descriptor).points
        sides = [side for point in points if isinstance(point, model.CompositePoint) for side in point.sides]
        if sides:
            written[path.stem] = sides
    assert rebuilt == written
    assert sum(map(len, written.values())) == 48


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
    assert newton._gcd_cofactors(a, b)[0] == [-1, 1]
    assert newton._gcd_cofactors(b, a)[0] == [-1, 1]
    assert newton._gcd_cofactors([-2, 0, -4], [])[0] == [1, 0, 2]


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
def test_yun_high_degree_product(degree):
    # Euclid over Q took seconds at degree 78: its remainder coefficients
    # grow to thousands of bits; the primitive PRS took seconds at degree 160
    product, expected = _blocks_product(degree)
    result = yun_squarefree(product)
    assert [(mult, [int(c) for c in factor]) for mult, factor in result] == expected
    assert all(c.denominator == 1 for _, factor in result for c in factor)
    rebuilt = [1]
    for mult, factor in expected:
        for _ in range(mult):
            rebuilt = _int_mul(rebuilt, factor)
    assert [-3 * c for c in rebuilt] == product


small_int_factors = st.builds(
    lambda constant, middle, lead: [constant, *middle, lead],
    st.integers(-3, 3).filter(bool),
    st.lists(st.integers(-3, 3), max_size=1),
    st.integers(-3, 3).filter(bool),
)


@settings(max_examples=150)
@given(st.lists(st.tuples(small_int_factors, st.integers(1, 3)), min_size=1, max_size=4))
def test_side_profile_is_the_squarefree_profile(blocks):
    # the side (0, n) -> (2n, 0) carries the product as its side polynomial:
    # the lattice point (2t, n - t) holds the coefficient of xi^(n - t)
    product = [1]
    for factor, mult in blocks:
        for _ in range(mult):
            product = _int_mul(product, factor)
    n = len(product) - 1
    supp = support(2 * n, [(2 * t, n - t, product[n - t]) for t in range(n + 1) if product[n - t]])
    [side] = newton.qualifying_sides(newton.newton_polygon(supp))
    assert side == ((0, n), (2 * n, 0))

    def profile(pairs):
        return tuple(sorted(((mult, len(factor) - 1) for mult, factor in pairs), reverse=True))

    assert newton.side_data(supp, side).profile == profile(yun_squarefree(product))
    assert profile(yun_squarefree(product)) == profile(oracles.yun_squarefree(product))
    # the wrapper's monic Fractions are the core's primitive integer factors
    core = newton._squarefree(product)
    assert all(type(c) is int for _, factor in core for c in factor)
    assert yun_squarefree(product) == [(mult, poly_monic(factor)) for mult, factor in core]


@settings(max_examples=300)
@given(planted_gcd_pairs())
def test_gcd_matches_the_prs_with_exact_cofactors(pair):
    a, b = pair
    g, a_over_g, b_over_g = newton._gcd_cofactors(a, b)
    assert newton._gcd_cofactors(a, b)[0] == g == oracles.prs_gcd(a, b)
    assert poly_monic(g) == oracles.poly_gcd(a, b)
    assert _int_mul(g, a_over_g) == a and _int_mul(g, b_over_g) == b


@settings(max_examples=100)
@given(planted_gcd_pairs(), factor_blocks, st.integers(1, 4))
def test_refused_candidates_are_passed_over(pair, blocks, refusals):
    # however many candidates divide neither input, the first one that
    # divides both is still the gcd
    real = newton._heuristic_candidates

    def refused_first(a, b):
        for _ in range(refusals):
            tried.append(1)
            yield [0] * (len(a) + len(b)) + [1]  # x^n, n above both degrees, divides neither
        yield from real(a, b)

    product = power_product(blocks)
    tried = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton, "_heuristic_candidates", refused_first)
        g = newton._gcd_cofactors(*pair)[0]
        result = yun_squarefree(product)
    assert len(tried) >= refusals
    assert g == oracles.prs_gcd(*pair)
    assert poly_monic(g) == oracles.poly_gcd(*pair)
    assert result == oracles.yun_squarefree(product)


def test_a_first_candidate_that_divides_one_input_is_refused(monkeypatch):
    # f = (x - 1)(x - 2)(x + 2): at xi = 10, gcd(f(10), f'(10)) = 12 reads
    # back as x + 2, which divides f but not f'
    real, pulled = newton._heuristic_candidates, []

    def counted(a, b):
        for candidate in real(a, b):
            pulled.append(candidate)
            yield candidate

    monkeypatch.setattr(newton, "_heuristic_candidates", counted)
    assert yun_squarefree([4, -4, -1, 1]) == [(1, [F(4), F(-4), F(-1), F(1)])]
    assert pulled[0] == [2, 1] and len(pulled) >= 2
