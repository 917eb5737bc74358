"""The oracle ring Q[H]/(H^9), and the shipped read-only series view."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdeg import series as shipped
from orbitdeg.series import rational_to_string, to_rational, predegree_strings
from oracles import TruncSeries, exp_linear, ring
from strategies import rationals, ring_series, series_views


def series(terms):
    return TruncSeries.from_terms(terms)


def test_add_cancellation():
    assert series({0: 1, 1: 1}) + series({0: 1, 1: -1}) == TruncSeries.constant(2)


@settings(max_examples=10)
@given(ring_series())
def test_add_identity(s):
    assert s + TruncSeries.zero() == s


def test_add_top_degree():
    assert TruncSeries.monomial(8) + TruncSeries.monomial(8) == TruncSeries.monomial(8, 2)


def test_mul_difference_of_squares():
    assert series({0: 1, 1: 1}) * series({0: 1, 1: -1}) == series({0: 1, 2: -1})


def test_mul_truncates():
    assert TruncSeries.monomial(5) * TruncSeries.monomial(4) == TruncSeries.zero()


def test_exponential_law_integer():
    assert exp_linear(2) * exp_linear(3) == exp_linear(5)


def test_exp_linear_zero_and_one():
    assert exp_linear(0) == TruncSeries.one()
    expected = TruncSeries(F(1, factorial(i)) for i in range(9))
    assert exp_linear(1) == expected


def test_exp_linear_two_fifth_coefficient():
    assert exp_linear(2).coeffs[5] == F(4, 15)


def test_antiderivative_basics():
    assert TruncSeries.one().antiderivative() == TruncSeries.monomial(1)
    assert TruncSeries.monomial(2).antiderivative() == TruncSeries.monomial(3, F(1, 3))
    assert TruncSeries.monomial(8).antiderivative() == TruncSeries.zero()


def test_substitute_scaled_line():
    line = series({0: 1, 1: 1, 2: F(1, 2)})
    # independent oracle: the product form for a multiplicity-2 line
    doubled = series({0: 1, 1: 2, 2: F(4, 2)})
    assert line.substitute_scaled(2) == doubled


@settings(max_examples=10)
@given(ring_series())
def test_substitute_scaled_identity_and_top(s):
    assert s.substitute_scaled(1) == s
    assert TruncSeries.monomial(8).substitute_scaled(2) == TruncSeries.monomial(8, 256)


def test_power_basics():
    assert series({0: 1, 1: 1}) ** 0 == TruncSeries.one()
    line = series({0: 1, 1: 1, 2: F(1, 2)})
    assert line**2 == series({0: 1, 1: 2, 2: 2, 3: 1, 4: F(1, 4)})


def test_power_of_order_six_factor_is_binomial():
    factor = series({0: 1, 6: F(-1, 48), 7: F(3, 70), 8: F(-197, 4480)})
    assert factor**6 == TruncSeries.one() + 6 * (factor - TruncSeries.one())


@settings(max_examples=10)
@given(ring_series())
def test_app_coefficient_examples(s):
    cuspidal_tail = series({7: F(1, 70)})
    assert cuspidal_tail.app_coefficient(7) == 72
    conic_tail = series({5: F(1, 15)})
    assert conic_tail.app_coefficient(5) == 8
    assert s.app_coefficient(0) == s.coeffs[0]


@settings(max_examples=10)
@given(st.lists(rationals(), min_size=9, max_size=9))
def test_app_coefficient_round_trip(targets):
    s = TruncSeries(a / factorial(i) for i, a in enumerate(targets))
    assert list(s.app_coefficients()) == targets


@settings(max_examples=25)
@given(ring_series(), ring_series(), ring_series())
def test_ring_axioms_random(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=20)
@given(rationals(), rationals())
def test_exponential_law_random_rationals(a, b):
    assert exp_linear(a) * exp_linear(b) == exp_linear(a + b)


@settings(max_examples=20)
@given(ring_series())
def test_derivative_of_antiderivative(s):
    assert s.antiderivative().derivative() == TruncSeries(list(s.coeffs[:8]))


@settings(max_examples=20)
@given(ring_series())
def test_substitute_scaled_composes(s):
    assert s.substitute_scaled(2).substitute_scaled(3) == s.substitute_scaled(6)


def test_order():
    assert TruncSeries.zero().order() is None
    assert TruncSeries.monomial(4).order() == 4
    assert series({2: 1, 7: 3}).order() == 2


@settings(max_examples=10)
@given(ring_series())
def test_series_string_round_trip(s):
    assert TruncSeries.from_strings(s.to_strings()) == s


def test_rational_strings():
    assert rational_to_string(F(3)) == "3"
    assert rational_to_string(F(-5, 7)) == "-5/7"
    assert to_rational("22/7") == F(22, 7)
    assert to_rational("-4") == F(-4)
    with pytest.raises(ValueError):
        to_rational("3.5")


@settings(max_examples=50)
@given(series_views())
def test_view_coefficients_and_strings(view):
    assert view.coeffs == tuple(F(v, factorial(i) * view.den) for i, v in enumerate(view.a))
    assert view.to_strings() == [rational_to_string(c) for c in view.coeffs]
    assert view.to_strings() == predegree_strings(view.a, view.den)
    assert TruncSeries.from_strings(view.to_strings()) == view


@settings(max_examples=50)
@given(series_views(), st.integers(2, 5))
def test_view_equality_ignores_the_denominator(view, k):
    same = shipped.TruncSeries([k * v for v in view.a], k * view.den)
    assert same == view and hash(same) == hash(view)
    assert ring(view) == view and hash(ring(view)) == hash(view)
    assert str(same) == str(view)
    other = shipped.TruncSeries(view.a[:8] + (view.a[8] + 1,), view.den)
    assert other != view


def test_view_string_form():
    view = shipped.TruncSeries((2, -3, 0, 12, 144, 0, -1440, 5040, 8), 2)
    assert str(view) == "1 - (3/2)*H + H^3 + 3*H^4 - H^6 + (1/2)*H^7 + (1/10080)*H^8"
    assert str(shipped.TruncSeries((0,) * 9)) == "0"
    assert repr(shipped.TruncSeries((-1,) + (0,) * 8)) == "TruncSeries(-1)"


def test_view_is_read_only():
    view = shipped.TruncSeries((1,) + (0,) * 8)
    with pytest.raises(AttributeError):
        view.a = (0,) * 9
