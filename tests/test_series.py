"""The oracle ring Q[H]/(H^9), and the shipped read-only series view."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from orbitdeg import series as shipped
from orbitdeg.series import rational_to_string, to_rational, predegree_strings
from oracles import TruncSeries, exp_linear, ring
from conftest import random_rational


def series(terms):
    return TruncSeries.from_terms(terms)


def random_series(rng):
    return TruncSeries(random_rational(rng) for _ in range(9))


def test_add_cancellation():
    assert series({0: 1, 1: 1}) + series({0: 1, 1: -1}) == TruncSeries.constant(2)


def test_add_identity():
    rng = random.Random(1)
    s = random_series(rng)
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


def test_substitute_scaled_identity_and_top():
    rng = random.Random(2)
    s = random_series(rng)
    assert s.substitute_scaled(1) == s
    assert TruncSeries.monomial(8).substitute_scaled(2) == TruncSeries.monomial(8, 256)


def test_power_basics():
    assert series({0: 1, 1: 1}) ** 0 == TruncSeries.one()
    line = series({0: 1, 1: 1, 2: F(1, 2)})
    assert line**2 == series({0: 1, 1: 2, 2: 2, 3: 1, 4: F(1, 4)})


def test_power_of_order_six_factor_is_binomial():
    factor = series({0: 1, 6: F(-1, 48), 7: F(3, 70), 8: F(-197, 4480)})
    assert factor**6 == TruncSeries.one() + 6 * (factor - TruncSeries.one())


def test_app_coefficient_examples():
    cuspidal_tail = series({7: F(1, 70)})
    assert cuspidal_tail.app_coefficient(7) == 72
    conic_tail = series({5: F(1, 15)})
    assert conic_tail.app_coefficient(5) == 8
    rng = random.Random(3)
    s = random_series(rng)
    assert s.app_coefficient(0) == s.coeffs[0]


def test_app_coefficient_round_trip():
    rng = random.Random(4)
    targets = [random_rational(rng) for _ in range(9)]
    s = TruncSeries(a / factorial(i) for i, a in enumerate(targets))
    assert list(s.app_coefficients()) == targets


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_series(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exponential_law_random_rationals():
    rng = random.Random(6)
    for _ in range(20):
        a = random_rational(rng)
        b = random_rational(rng)
        assert exp_linear(a) * exp_linear(b) == exp_linear(a + b)


def test_derivative_of_antiderivative():
    rng = random.Random(7)
    for _ in range(20):
        s = random_series(rng)
        expected = TruncSeries(list(s.coeffs[:8]))
        assert s.antiderivative().derivative() == expected


def test_substitute_scaled_composes():
    rng = random.Random(8)
    for _ in range(20):
        s = random_series(rng)
        assert s.substitute_scaled(2).substitute_scaled(3) == s.substitute_scaled(6)


def test_order():
    assert TruncSeries.zero().order() is None
    assert TruncSeries.monomial(4).order() == 4
    assert series({2: 1, 7: 3}).order() == 2


def test_series_string_round_trip():
    rng = random.Random(9)
    s = random_series(rng)
    assert TruncSeries.from_strings(s.to_strings()) == s


def test_rational_strings():
    assert rational_to_string(F(3)) == "3"
    assert rational_to_string(F(-5, 7)) == "-5/7"
    assert to_rational("22/7") == F(22, 7)
    assert to_rational("-4") == F(-4)
    with pytest.raises(ValueError):
        to_rational("3.5")



def random_view(rng):
    return shipped.TruncSeries([rng.randint(-99, 99) for _ in range(9)], rng.randint(1, 12))


def test_view_coefficients_and_strings():
    rng = random.Random(10)
    for _ in range(50):
        view = random_view(rng)
        assert view.coeffs == tuple(F(v, factorial(i) * view.den) for i, v in enumerate(view.a))
        assert view.to_strings() == [rational_to_string(c) for c in view.coeffs]
        assert view.to_strings() == predegree_strings(view.a, view.den)
        assert TruncSeries.from_strings(view.to_strings()) == view


def test_view_equality_ignores_the_denominator():
    rng = random.Random(11)
    for _ in range(50):
        view = random_view(rng)
        k = rng.randint(2, 5)
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
