import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crum.errors import CapabilityError, PoleError
from crum.jets import Jet


def test_variable_jet():
    j = Jet.variable(2.0 + 1j, 3)
    assert j.value == 2.0 + 1j
    assert j.coeffs[1] == 1.0
    assert j.coeffs[2] == 0.0


def test_polynomial_square():
    x = 1.0 + 0j
    j = Jet.variable(x, 2)
    sq = j * j
    assert [complex(c) for c in sq.coeffs] == [1.0, 2.0, 1.0]


def test_division_inverse():
    j = Jet.variable(0.7 + 0.2j, 5)
    one = (j / j).coeffs
    assert abs(one[0] - 1.0) < 1e-15
    assert all(abs(c) < 1e-15 for c in one[1:])


def test_exp_log_roundtrip():
    j = Jet.variable(0.4, 6) * (1.3 - 0.2j) + 0.5
    back = j.exp().log()
    for a, b in zip(back.coeffs, j.coeffs):
        assert abs(a - b) < 1e-13


def test_exp_derivatives_match_function():
    # exp(-x^2/2) at 0: coefficients 1, 0, -1/2
    j = Jet.variable(0.0 + 0j, 2)
    g = (-0.5 * j * j).exp()
    assert abs(g.coeffs[0] - 1.0) < 1e-15
    assert abs(g.coeffs[1]) < 1e-15
    assert abs(g.coeffs[2] + 0.5) < 1e-15


def test_log_and_sqrt_at_a_real_anchor_take_the_complex_branch():
    # a real anchor's value is complex, so log(-1) is i pi and sqrt(-4) is 2i
    # (numpy's real log and sqrt give nan there); a zero value is a pole
    lg = Jet.variable(-1.0, 1).log()
    assert lg.value == 1j * math.pi
    assert lg.deriv(1) == -1.0
    assert (Jet.variable(-4.0, 0)).sqrt().value == 2j
    assert (Jet.const(-1.0, 0.5, 1)).log().value == 1j * math.pi
    with pytest.raises(PoleError):
        Jet.variable(0.0, 2).log()


def test_sincos_pythagoras():
    j = Jet.variable(0.3 + 0.1j, 5)
    s, c = j.sincos()
    ident = s * s + c * c
    assert abs(ident.coeffs[0] - 1.0) < 1e-14
    assert all(abs(v) < 1e-13 for v in ident.coeffs[1:])


def test_sqrt_squares_back():
    j = Jet.variable(2.0, 4) + 1.5
    r = j.sqrt()
    sq = r * r
    for a, b in zip(sq.coeffs, j.coeffs):
        assert abs(a - b) < 1e-13


def test_derivative_shift():
    j = Jet(0.0, [1.0, 2.0, 3.0, 4.0])
    d = j.derivative()
    assert [complex(c) for c in d.coeffs] == [2.0, 6.0, 12.0]


def test_deriv_values_factorial_scaling():
    j = Jet.variable(1.0, 3)
    cube = j * j * j
    assert abs(cube.deriv(2) - 6.0) < 1e-14
    assert abs(cube.deriv(3) - 6.0) < 1e-14


def test_deriv_beyond_order_raises():
    with pytest.raises(CapabilityError):
        Jet.variable(0.0, 2).deriv(3)


def test_array_coefficients_batch():
    xs = np.linspace(-1, 1, 7).astype(complex)
    j = Jet.variable(xs, 2)
    g = (-0.5 * j * j).exp()
    expected = np.exp(-0.5 * xs**2)
    assert np.allclose(g.value, expected)
    assert np.allclose(g.deriv(1), -xs * expected)


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_product_rule_first_coefficient(a, b):
    x = 0.3 + 0.4j
    ja = Jet.variable(x, 3) * a + 1.0
    jb = Jet.variable(x, 3) * b - 0.5j
    prod = ja * jb
    # c1 of product = a'b + ab'
    assert abs(prod.coeffs[1] - (a * jb.coeffs[0] + ja.coeffs[0] * b)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1.2, max_value=1.2, allow_nan=False))
def test_exp_jet_matches_cmath(x0):
    j = Jet.variable(complex(x0), 4)
    g = (j * (0.7 + 0.1j)).exp()
    assert cmath.isclose(g.value, cmath.exp((0.7 + 0.1j) * x0), rel_tol=1e-13)
    # first derivative of exp(cx) is c exp(cx)
    assert abs(g.deriv(1) - (0.7 + 0.1j) * g.value) < 1e-13
