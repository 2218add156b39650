import cmath
import math

import pytest

from crum.errors import AccuracyError
from crum.quadrature import QuadratureSpec, integrate, refinement_sequence


def gauss(x):
    return math.exp(-x * x)


def test_full_line_gaussian():
    val, err = integrate(gauss, QuadratureSpec(kind="full_line", tolerance=1e-12))
    assert abs(val - math.sqrt(math.pi)) < 1e-12


def test_half_line_gaussian():
    val, _ = integrate(gauss, QuadratureSpec(kind="half_line", tolerance=1e-12))
    assert abs(val - 0.5 * math.sqrt(math.pi)) < 1e-11


def test_interval_with_endpoint_singularity():
    # integral of 1/sqrt(x) on (0,1) = 2; the margin keeps nodes off the
    # singular endpoint, which caps accuracy at the sqrt of the margin
    spec = QuadratureSpec(kind="interval", a=0.0, b=1.0, tolerance=1e-8,
                          endpoint_margin=1e-14)
    val, _ = integrate(lambda x: x**-0.5, spec)
    assert abs(val - 2.0) < 1e-6


def test_refinement_contract():
    # doubling the node density changes the result by less than the tolerance
    spec = QuadratureSpec(kind="full_line", tolerance=1e-11)
    val, err = integrate(gauss, spec)
    assert err < 1e-11 * (1 + abs(val))


def test_complex_valued_integrand():
    spec = QuadratureSpec(kind="full_line", tolerance=1e-12)
    val, _ = integrate(lambda x: cmath.exp(-x * x) * (1 + 1j * x), spec)
    assert abs(val - math.sqrt(math.pi)) < 1e-11


def test_divergent_integrand_flagged():
    spec = QuadratureSpec(kind="full_line")
    values, diverging = refinement_sequence(lambda x: math.exp(min(x * x, 700.0)), spec)
    assert diverging


def test_convergent_norm_not_flagged():
    spec = QuadratureSpec(kind="full_line")
    values, diverging = refinement_sequence(gauss, spec)
    assert not diverging
    assert abs(values[-1] - math.sqrt(math.pi)) < 1e-9


def test_nonconvergent_raises_with_best():
    rough = lambda x: math.cos(50.0 / (1e-4 + abs(x))) / (1 + x * x)
    try:
        integrate(rough, QuadratureSpec(kind="full_line", tolerance=1e-15, max_level=2))
    except AccuracyError as exc:
        assert exc.best is not None
    else:
        pytest.fail("expected AccuracyError")
