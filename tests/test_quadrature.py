import math

import numpy as np
import pytest

from crum.errors import AccuracyError
from crum.quadrature import QuadratureSpec, integrate, refinement_sequence


def gauss(x):
    return np.exp(-x * x)


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
    val, _ = integrate(lambda x: np.exp(-x * x) * (1 + 1j * x), spec)
    assert abs(val - math.sqrt(math.pi)) < 1e-11


def test_divergent_integrand_flagged():
    spec = QuadratureSpec(kind="full_line")
    values, diverging = refinement_sequence(lambda x: np.exp(np.minimum(x * x, 700.0)), spec)
    assert diverging


def test_convergent_norm_not_flagged():
    spec = QuadratureSpec(kind="full_line")
    values, diverging = refinement_sequence(gauss, spec)
    assert not diverging
    assert abs(values[-1] - math.sqrt(math.pi)) < 1e-9


def test_nonconvergent_raises_with_best():
    rough = lambda x: np.cos(50.0 / (1e-4 + np.abs(x))) / (1 + x * x)
    try:
        integrate(rough, QuadratureSpec(kind="full_line", tolerance=1e-15, max_level=2))
    except AccuracyError as exc:
        assert exc.best is not None
    else:
        pytest.fail("expected AccuracyError")


# -- array integrands -----------------------------------------------------------

def test_integrand_called_once_per_level():
    calls = []
    spec = QuadratureSpec(kind="full_line", tolerance=1e-12)

    def counted(x):
        calls.append(x.size)
        return gauss(x)

    integrate(counted, spec)
    assert len(calls) >= 2
    assert calls == [spec.nodes_weights(level)[0].size for level in range(len(calls))]


def test_stacked_integrands_share_one_refinement():
    spec = QuadratureSpec(kind="full_line", tolerance=1e-12)
    val, err = integrate(lambda x: np.stack([gauss(x), x * x * gauss(x)]), spec)
    assert val.shape == (2,)
    assert abs(val[0] - math.sqrt(math.pi)) < 1e-12
    assert abs(val[1] - 0.5 * math.sqrt(math.pi)) < 1e-12
    assert isinstance(err, float)


@pytest.mark.parametrize("fn,kind", [
    (lambda x: np.exp(-x * x) * (1 + 1j * x), "full_line"),
    (lambda x: x**2.5 * np.exp(-x * x), "half_line"),
    (lambda x: np.sin(x) ** 4 * (1 + np.cos(x)), "interval"),
])
def test_array_integrate_matches_per_node_oracle(fn, kind):
    from conftest import scalar_integrate

    spec = QuadratureSpec(kind=kind, a=0.0, b=math.pi, tolerance=1e-12)
    val, _ = integrate(fn, spec)
    ref, _ = scalar_integrate(lambda x: complex(fn(np.array([x]))[0]), spec)
    assert abs(val - ref) <= 1e-14 * (1 + abs(ref))


def test_non_finite_node_inside_the_domain_raises():
    spec = QuadratureSpec(kind="full_line", tolerance=1e-12)
    bad = spec.nodes_weights(0)[0][23]

    def holed(x):
        return np.where(x == bad, np.nan, gauss(x))

    with pytest.raises(AccuracyError, match=f"node x={bad:g}"):
        integrate(holed, spec)
    interval = QuadratureSpec(kind="interval", a=0.0, b=1.0)
    with pytest.raises(AccuracyError, match="not finite"):
        integrate(lambda x: np.where(x > 0.9, np.inf, x), interval)


def test_non_finite_beyond_decay_radius_counts_as_zero():
    spec = QuadratureSpec(kind="full_line", tolerance=1e-12)
    val, _ = integrate(lambda x: np.where(np.abs(x) > spec.decay_radius, np.nan, gauss(x)), spec)
    assert abs(val - math.sqrt(math.pi)) < 1e-12
    values, diverging = refinement_sequence(
        lambda x: np.where(np.abs(x) > spec.decay_radius, np.nan, gauss(x)), spec, levels=4)
    assert diverging
