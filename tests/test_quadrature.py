import math

import numpy as np
import pytest

from crum.errors import AccuracyError, DomainError
from crum.quadrature import (DECAY_RADIUS, ENDPOINT_MARGIN, MAX_LEVEL, TOLERANCE, integrate,
                             nodes_weights, refinement_sequence)

FULL = (-math.inf, math.inf)
HALF = (0.0, math.inf)


def gauss(x):
    return np.exp(-x * x)


def test_full_line_gaussian():
    val, err = integrate(gauss, FULL)
    assert abs(val - math.sqrt(math.pi)) < 1e-12


def test_half_line_gaussian():
    val, _ = integrate(gauss, HALF)
    assert abs(val - 0.5 * math.sqrt(math.pi)) < 1e-11


def test_interval_with_endpoint_singularity():
    # integral of 1/sqrt(x) on (0,1) = 2; the margin keeps nodes off the
    # singular endpoint, so no node is infinite, but it leaves out the
    # 2 sqrt(margin / 2) of the integral next to 0, and with nodes arriving
    # at the margin the levels do not settle to TOLERANCE: the refusal's best
    # estimate falls short of 2 by that mass
    with pytest.raises(AccuracyError, match="did not converge") as exc:
        integrate(lambda x: x**-0.5, (0.0, 1.0))
    missing = 2.0 * math.sqrt(ENDPOINT_MARGIN * 0.5)
    assert abs(exc.value.best - (2.0 - missing)) < 1e-2 * missing


def test_refinement_contract():
    # doubling the node density changes the result by less than the tolerance
    val, err = integrate(gauss, FULL)
    assert err < TOLERANCE * (1 + abs(val))


def test_complex_valued_integrand():
    val, _ = integrate(lambda x: np.exp(-x * x) * (1 + 1j * x), FULL)
    assert abs(val - math.sqrt(math.pi)) < 1e-11


def test_divergent_integrand_flagged():
    values, diverging = refinement_sequence(lambda x: np.exp(np.minimum(x * x, 700.0)), FULL,
                                            MAX_LEVEL)
    assert diverging


def test_convergent_norm_not_flagged():
    values, diverging = refinement_sequence(gauss, FULL, MAX_LEVEL)
    assert not diverging
    assert abs(values[-1] - math.sqrt(math.pi)) < 1e-9


def test_nonconvergent_raises_with_best():
    # the last two levels still differ by about 1.2e-2
    rough = lambda x: np.cos(50.0 / (1e-4 + np.abs(x))) / (1 + x * x)
    with pytest.raises(AccuracyError, match="did not converge") as exc:
        integrate(rough, FULL)
    assert exc.value.best is not None


# -- array integrands -----------------------------------------------------------

def test_integrand_called_once_per_level():
    calls = []

    def counted(x):
        calls.append(x.size)
        return gauss(x)

    integrate(counted, FULL)
    assert len(calls) >= 2
    assert calls == [nodes_weights(FULL, level)[0].size for level in range(len(calls))]


def test_stacked_integrands_share_one_refinement():
    val, err = integrate(lambda x: np.stack([gauss(x), x * x * gauss(x)]), FULL)
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

    domain = {"full_line": FULL, "half_line": HALF, "interval": (0.0, math.pi)}[kind]
    val, _ = integrate(fn, domain)
    ref, _ = scalar_integrate(lambda x: complex(fn(np.array([x]))[0]), domain)
    assert abs(val - ref) <= 1e-14 * (1 + abs(ref))


def test_non_finite_node_inside_the_domain_raises():
    bad = nodes_weights(FULL, 0)[0][23]

    def holed(x):
        return np.where(x == bad, np.nan, gauss(x))

    with pytest.raises(AccuracyError, match=f"node x={bad:g}"):
        integrate(holed, FULL)
    with pytest.raises(AccuracyError, match="not finite"):
        integrate(lambda x: np.where(x > 0.9, np.inf, x), (0.0, 1.0))


def test_non_finite_beyond_decay_radius_counts_as_zero():
    val, _ = integrate(lambda x: np.where(np.abs(x) > DECAY_RADIUS, np.nan, gauss(x)), FULL)
    assert abs(val - math.sqrt(math.pi)) < 1e-12
    values, diverging = refinement_sequence(
        lambda x: np.where(np.abs(x) > DECAY_RADIUS, np.nan, gauss(x)), FULL, 4)
    assert diverging


@pytest.mark.parametrize("domain", [(1.0, math.inf), (-math.inf, 0.0), (2.0, 1.0)])
def test_a_domain_without_a_map_raises(domain):
    # the half line is (0, inf) only: (1, inf) must not be integrated as it
    with pytest.raises(DomainError, match="no quadrature over"):
        integrate(lambda x: np.exp(-x), domain)
    with pytest.raises(DomainError, match="no quadrature over"):
        refinement_sequence(lambda x: np.exp(-x), domain, 2)
