import cmath
import math
import re

import numpy as np
import pytest

from conftest import (AW_PARAMS, energy_fit, factor_log_sum_oracle, jet_ring_poly_jet,
                      per_direction_log_sum, point_log_sum, poly_value, qpochhammer_inf, starred)
from crum import RunConfig, make_family, run_suite, virtual_state
from crum.analytic import inner_product, star_eval
from crum.errors import DomainError, ParameterError
from crum.families import _oracle_box
from crum.quadrature import MAX_LEVEL, nodes_weights, refinement_sequence
from crum import dqm as dqm_mod
from crum import oqm as oqm_mod


# -- construction and constraints ---------------------------------------------

def test_hermite_prepotential_and_potential(hermite):
    u = hermite.potential()
    for x in (-1.5, 0.0, 2.0):
        assert abs(u(x) - (x * x - 1.0)) < 1e-12


# W' is derived from the jet of W; the closed forms are the oracle
@pytest.mark.parametrize("name,params,w_prime", [
    ("hermite", {}, lambda x: -x),
    ("laguerre", {"g": 3.0}, lambda x: -x + 3.0 / x),
    ("jacobi", {"g": 2.0}, lambda x: 2.0 / cmath.tan(x)),
])
def test_w_prime_is_the_derivative_of_the_prepotential(name, params, w_prime):
    fam = make_family(name, **params)
    lo, hi = fam.interior()
    for x in np.linspace(lo, hi, 5):
        ref = w_prime(complex(x))
        assert abs(fam.w_prime()(x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_validation_rejects_a_ground_state_off_the_prepotential(monkeypatch):
    from crum import families
    from crum.jets import Jet

    h = families._hermite_family()
    # e^{-x^2} is positive, but with W' = -2x its potential 4x^2 - 2 has the
    # spectrum 4n, not hermite's 2n
    def w_log_jet(x, order):
        jx = Jet.variable(x, order)
        return -(jx * jx)

    bad = families.OqmFamily("hermite", {}, h.domain, w_log_jet, h._energy, h._recurrence,
                             h._eta_rule, h.shape, "")
    monkeypatch.setattr(families, "_hermite_family", lambda: bad)
    with pytest.raises(ParameterError, match="disagrees with grid oracle"):
        make_family("hermite")


def test_validation_rejects_a_wrong_difference_energy_rule(monkeypatch):
    # E_2 off by 1e-6 relative: far above the fit's rounding, far below any
    # other check's reach
    from crum import families

    real = families.DqmFamily._energy
    monkeypatch.setattr(families.DqmFamily, "_energy",
                        lambda self, n, p: real(self, n, p) * (1.0 + 1e-6 * (n == 2)))
    with pytest.raises(ParameterError, match=r"E_2=.* disagrees with difference-equation fit"):
        make_family("askey_wilson", **AW_PARAMS)


def test_validation_rejects_a_ground_state_that_is_no_zero_mode(monkeypatch):
    # log phi_0^2 + x/10 is phi_0 e^{x/20}: the lowering factor's two shifted
    # terms then differ by the factor e^{i gamma/20}
    from crum import families

    real = families.DqmFamily.log_phi0sq
    monkeypatch.setattr(families.DqmFamily, "log_phi0sq", lambda self, x: real(self, x) + 0.1 * x)
    with pytest.raises(ParameterError, match="ground-state zero mode fails at x=0.251327"):
        make_family("q_hermite", q=0.5)


GAUGE_FIT_SETS = ([("q_hermite", {"q": q}) for q in (0.02, 0.5, 0.99)]
                  + [("askey_wilson", {**AW_PARAMS, "q": q}) for q in (0.2, 0.6, 0.9)])


@pytest.mark.parametrize("name,params", GAUGE_FIT_SETS)
def test_gauge_fit_matches_the_phi_form_fit(name, params):
    # the polynomial-gauge fit on the real axis against the phi-form fit
    # through phi_0, sqrtV and H at Im +-|gamma|, at the same real points
    fam = make_family(name, validate=False, **params)
    xs = np.linspace(0.15 * math.pi, 0.85 * math.pi, 10)
    for n, (gauge, phi_form) in enumerate(zip(fam.oracle_levels(),
                                              energy_fit(fam, range(5), xs))):
        assert abs(gauge - phi_form) <= 1e-12 * (1 + abs(phi_form))
        assert abs(gauge - fam.energy(n)) <= 1e-12 * (1 + abs(fam.energy(n)))


def test_difference_oracle_evaluates_no_ground_state(monkeypatch):
    from crum import families

    calls = []
    real = families._FactorLogSum.at
    monkeypatch.setattr(families._FactorLogSum, "at",
                        lambda self, x: calls.append(x.shape) or real(self, x))
    fam = make_family("askey_wilson", validate=False, **{**AW_PARAMS, "q": 0.2})
    assert len(fam.oracle_levels()) == 5
    assert calls == []


def test_laguerre_constraint():
    with pytest.raises(ParameterError, match="g > 1"):
        make_family("laguerre", g=0.5)


def test_laguerre_with_a_high_wall_builds():
    # at g = 40 the g(g-1)/x^2 wall puts U(1) above the oracle box's bound, so
    # the box's right edge must be found past the well near x = sqrt(g)
    fam = make_family("laguerre", g=40)
    assert _oracle_box(fam)[1] > 2.0 * math.sqrt(40.0)
    assert run_suite(RunConfig(family="laguerre", params={"g": 40.0}, depth=2,
                               seed=7)).status == "pass"


@pytest.mark.xfail(strict=True, reason=(
    "Family.interior clips the half line at 8, so node_count scans (0.4, 7.6) and misses "
    "the well near x = sqrt(g) = 10: it reads 3 sign changes at levels 0 and 1"))
def test_laguerre_with_its_well_past_the_interior_clip_passes():
    assert run_suite(RunConfig(family="laguerre", params={"g": 100.0}, depth=1,
                               seed=7)).status == "pass"


def test_jacobi_constraint():
    with pytest.raises(ParameterError, match="g > 1"):
        make_family("jacobi", g=1.0)


def test_askey_wilson_zero_parameters_potential():
    fam = make_family("askey_wilson", a1=0, a2=0, a3=0, a4=0, q=0.5)
    v = dqm_mod.level0(fam).v
    for xr in (0.5, 1.3, 2.4):
        z2 = cmath.exp(2j * xr)
        expected = 1.0 / ((1 - z2) * (1 - 0.5 * z2))
        assert abs(v(xr) - expected) < 1e-13


def test_askey_wilson_modulus_constraint():
    with pytest.raises(ParameterError, match=r"\|a1\| < 1"):
        make_family("askey_wilson", a1=1.2, a2=0, a3=0, a4=0, q=0.5)


def test_askey_wilson_conjugation_closure_constraint():
    with pytest.raises(ParameterError, match="closed"):
        make_family("askey_wilson", a1=0.1 + 0.2j, a2=0.3, a3=-0.2, a4=0.15, q=0.5)


def test_q_range_constraint():
    with pytest.raises(ParameterError, match="0 < q < 1"):
        make_family("q_hermite", q=1.5)


def test_unknown_family():
    with pytest.raises(ParameterError):
        make_family("wilson")


# -- family accessors -----------------------------------------------------------

def test_energy_examples(hermite, q_hermite, jacobi):
    assert hermite.energy(3) == 6.0
    assert abs(q_hermite.energy(1) - 1.0) < 1e-14
    assert abs(jacobi.eta()(math.pi / 2)) < 1e-15


def test_phi_n_out_of_range(hermite):
    with pytest.raises(DomainError):
        hermite.phi(50)


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_shared_family_rules(name, request):
    # the rules written once on families.Family, the same on both kinds
    fam = request.getfixturevalue(name)
    top = fam.nmax
    for n in (-1, top + 1, range(top, top + 2)):
        with pytest.raises(DomainError,
                           match=f"^{re.escape(f'n={n} outside tabulated range 0..{top}')}$"):
            fam.phi(n)
    with pytest.raises(DomainError, match="energy level must be >= 0"):
        fam.energy(-1)
    descriptor = fam.descriptor()
    assert list(descriptor) == ["name", "params", "gamma", "domain", "nmax"]
    assert descriptor["gamma"] == (None if fam.kind == "oqm" else math.log(fam.q))
    a, b = fam.domain
    nodes, _weights = nodes_weights(fam.domain, 0)
    assert np.all((nodes > a) & (nodes < b))
    if fam.kind == "dqm":
        assert fam.interior() == (0.05 * math.pi, 0.95 * math.pi)
    phi0 = fam.phi(0)
    assert fam.hnorm(0) == inner_product(phi0, phi0, fam.domain).real


def test_aw_potential_star_pair(askey_wilson):
    for xr in (0.6, 1.2, 2.2):
        v = dqm_mod.level0(askey_wilson).v(xr)
        vs = dqm_mod.level0(askey_wilson).v_star(xr)
        assert abs((v + vs).imag) < 1e-13 * (1 + abs(v))


# -- self-consistency invariants ------------------------------------------------

@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_orthogonality(name, request):
    fam = request.getfixturevalue(name)
    ns = range(7)
    from crum.verify import gram_matrix
    g = gram_matrix(fam.phi(ns), fam.domain)
    h = np.real(np.diag(g))
    assert np.all(h > 0)
    for i in ns:
        for j in ns:
            if i != j:
                assert abs(g[i, j]) <= 1e-8 * math.sqrt(h[i] * h[j])


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi"])
def test_oqm_eigen_residual(name, request):
    fam = request.getfixturevalue(name)
    level = oqm_mod.level0(fam, nmax=6)
    lo, hi = fam.interior()
    for n in range(5):
        f = fam.phi(n)
        e = fam.energy(n)
        for x in np.linspace(lo, hi, 20):
            r = oqm_mod.hamiltonian_apply(level, f)(complex(x)) - e * f(complex(x))
            assert abs(r) <= 1e-8 * max(1.0, abs(e)) * (1.0 + abs(f(complex(x))))


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_dqm_zero_mode_residual(name, request):
    fam = request.getfixturevalue(name)
    level = dqm_mod.level0(fam)
    low = dqm_mod.apply_A(level, fam.phi(0).fn)
    for x in np.linspace(0.2, math.pi - 0.2, 20):
        assert abs(low(complex(x))) <= 1e-10 * (1 + abs(fam.phi(0)(complex(x))))


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_dqm_realness(name, request):
    fam = request.getfixturevalue(name)
    eta = fam.eta()
    rng = np.random.default_rng(5)
    h = min(fam.strip_halfwidth, 1.0)
    for _ in range(10):
        x = complex(rng.uniform(0.4, 2.7), rng.uniform(-0.4, 0.4) * h)
        for n in (0, 1, 3):
            f = fam.phi(n)
            assert abs(f(x) - complex(f(x.conjugate())).conjugate()) < 1e-12 * (1 + abs(f(x)))
        assert abs(eta(x) - complex(eta(x.conjugate())).conjugate()) < 1e-14


@pytest.mark.parametrize("name,points", [
    ("hermite", [-1.7 + 0.2j, 0.0, 0.9 - 0.3j]),
    ("laguerre", [0.4 + 0.1j, 1.3, 2.6 - 0.2j]),
    ("jacobi", [0.3 - 0.1j, 1.2, 2.8 + 0.2j]),
])
def test_poly_jet_is_bit_identical_to_the_jet_ring_recurrence(name, points, request):
    # the divided difference at s + order + 1 copies of eta steps in the jet
    # ring's order, so on an array every coefficient matches it bit for bit.
    # At a single point the jet ring ran on Python complex numbers and the
    # divided difference runs on a numpy array, whose complex product may
    # round differently (fused multiply-add), so there they agree to roundoff
    fam = request.getfixturevalue(name)
    xs = np.array(points, dtype=complex)
    for s in range(4):
        for order in range(5):
            for n in range(7):
                for x in (xs, xs.reshape(3, 1)):
                    new = fam._poly_jet(n, x, order, s).coeffs
                    old = jet_ring_poly_jet(fam, n, x, order, s).coeffs
                    assert len(new) == len(old) == order + 1
                    assert all(np.array_equal(a, b) for a, b in zip(new, old)), (s, order, n)
                for x in points:
                    new = fam._poly_jet(n, x, order, s).coeffs
                    old = jet_ring_poly_jet(fam, n, x, order, s).coeffs
                    assert all(abs(a - b) <= 1e-14 * (1 + abs(b)) for a, b in zip(new, old))


def test_dqm_polynomial_degree(q_hermite):
    # P_n has degree exactly n: n-th divided structure via leading growth
    ys = np.linspace(-0.9, 0.9, 12)
    for n in range(5):
        vals = [poly_value(q_hermite, n, y) for y in ys]
        fit = np.polyfit(ys, np.real(vals), n)
        assert abs(fit[0]) > 1e-3         # monic-ish leading coefficient present
        if n >= 1:
            fit_lower = np.polyfit(ys, np.real(vals), n - 1)
            resid = np.max(np.abs(np.polyval(fit_lower, ys) - np.real(vals)))
            assert resid > 1e-6           # cannot be represented one degree lower


@pytest.mark.parametrize("name,q", [("q_hermite", 0.5), ("askey_wilson", 0.6),
                                    ("askey_wilson", 0.9)])
def test_ground_state_log_sum_matches_q_pochhammer_products(name, q):
    # phi0^2 = (e^{2ix};q)_inf (e^{-2ix};q)_inf / prod_a (a e^{ix};q)_inf (a e^{-ix};q)_inf
    fam = make_family(name, **({"q": q} if name == "q_hermite" else {**AW_PARAMS, "q": q}))
    for re in np.linspace(0.2, math.pi - 0.2, 9):
        for im in (0.0, 0.1, -0.1, 0.2, -0.2):
            x = complex(re, im)
            z = cmath.exp(1j * x)
            expected = qpochhammer_inf(z * z, q) * qpochhammer_inf(1 / (z * z), q)
            for a in fam.avals:
                expected /= qpochhammer_inf(a * z, q) * qpochhammer_inf(a / z, q)
            assert abs(cmath.exp(fam._logphi0sq(x)) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.6, 0.9, 0.95])
def test_ground_state_log_sum_matches_term_by_term_sum(q):
    fam = make_family("askey_wilson", validate=False, **{**AW_PARAMS, "q": q})
    logsum = fam._logphi0sq
    # (c, m, sign) of each product in phi0^2, as in the test above
    groups = [(1.0, 2, 1), (1.0, -2, 1)] + [(a, m, -1) for a in fam.avals for m in (1, -1)]
    h = 0.95 * fam.strip_halfwidth
    xs = [complex(re, im) for re in np.linspace(0.05, math.pi - 0.05, 13)
          for im in (0.0, h, -h, 0.5 * h, -0.5 * h)]
    # points where a factor c e^{imx} q^k sits on |c e^{imx} q^k| = 1/4, the
    # switch between direct logs and the series, approached from both sides
    for c, m, _ in groups:
        for k in range(8):
            # |e^{imx}| = e^{-m Im x} = 1 / (4 |c| q^k)
            im = math.log(4 * abs(c) * q**k) / m
            if abs(im) <= h:
                xs += [complex(1.3, im + d) for d in (-1e-9, 0.0, 1e-9)]
    assert len(xs) > 65
    expected = np.exp(0.5 * factor_log_sum_oracle(q, groups, np.array(xs)))
    for x, e in zip(xs, expected):
        assert abs(cmath.exp(0.5 * logsum(x)) - e) <= 1e-12 * abs(e)
        assert abs(cmath.exp(0.5 * point_log_sum(logsum, x)) - e) <= 1e-12 * abs(e)


@pytest.mark.parametrize("q", [0.1, 0.6, 0.95])
def test_ground_state_log_sum_on_arrays_matches_the_point_rule(q):
    # one direct-factor count per direction for the whole array: points far
    # apart in Im x share it, and a nan point neither sets it nor spreads
    fam = make_family("askey_wilson", validate=False, **{**AW_PARAMS, "q": q})
    h = 0.95 * fam.strip_halfwidth
    xs = np.array([complex(re, im) for re in np.linspace(0.05, math.pi - 0.05, 13)
                   for im in (0.0, h, -h, 0.5 * h, -0.5 * h)])
    values = fam._logphi0sq.at(xs)
    groups = [(1.0, 2, 1), (1.0, -2, 1)] + [(a, m, -1) for a in fam.avals for m in (1, -1)]
    expected = np.exp(0.5 * factor_log_sum_oracle(q, groups, xs))
    for x, v, e in zip(xs.tolist(), values, expected):
        point = cmath.exp(0.5 * point_log_sum(fam._logphi0sq, x))
        assert abs(np.exp(0.5 * v) - point) <= 1e-12 * abs(point)
        assert abs(np.exp(0.5 * v) - e) <= 1e-12 * abs(e)
    with np.errstate(invalid="ignore"):
        with_nan = fam._logphi0sq.at(np.append(xs[:3], complex(math.nan, 0.0)))
    assert np.array_equal(with_nan[:3], fam._logphi0sq.at(xs[:3]))
    assert not np.isfinite(with_nan[3])


@pytest.mark.parametrize("q", [0.1, 0.6, 0.95])
@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_one_pass_over_the_directions_matches_the_oracles(name, q):
    # every direction's direct logs and tail at once, against the term-by-term
    # sum and the per-direction Horner rule it replaced, on arrays of several
    # sizes and shapes; a nan point neither sets K nor spreads
    fam = make_family(name, validate=False, **({"q": q} if name == "q_hermite" else
                                               {**AW_PARAMS, "q": q}))
    logsum = fam._logphi0sq
    groups = [(1.0, 2, 1), (1.0, -2, 1)] + [(a, m, -1) for a in fam.avals for m in (1, -1)]
    h = 0.95 * min(fam.strip_halfwidth, 1.0)
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.05, math.pi - 0.05, 301) + 1j * rng.uniform(-h, h, 301)
    expected = np.exp(0.5 * factor_log_sum_oracle(q, groups, xs))
    for size in (1, 2, 40, 301):
        values = np.exp(0.5 * logsum.at(xs[:size]))
        assert np.all(np.abs(values - expected[:size]) <= 1e-12 * np.abs(expected[:size])), size
        oracle = np.exp(0.5 * per_direction_log_sum(logsum, xs[:size]))
        assert np.all(np.abs(values - oracle) <= 1e-12 * np.abs(oracle)), size
    block = logsum.at(xs[:40].reshape(4, 10))
    assert block.shape == (4, 10) and np.array_equal(block.ravel(), logsum.at(xs[:40]))
    for size in (3, 301):
        with np.errstate(invalid="ignore"):
            with_nan = logsum.at(np.append(xs[:size], complex(math.nan, 0.0)))
        assert np.array_equal(with_nan[:size], logsum.at(xs[:size]))
        assert not np.isfinite(with_nan[size])


def _counted_log_sum(monkeypatch, fam):
    calls = []
    real_at = fam._logphi0sq.at

    def at(x):
        calls.append(x.size)
        return real_at(x)

    monkeypatch.setattr(fam._logphi0sq, "at", at)
    return calls


def test_ground_state_log_sum_memo_hits_only_the_exact_array(monkeypatch):
    fam = make_family("q_hermite", q=0.5, validate=False)
    xs = np.linspace(0.2, 2.9, 40) + 0.1j
    calls = _counted_log_sum(monkeypatch, fam)
    first = fam.log_phi0sq(xs)
    hit = fam.log_phi0sq(xs.copy())
    assert calls == [40] and hit is first
    assert np.array_equal(hit, fam._logphi0sq.at(xs)) and calls == [40, 40]
    with pytest.raises(ValueError):
        hit += 1.0
    one_ulp = xs.copy()
    one_ulp[17] = complex(np.nextafter(one_ulp[17].real, 4.0), one_ulp[17].imag)
    moved = fam.log_phi0sq(one_ulp)
    assert calls == [40, 40, 40] and np.array_equal(moved, fam._logphi0sq.at(one_ulp))
    reshaped = fam.log_phi0sq(xs.reshape(4, 10))
    assert len(calls) == 5 and reshaped.shape == (4, 10)
    assert np.array_equal(reshaped.ravel(), first)


def test_ground_state_log_sum_memo_is_bounded(monkeypatch):
    fam = make_family("q_hermite", q=0.5, validate=False)
    calls = _counted_log_sum(monkeypatch, fam)
    big = np.linspace(0.1, 3.0, 2000) + 0.05j
    kept = len(fam._logphi0sq_memo)
    fam.log_phi0sq(big)
    fam.log_phi0sq(big)
    assert calls == [2000, 2000] and len(fam._logphi0sq_memo) == kept
    rng = np.random.default_rng(3)
    for _ in range(200):
        fam.log_phi0sq(rng.uniform(0.1, 3.0, rng.integers(20, 1001)) + 0j)
    assert len(fam._logphi0sq_memo) <= 16
    assert all(v.size <= 1024 for v in fam._logphi0sq_memo.values())


# -- virtual states --------------------------------------------------------------

def test_hermite_virtual_state(hermite):
    phi_prime = virtual_state(hermite)
    for x in (-1.0, 0.3, 1.5):
        assert abs(phi_prime(x) - math.exp(0.5 * x * x)) < 1e-12
    level = oqm_mod.level0(hermite, nmax=2)
    up = oqm_mod.apply_Adag(level, phi_prime)
    for x in (-1.2, 0.4, 2.0):
        assert abs(up(complex(x))) < 1e-12 * (1 + abs(phi_prime(x)))


def test_aw_virtual_state_annihilated(askey_wilson):
    phi_prime = virtual_state(askey_wilson)
    level = dqm_mod.level0(askey_wilson)
    up = dqm_mod.apply_Adag(level, phi_prime.fn)
    for x in np.linspace(0.3, math.pi - 0.3, 12):
        assert abs(up(complex(x))) <= 1e-8 * (1 + abs(phi_prime(complex(x))))


def test_aw_virtual_state_shape(askey_wilson):
    # prefactor sin x over the ground state at shifted parameters
    shifted = askey_wilson.shifted()
    assert abs(complex(shifted.params["a1"]) - 0.3 * math.sqrt(0.6)) < 1e-12
    phi_prime = virtual_state(askey_wilson)
    x = 1.1
    expect = math.sin(x) / shifted.phi(0)(complex(x))
    assert abs(phi_prime(complex(x)) - expect) < 1e-12 * (1 + abs(expect))


def test_oqm_virtual_norm_diverges(hermite):
    phi_prime = virtual_state(hermite)
    _vals, diverging = refinement_sequence(
        lambda x: np.abs(phi_prime(x)) ** 2, hermite.domain, MAX_LEVEL)
    assert diverging


def test_dqm_virtual_norm_is_finite(q_hermite):
    # on the compact interval the excluded mode is bounded; exclusion from
    # the Hilbert space is spectral (it would sit at energy 0 < E_1), not
    # a norm divergence
    phi_prime = virtual_state(q_hermite)
    vals, diverging = refinement_sequence(
        lambda x: np.abs(phi_prime(x)) ** 2, q_hermite.domain, MAX_LEVEL)
    assert not diverging
    assert abs(vals[-1]) < 50.0


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_double_star_at_strip_points(name, request):
    from crum.analytic import AnalyticFn
    fam = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    lo, hi = fam.interior(0.8)
    h = 0.3 if fam.kind == "oqm" else 0.3 * min(fam.strip_halfwidth, 1.0)
    # build a genuinely complex function on the family's strip so the double
    # star is not trivially the identity
    f = fam.phi(2)
    g = AnalyticFn(lambda x: (1 + 0.7j) * f.fn(x) + 0.2j,
                   strip_halfwidth=f.strip_halfwidth)
    for _ in range(10):
        x = complex(rng.uniform(lo, hi), rng.uniform(-h, h))
        assert abs(star_eval(starred(g), x) - g.fn(x)) < 1e-12 * (1 + abs(g.fn(x)))


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_real_flag_means_real_on_axis(name, request):
    fam = request.getfixturevalue(name)
    lo, hi = fam.interior(0.8)
    h = 0.3 * min(fam.strip_halfwidth, 1.0)
    for n in (0, 2):
        f = fam.phi(n)
        for x in np.linspace(lo, hi, 9):
            z = complex(x, h)                  # f* = f on the strip, not only on the axis
            assert abs(star_eval(f, z) - f(z)) <= 1e-12 * (1 + abs(f(z)))
            v = f.fn(complex(x))
            assert abs(v.imag) <= 1e-12 * (1 + abs(v))


def test_descriptor_round_trip(askey_wilson):
    import json
    d = askey_wilson.descriptor()
    loaded = json.loads(json.dumps(d))
    assert loaded["name"] == "askey_wilson"
    assert loaded["gamma"] == pytest.approx(math.log(0.6))
    fam2 = make_family(loaded["name"], **_params_from(loaded["params"]))
    assert fam2.energy(3) == pytest.approx(askey_wilson.energy(3))


def _params_from(plain):
    out = {}
    for k, v in plain.items():
        out[k] = complex(v[0], v[1]) if isinstance(v, list) else v
    return out


# -- squared norms ---------------------------------------------------------------

def _aw_h0(avals, q):
    """Askey-Wilson integral of phi_0^2 over (0, pi)."""
    num = 2.0 * math.pi * qpochhammer_inf(avals[0] * avals[1] * avals[2] * avals[3], q)
    den = qpochhammer_inf(q, q)
    for j in range(4):
        for k in range(j + 1, 4):
            den *= qpochhammer_inf(avals[j] * avals[k], q)
    return (num / den).real


@pytest.mark.parametrize("name,h0", [
    ("hermite", lambda fam: math.sqrt(math.pi)),
    ("laguerre", lambda fam: 0.5 * math.gamma(fam.params["g"] + 0.5)),
    ("jacobi", lambda fam: math.sqrt(math.pi) * math.gamma(fam.params["g"] + 0.5)
     / math.gamma(fam.params["g"] + 1.0)),
    ("q_hermite", lambda fam: _aw_h0([0, 0, 0, 0], fam.q)),
    ("askey_wilson", lambda fam: _aw_h0(fam.avals, fam.q)),
])
def test_ground_state_norm_closed_form(name, h0, request):
    fam = request.getfixturevalue(name)
    assert abs(fam.hnorm(0) - h0(fam)) <= 1e-13 * h0(fam)


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_norms_follow_the_recurrence(name, request):
    # h_n = h_0 c_1 ... c_n, checked against the quadrature of each phi_n
    fam = request.getfixturevalue(name)
    for n in range(6):
        quad = inner_product(fam.phi(n), fam.phi(n), fam.domain).real
        assert abs(fam.hnorm(n) - quad) <= 1e-13 * quad
