"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two sub-criteria are implemented exactly as specified but are
expected to fail for provable mathematical reasons (see the strict xfail
markers): the scaled shifted-determinant error is an even function of the
shift (so its decay order is two, not one), and the excluded zero modes of
the compact-interval difference families have finite norm (so no quadrature
divergence exists to flag; their exclusion from the Hilbert space is
spectral, sitting at energy zero below the positive spectrum).
"""

import math
import time

import numpy as np
import pytest

from crum import make_family, virtual_state
from crum import dqm, oqm, structure
from crum.families import _oracle_box
from crum.quadrature import MAX_LEVEL, refinement_sequence
from crum.verify import grid_eigensolve, gram_matrix

from conftest import AW_PARAMS, overall_slope, recursive_dqm_chain, worst_over_levels

OQM_CASES = [("hermite", {}), ("laguerre", {"g": 3.0}), ("jacobi", {"g": 2.0})]
DQM_CASES = [("q_hermite", {"q": 0.5}), ("askey_wilson", AW_PARAMS)]


def note(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _axis_pts(fam, count=20):
    lo, hi = fam.interior()
    return [complex(t) for t in np.linspace(lo, hi, count)]


def _strip_pts(fam, count=10):
    g = fam.gamma
    base = _axis_pts(fam, count)
    return base[:4] + [p + 0.5j * g for p in base[4:7]] + [p - 0.5j * g for p in base[7:]]


@pytest.fixture(scope="module")
def oqm_chains():
    out = {}
    for name, params in OQM_CASES:
        t0 = time.perf_counter()
        fam = make_family(name, **params)
        levels = oqm.build_chain(fam, 3, nmax=6)
        out[name] = (fam, levels, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def dqm_chains():
    out = {}
    for name, params in DQM_CASES:
        t0 = time.perf_counter()
        fam = make_family(name, **params)
        levels = dqm.build_chain(fam, 2)
        out[name] = (fam, levels, time.perf_counter() - t0)
    return out


def test_criterion_1_differential_suite(oqm_chains):
    """Depth-3 intertwining, factorization, Riccati and Wronskian formulas at
    1e-7, under ten seconds per family."""
    kinds = ("intertwine", "factorization", "riccati",
             "wronskian_product", "wronskian_ratio", "potential_wronskian")
    ok = True
    for name, (fam, levels, build_t) in oqm_chains.items():
        t0 = time.perf_counter()
        pts = _axis_pts(fam)
        worst = {k: worst_over_levels(oqm, k, levels, pts) for k in kinds}
        elapsed = build_t + (time.perf_counter() - t0)
        fam_ok = max(worst.values()) <= 1e-7 and elapsed < 10.0
        ok &= note(1, fam_ok,
                   f"{name}: worst residual {max(worst.values()):.2e} "
                   f"({max(worst, key=worst.get)}), {elapsed:.1f}s")
        assert max(worst.values()) <= 1e-7, (name, worst)
        assert elapsed < 10.0
    assert ok


def test_criterion_2_isospectral_oracle(oqm_chains):
    """Grid eigenvalues of the level-1 potential reproduce the parent's
    first three gaps with the ground state absent, under twenty seconds."""
    t0 = time.perf_counter()
    ok = True
    for name, (fam, levels, _bt) in oqm_chains.items():
        u1 = levels[1].potential()
        grid = grid_eigensolve(lambda t: u1(t).real, _oracle_box(fam), 3)
        shifted = grid + levels[1].E_s
        expected = np.array([fam.energy(n) for n in (1, 2, 3)])
        err = float(np.max(np.abs(shifted - expected) / (1.0 + np.abs(expected))))
        gap0 = abs(shifted[0] - fam.energy(0))
        absent = gap0 > 0.5 * (fam.energy(1) - fam.energy(0))
        ok &= note(2, err <= 1e-5 and absent,
                   f"{name}: spectrum {[f'{e:.6f}' for e in shifted]}, err {err:.2e}, "
                   f"parent ground state absent: {absent}")
        assert err <= 1e-5, (name, shifted, expected)
        assert absent
    elapsed = time.perf_counter() - t0
    note(2, elapsed < 20.0, f"runtime {elapsed:.1f}s")
    assert elapsed < 20.0
    assert ok


def test_criterion_3_node_counting(oqm_chains):
    """Sign changes of the deformed eigenfunctions equal n - s exactly."""
    ok = True
    for name, (fam, levels, _bt) in oqm_chains.items():
        mism = []
        for s, level in enumerate(levels):
            lo, hi = level.interior()
            for n in range(s, 7):
                count = oqm.node_count(level.phi(n), (lo, hi))
                if count != n - s:
                    mism.append((s, n, count))
        ok &= note(3, not mism, f"{name}: node-count mismatches {mism or 'none'}")
        assert not mism, (name, mism)
    assert ok


def test_criterion_4_difference_suite(dqm_chains):
    """Depth-2 zero mode, quadratic, linear, Casoratian and determinant
    identities at 1e-7, under sixty seconds per family."""
    kinds = ("zero_mode", "quadratic", "linear", "check_product",
             "casoratian_ratio", "step_determinant", "casoratian_jacobi")
    ok = True
    for name, (fam, levels, build_t) in dqm_chains.items():
        t0 = time.perf_counter()
        pts = _strip_pts(fam, 12)
        worst = {k: worst_over_levels(dqm, k, levels, pts) for k in kinds}
        elapsed = build_t + (time.perf_counter() - t0)
        fam_ok = max(worst.values()) <= 1e-7 and elapsed < 60.0
        ok &= note(4, fam_ok,
                   f"{name}: worst residual {max(worst.values()):.2e} "
                   f"({max(worst, key=worst.get)}), {elapsed:.1f}s")
        assert max(worst.values()) <= 1e-7, (name, worst)
        assert elapsed < 60.0
    assert ok


def test_criterion_5_casoratian_vs_recursive(dqm_chains):
    """Determinant and operator routes agree to 1e-7 at strip points: the
    operator route is the level-on-level chain the closed form replaced."""
    ok = True
    for name, (fam, levels, _bt) in dqm_chains.items():
        recursive = recursive_dqm_chain(fam, 2, 5)
        worst = 0.0
        for s in (1, 2):
            for n in range(s, 6):
                for x in _strip_pts(fam, 10):
                    direct = recursive[s].phi(n, x)
                    det = dqm.phi_via_casoratian(levels, s, n, x)
                    worst = max(worst, abs(det - direct) / (1.0 + abs(direct)))
        ok &= note(5, worst <= 1e-7, f"{name}: worst relative gap {worst:.2e}")
        assert worst <= 1e-7, name
    assert ok


def test_criterion_6_gram_law(oqm_chains, dqm_chains):
    """Level-1 inner products form diag((E_n - E_0) h_n) to 1e-7 relative."""
    ok = True
    chains = {**{k: v[:2] for k, v in oqm_chains.items()},
              **{k: v[:2] for k, v in dqm_chains.items()}}
    for name, (fam, levels) in chains.items():
        ns = range(1, 6 if fam.kind == "oqm" else 5)
        g = gram_matrix(levels[1].phi(ns), fam.domain)
        worst = 0.0
        for i, n in enumerate(ns):
            expected = fam.energy(n) * fam.hnorm(n)
            worst = max(worst, abs(g[i, i].real - expected) / expected)
            for j in range(len(ns)):
                if j != i:
                    scale = math.sqrt(abs(g[i, i].real) * abs(g[j, j].real))
                    worst = max(worst, abs(g[i, j]) / scale)
        ok &= note(6, worst <= 1e-7, f"{name}: worst Gram deviation {worst:.2e}")
        assert worst <= 1e-7, name
    assert ok


def test_criterion_7_shape_invariance(dqm_chains):
    """The declared (scale, shifted parameters) reproduce the level-1 potential
    at thirty strip points; orbit-summed energies match to 1e-10."""
    ok = True
    for name, (fam, levels, _bt) in dqm_chains.items():
        fit = structure.shape_invariance_residual(fam, levels)
        spec_err = max(abs(structure.si_spectrum(fam, n) - fam.energy(n))
                       / (1.0 + abs(fam.energy(n))) for n in range(9))
        this = fit.converged and fit.max_residual <= 1e-7 and spec_err <= 1e-10
        ok &= note(7, this, f"{name}: kappa {fit.kappa:.6f}, potential residual "
                            f"{fit.max_residual:.2e}, spectrum err {spec_err:.2e}")
        assert fit.converged and fit.max_residual <= 1e-7, name
        assert spec_err <= 1e-10, name
    assert ok


def test_criterion_8_limits_continuum_part():
    """Continuum-limit operator actions converge with slope 1.0 +- 0.25."""
    t0 = time.perf_counter()
    table = structure.limit_check("c_to_inf")
    slope = overall_slope(table)
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 1.0) <= 0.25 and elapsed < 10.0
    note(8, ok, f"continuum limit: slope {slope:.3f} over c in 10..1000, {elapsed:.1f}s")
    assert abs(slope - 1.0) <= 0.25
    assert elapsed < 10.0


@pytest.mark.xfail(strict=True, reason=(
    "the scaled shifted determinant is invariant under shift negation, so its "
    "error expands in even powers and the measured decay order is 2, not 1"))
def test_criterion_8_limits_shift_to_zero_part():
    """Shift-to-zero determinant error slope 1.0 +- 0.25 as specified."""
    table = structure.limit_check("gamma_to_0")
    slope = overall_slope(table)
    ok = abs(slope - 1.0) <= 0.25
    note(8, ok, f"shift-to-zero: measured slope {slope:.3f} (criterion expects 1.0 +- 0.25)")
    assert abs(slope - 1.0) <= 0.25


def test_criterion_9_eta_relations(dqm_chains):
    """Coordinate-function identities at depth 2 within 1e-7."""
    ok = True
    for name, (fam, levels, _bt) in dqm_chains.items():
        pts = _axis_pts(fam, 12)
        worst = {}
        for kind in ("V1_from_eta", "eta_level", "Vs_product"):
            worst[kind] = max(structure.eta_relations_residual(kind, fam, levels[: s + 1], pts)
                              for s in range(1, len(levels)))
        ok &= note(9, max(worst.values()) <= 1e-7,
                   f"{name}: worst residual {max(worst.values()):.2e} "
                   f"({max(worst, key=worst.get)})")
        assert max(worst.values()) <= 1e-7, (name, worst)
    assert ok


def test_criterion_10_virtual_states_annihilated(oqm_chains, dqm_chains):
    """The excluded zero mode is annihilated by the raising factor, 1e-8."""
    ok = True
    for name, (fam, levels, _bt) in {**oqm_chains, **dqm_chains}.items():
        phi_prime = virtual_state(fam)
        if fam.kind == "oqm":
            up = oqm.apply_Adag(levels[0], phi_prime)
            res = max(abs(up(x)) / (1.0 + abs(phi_prime(x))) for x in _axis_pts(fam))
        else:
            up = dqm.apply_Adag(levels[0], phi_prime.fn)
            res = max(abs(up(x)) / (1.0 + abs(phi_prime.fn(x))) for x in _axis_pts(fam))
        ok &= note(10, res <= 1e-8, f"{name}: annihilation residual {res:.2e}")
        assert res <= 1e-8, name
    assert ok


def test_criterion_10_divergence_flags_differential(oqm_chains):
    """Norm refinement diverges for the continuous families' zero modes."""
    ok = True
    for name, (fam, _levels, _bt) in oqm_chains.items():
        phi_prime = virtual_state(fam)
        _vals, diverging = refinement_sequence(
            lambda x: np.abs(phi_prime(x)) ** 2, fam.domain, MAX_LEVEL)
        ok &= note(10, diverging, f"{name}: norm divergence flag {diverging}")
        assert diverging, name
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "on the compact interval the excluded zero modes are bounded, so their "
    "norm refinement converges; the Hilbert-space exclusion is spectral "
    "(formal eigenvalue 0 below the positive spectrum), not a norm divergence"))
def test_criterion_10_divergence_flags_difference(dqm_chains):
    """Norm refinement flag for the difference families, as specified."""
    ok = True
    for name, (fam, _levels, _bt) in dqm_chains.items():
        phi_prime = virtual_state(fam)
        _vals, diverging = refinement_sequence(
            lambda x: np.abs(phi_prime(x)) ** 2, fam.domain, MAX_LEVEL)
        ok &= note(10, diverging, f"{name}: norm divergence flag {diverging} "
                                  "(criterion expects True)")
        assert diverging, name
    assert ok
