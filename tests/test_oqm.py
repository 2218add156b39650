import collections
import gc
import math
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from crum.analytic import AnalyticFn, inner_product, rel_residual, worst_residual
from crum.errors import ChainBreakError, DomainError, PoleError
from crum.jets import Jet
from crum import analytic, families, make_family, oqm, verify, virtual_state
from crum.verify import RunConfig, gram_matrix, sample_points

from conftest import (check_the_run_table_lives_for_one_run, list_node_count, recursive_chain,
                      scalar_identity_residual, suite_report, worst_over_levels)


def _pts(fam, count=12):
    lo, hi = fam.interior()
    return [complex(t) for t in np.linspace(lo, hi, count)]


# -- operators -----------------------------------------------------------------

def test_apply_A_annihilates_ground_state(hermite):
    level = oqm.level0(hermite, nmax=3)
    low = oqm.apply_A(level, hermite.phi(0))
    for x in _pts(hermite):
        assert abs(low(x)) < 1e-12


def test_apply_A_on_first_state_by_hand(hermite):
    # (d/dx + x) applied to x e^{-x^2/2} leaves e^{-x^2/2}
    level = oqm.level0(hermite, nmax=3)
    out = oqm.apply_A(level, hermite.phi(1))
    for x in (-1.0, 0.2, 1.7):
        assert abs(out(complex(x)) - math.exp(-0.5 * x * x)) < 1e-13


def test_apply_A_linearity(hermite):
    level = oqm.level0(hermite, nmax=3)
    f = hermite.phi(2)
    doubled = AnalyticFn(lambda x: 2 * f.fn(x), jet_fn=lambda x, o: f.jet(x, o) * 2)
    a1 = oqm.apply_A(level, doubled)
    a2 = oqm.apply_A(level, f)
    for x in _pts(hermite, 5):
        assert abs(a1(x) - 2 * a2(x)) < 1e-13


def test_apply_Adag_on_inverse_ground_state(hermite):
    import cmath

    def jet_fn(x, o):
        j = Jet.variable(x, o)
        return (0.5 * j * j).exp()

    level = oqm.level0(hermite, nmax=2)
    grow = AnalyticFn(lambda x: cmath.exp(0.5 * x * x), jet_fn=jet_fn)
    up = oqm.apply_Adag(level, grow)
    for x in (-1.0, 0.0, 1.3):
        assert abs(up(complex(x))) < 1e-12 * (1 + math.exp(0.5 * x * x))


def test_apply_Adag_by_hand(hermite):
    # (-d/dx + x) applied to e^{-x^2/2} gives 2x e^{-x^2/2}
    level = oqm.level0(hermite, nmax=2)
    out = oqm.apply_Adag(level, hermite.phi(0))
    for x in (-0.8, 0.5, 2.0):
        assert abs(out(complex(x)) - 2 * x * math.exp(-0.5 * x * x)) < 1e-13


def test_adjointness_under_quadrature(hermite):
    level = oqm.level0(hermite, nmax=3)
    f, g = hermite.phi(1), hermite.phi(2)
    lhs = inner_product(oqm.apply_A(level, f), g, hermite.domain)
    rhs = inner_product(f, oqm.apply_Adag(level, g), hermite.domain)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_hamiltonian_apply_examples(hermite, laguerre):
    level_h = oqm.level0(hermite, nmax=2)
    val = oqm.hamiltonian_apply(level_h, hermite.phi(1))(1.0)
    assert abs(val - 1.2130613) < 1e-6          # E_1 phi_1(1) = 2 e^{-1/2}
    assert abs(val - 2 * hermite.phi(1)(1.0)) < 1e-12
    g2 = __import__("crum").make_family("laguerre", g=2.0)
    level_l = oqm.level0(g2, nmax=2)
    assert abs(oqm.hamiltonian_apply(level_l, g2.phi(0))(1.0)) < 1e-12


def test_ground_state_of_each_level(hermite_chain):
    for level in hermite_chain:
        seed = level.phi(level.s)
        for x in (-0.9, 0.4, 1.6):
            val = oqm.hamiltonian_apply(level, seed)(complex(x))
            assert abs(val - level.E_s * seed(complex(x))) < 1e-10 * (1 + abs(seed(complex(x))))


# -- chain stepping ---------------------------------------------------------------

def test_hermite_level1_operator_is_shifted_oscillator(hermite_chain):
    # full level-1 operator equals the level-0 operator plus the first gap
    lvl0, lvl1 = hermite_chain[0], hermite_chain[1]
    u0, u1 = lvl0.potential(), lvl1.potential()
    for x in (-1.1, 0.3, 2.1):
        full0 = u0(complex(x)) + lvl0.E_s + 2.0
        full1 = u1(complex(x)) + lvl1.E_s
        assert abs(full1 - full0) < 1e-10


def test_level1_gram_diagonal(hermite):
    levels = oqm.build_chain(hermite, 1, nmax=5)
    fns = levels[1].phi(range(1, 6))
    g = gram_matrix(fns, hermite.domain)
    for i, n in enumerate(range(1, 6)):
        expected = hermite.energy(n) * hermite.hnorm(n)
        assert abs(g[i, i].real - expected) < 1e-7 * expected
        for j in range(len(fns)):
            if j != i:
                assert abs(g[i, j]) < 1e-7 * math.sqrt(abs(g[i, i]) * abs(g[j, j]))


@pytest.mark.parametrize("chain_name", ["hermite_chain", "laguerre_chain", "jacobi_chain"])
def test_node_counts_drop_with_level(chain_name, request):
    levels = request.getfixturevalue(chain_name)
    for s, level in enumerate(levels):
        lo, hi = level.interior()
        for n in range(s, 7):
            assert oqm.node_count(level.phi(n), (lo, hi)) == n - s


def test_node_count_matches_the_list_count(hermite_chain):
    for s, level in enumerate(hermite_chain):
        for n in range(s, 7):
            f = level.phi(n)
            assert oqm.node_count(f, (-4.0, 4.0)) == list_node_count(f, (-4.0, 4.0))
    # exact zeros on grid points, plateaus and a nan (a failed point)
    def fn(x):
        vals = np.round(np.sin(3.0 * x.real), 1).astype(complex)
        return np.where(np.abs(x.real - 0.5) < 1e-3, math.nan, vals)

    f = AnalyticFn(fn)
    assert oqm.node_count(f, (-3.0, 3.0)) == list_node_count(f, (-3.0, 3.0)) > 0


@pytest.mark.parametrize("name,params", [("hermite", {}), ("laguerre", {"g": 3.0}),
                                         ("jacobi", {"g": 2.0})])
def test_array_identities_match_the_scalar_oracle(name, params):
    fam = make_family(name, **params)
    levels = oqm.build_chain(fam, 3, nmax=5)
    for seed in (7, 2021):
        pts = sample_points(fam, 20, seed)
        for s in range(4):
            for kind, entry in oqm.IDENTITIES.items():
                if not entry.sampled or s < entry.first_level:
                    continue
                array = oqm.relation_residual(kind, levels[: s + 1], pts)
                scalar = scalar_identity_residual(kind, levels[: s + 1], pts)
                assert abs(array - scalar) <= 1e-12, (kind, s, seed, array, scalar)


def test_chain_break_on_nodeful_seed(hermite):
    # feeding a seed with an interior node must refuse to build the level
    shifted = SimpleNamespace(phi=lambda n, s=0: hermite.phi(n + 1, s),  # phi[1]_1 := phi[1]_2
                              energy=hermite.energy, interior=hermite.interior)
    fake = oqm.OqmChainLevel(shifted, 0, 0.0, 3)
    with pytest.raises(ChainBreakError):
        oqm.step_chain(fake)


def test_depth_cap():
    fam = __import__("crum").make_family("hermite")
    with pytest.raises(Exception):
        oqm.build_chain(fam, 7, nmax=9)


@pytest.mark.parametrize("chain_name", ["hermite_chain", "laguerre_chain", "jacobi_chain"])
def test_closed_form_matches_recursion(chain_name, request):
    # the operator-built chain loses digits with depth: at depth 3 it is off
    # the closed form by up to 4e-12 on phi and 6e-10 on W' and U
    levels = request.getfixturevalue(chain_name)
    fam = levels[0].family
    oracle = recursive_chain(fam, 3, 6)
    for seed in (7, 2021):
        pts = sample_points(fam, 20, seed)
        for closed, rec in zip(levels, oracle):
            pairs = [(rec.phi(n), closed.phi(n), 1e-10) for n in range(closed.s, 7)]
            pairs += [(rec.w_prime(), closed.w_prime(), 1e-8),
                      (rec.potential(), closed.potential(), 1e-8)]
            for ref, fn, tol in pairs:
                assert worst_residual(rel_residual(ref(x), fn(x)) for x in pts) <= tol, \
                    (closed.s, fn.label)


def test_level_evaluation_retains_no_memory(hermite):
    # scalar calls, then one array call of each, as the identities make it
    level = oqm.build_chain(hermite, 3, nmax=5)[3]
    phi, w_prime = level.phi(5), level.w_prime()
    grid = np.linspace(-3.0, 3.0, 5000).astype(complex)
    xs = grid[::5].tolist()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in xs:
            phi(x)
            w_prime(x)
        phi(grid)
        w_prime(grid)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


# -- downshift ---------------------------------------------------------------------

def test_downshift_roundtrip_hermite(hermite_chain):
    lvl1 = hermite_chain[1]
    rebuilt = oqm.downshift(lvl1, 2)
    target = hermite_chain[0].phi(2)
    for x in np.linspace(-2, 2, 10):
        assert abs(rebuilt(complex(x)) - target(complex(x))) < 1e-10 * (1 + abs(target(complex(x))))


def test_downshift_denominator_is_full_energy(hermite_chain):
    # s=1: the gap is E_n - E_0 = E_n
    lvl1 = hermite_chain[1]
    up = oqm.apply_Adag(hermite_chain[0], lvl1.phi(2))
    rebuilt = oqm.downshift(lvl1, 2)
    x = 0.7 + 0j
    assert abs(rebuilt(x) * hermite_chain[0].family.energy(2) - up(x)) < 1e-12


def test_downshift_jacobi_deep(jacobi_chain):
    lvl2 = jacobi_chain[2]
    rebuilt = oqm.downshift(lvl2, 3)
    target = jacobi_chain[1].phi(3)
    lo, hi = jacobi_chain[2].interior()
    for x in np.linspace(lo, hi, 10):
        assert abs(rebuilt(complex(x)) - target(complex(x))) <= 1e-8 * (1 + abs(target(complex(x))))


def test_downshift_index_error(hermite_chain):
    with pytest.raises(DomainError):
        oqm.downshift(hermite_chain[2], 1)
    with pytest.raises(DomainError):
        oqm.downshift(hermite_chain[0], 2)


# -- determinant route ---------------------------------------------------------------

def test_phi_via_wronskian_s0_is_identity(hermite_chain, hermite):
    for x in (-1.0, 0.5, 2.2):
        lhs = oqm.phi_via_wronskian(hermite_chain, 0, 3, complex(x))
        assert abs(lhs - hermite.phi(3)(complex(x))) < 1e-13


def test_phi_via_wronskian_matches_operators(hermite_chain):
    rng = np.random.default_rng(31)
    for s, n, tol in ((1, 2, 1e-9), (2, 3, 1e-8)):
        direct = hermite_chain[s].phi(n)
        for _ in range(10):
            x = complex(rng.uniform(-2.0, 2.0))
            lhs = oqm.phi_via_wronskian(hermite_chain, s, n, x)
            rhs = direct(x)
            assert abs(lhs - rhs) <= tol * (1 + abs(rhs))


def test_phi_via_wronskian_refuses_a_vanishing_denominator(jacobi_chain):
    # the denominator Wronskian at s = 1 is phi_0 = sin^g x, 0 at x = 0
    with np.errstate(all="ignore"), pytest.raises(PoleError, match="x=0.0"):
        oqm.phi_via_wronskian(jacobi_chain, 1, 2, np.array([0.5, 0.0]))


# -- identity residuals ----------------------------------------------------------------

@pytest.mark.parametrize("kind,tol", [
    ("intertwine", 1e-9),
    ("riccati", 1e-9),
    ("factorization", 1e-9),
    ("wronskian_product", 1e-8),
    ("wronskian_ratio", 1e-8),
    ("downshift_roundtrip", 1e-8),
    ("zero_mode", 1e-9),
    ("iso_spectral", 1e-8),
    ("node_count", 0.0),
])
def test_hermite_relation_residuals(hermite_chain, hermite, kind, tol):
    assert worst_over_levels(oqm, kind, hermite_chain, _pts(hermite)) <= tol


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_fails_closed(hermite_chain, hermite, bad):
    pts = _pts(hermite) + [complex(bad, 0.0)]
    assert oqm.relation_residual("zero_mode", hermite_chain, pts) == math.inf


def test_step_identity_needs_a_parent_level(hermite_chain, hermite):
    with pytest.raises(DomainError, match="applies from level 1"):
        oqm.relation_residual("intertwine", hermite_chain[:1], _pts(hermite))


def test_potential_wronskian_laguerre(laguerre_chain, laguerre):
    res = worst_over_levels(oqm, "potential_wronskian", laguerre_chain[:3], _pts(laguerre))
    assert res <= 1e-7


def test_energies_strictly_increasing(hermite, laguerre, jacobi):
    for fam in (hermite, laguerre, jacobi):
        es = [fam.energy(n) for n in range(8)]
        assert es[0] == 0.0
        assert all(b > a for a, b in zip(es, es[1:]))
        assert all(fam.hnorm(n) > 0 for n in range(4))


def _jet_backed_functions(request):
    """Every kind of jet-backed function the package and the tests build,
    each with points of its domain (off the zeros of the odd hermite ones)."""
    from conftest import from_poly
    from test_analytic import GAUSS, XGAUSS

    def points(lo, hi):
        return np.linspace(lo, hi, 6) + 0.1j * np.linspace(-1.0, 1.0, 6)

    out = [(f, points(-2.0, 2.0)) for f in
           (GAUSS, XGAUSS, from_poly([1.0, -2.0 + 0.5j, 0.0, 3.0]))]
    for name in ("hermite", "laguerre", "jacobi"):
        fam = request.getfixturevalue(name)
        chain = request.getfixturevalue(f"{name}_chain")
        fs = [fam.eta(), virtual_state(fam)]
        for s in range(4):
            fs += [fam.w_prime(s), fam.potential(s)]
            fs += [fam.phi(n, s) for n in range(s, 6)]
        for level in chain[1:]:
            f = level.phi(level.nmax)
            fs += [oqm.apply_A(level, f), oqm.apply_Adag(level, f),
                   oqm.hamiltonian_apply(level, f), oqm.downshift(level, level.nmax)]
        for level in recursive_chain(fam, 2, 4)[1:]:
            fs += [level.phi(4), level.w_prime(), level.potential()]
        out += [(f, points(*fam.interior(0.5))) for f in fs]
    for name in ("q_hermite", "askey_wilson"):
        fam = request.getfixturevalue(name)
        out += [(f, points(*fam.interior(0.5))) for f in (fam.eta(), fam.virtual_prefactor())]
    return out


def test_array_call_matches_scalar_call(request):
    for f, xs in _jet_backed_functions(request):
        assert f.jet_fn is not None
        values = f(xs)
        for x, v in zip(xs, values):
            ref = f(complex(x))
            assert abs(v - ref) <= 1e-13 * abs(ref), (f.label, x, v, ref)


# -- the coordinate jets in the run table ---------------------------------------------

def _oqm_config(name, seed=7, depth=2, nmax=5):
    params = {"jacobi": {"g": 2.0}}.get(name, {})
    return RunConfig.from_dict({"family": name, "params": params, "depth": depth,
                                "nmax": nmax, "seed": seed})


@pytest.mark.parametrize("name", ["hermite", "jacobi"])
def test_a_suite_reports_as_the_raw_coordinate_rules(name, monkeypatch):
    # the slow path as oracle: without the run table's eta and W jets every
    # call runs the family's raw rule
    shipped = suite_report(_oqm_config(name))
    monkeypatch.setattr(families, "run_jet", lambda rule, x, order: rule(x, order))
    assert suite_report(_oqm_config(name)) == shipped


def test_a_suite_computes_each_coordinate_jet_once_per_array(monkeypatch):
    # with the lookup bypassed this seed-7 hermite depth-2 suite computes eta
    # 167 times on 37 (array, order) keys and W 144 times on 27
    h = families._hermite_family()
    calls, keys = collections.Counter(), collections.defaultdict(set)

    def counted(rule, tag):
        def raw(x, order):
            calls[tag] += 1
            return rule(x, order)
        raw.tag = tag
        return raw

    def spied(rule, x, order):
        # the family at si(lambda), which the shape block builds, is not counted
        keys[getattr(rule, "tag", None)].add((x.shape, x.tobytes(), order))
        return analytic.run_jet(rule, x, order)

    monkeypatch.setattr(families, "run_jet", spied)
    fam = families.OqmFamily("hermite", {}, h.domain, counted(h._w_log_rule, "W"), h._energy,
                             h._recurrence, counted(h._eta_rule, "eta"), h.shape, "")
    monkeypatch.setattr(verify, "make_family", lambda name, **params: fam)
    assert verify.run_suite(_oqm_config("hermite")).status == "pass"
    for tag in ("eta", "W"):
        assert 0 < calls[tag] <= len(keys[tag]), (tag, calls[tag], len(keys[tag]))


def _bytes(jet):
    return [c.tobytes() for c in jet.coeffs]


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi"])
def test_a_lower_order_coordinate_jet_is_the_truncation_bit_for_bit(name, request):
    fam = request.getfixturevalue(name)
    x = np.linspace(*fam.interior(0.5), 20) + 0.1j * np.linspace(-1.0, 1.0, 20)
    for rule, cached in ((fam._eta_rule, fam._eta_jet), (fam._w_log_rule, fam._w_log_jet)):
        top = rule(x, 5)
        assert cached(x, 2).coeffs[0] is not cached(x, 2).coeffs[0]    # no run, no lookup
        with analytic.run_table():
            kept = cached(x, 5)
            assert _bytes(kept) == _bytes(top)
            for k in range(5):
                assert _bytes(rule(x, k)) == _bytes(top)[:k + 1]
                low = cached(x, k)
                assert low.order == k and all(a is b for a, b in zip(low.coeffs, kept.coeffs))
                assert not any(c.flags.writeable for c in low.coeffs)


def test_the_run_table_of_coordinate_jets_lives_for_one_run():
    check_the_run_table_lives_for_one_run(partial(_oqm_config, "hermite"))
