import collections
import dataclasses
import gc
import math
import threading
import tracemalloc

import numpy as np
import pytest

from crum.analytic import (AnalyticFn, Identity, casoratian, checked_ns, identity_residual,
                           inner_product, rel_residual, worst_residual)
from crum.errors import ChainBreakError, DomainError, ParameterError, PoleError, StripError
from crum import analytic, dqm, families, structure, verify
from crum.verify import RunConfig, gram_matrix

from conftest import AW_PARAMS, worst_over_levels


def _pts(fam, count=10, im=0.0):
    lo, hi = fam.interior()
    return [complex(t, im) for t in np.linspace(lo, hi, count)]


def _strip_pts(fam, count=10):
    g = fam.gamma
    base = _pts(fam, count)
    return base[:4] + [p + 0.4j * g for p in base[4:7]] + [p - 0.4j * g for p in base[7:]]


# -- operators -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_apply_A_annihilates_ground_state(name, request):
    fam = request.getfixturevalue(name)
    level = dqm.level0(fam)
    low = dqm.apply_A(level, fam.phi(0).fn)
    for x in _strip_pts(fam):
        assert abs(low(x)) <= 1e-10 * (1 + abs(fam.phi(0).fn(x)))


def test_apply_A_linearity(q_hermite):
    level = dqm.level0(q_hermite)
    f = q_hermite.phi(2).fn
    a1 = dqm.apply_A(level, lambda x: 2.5 * f(x))
    a2 = dqm.apply_A(level, f)
    for x in _pts(q_hermite, 5):
        assert abs(a1(x) - 2.5 * a2(x)) < 1e-13 * (1 + abs(a2(x)))


def test_ladder_consistency(q_hermite):
    # raising after lowering rebuilds E_n times the state
    level = dqm.level0(q_hermite)
    for n in (1, 2, 4):
        f = q_hermite.phi(n).fn
        lifted = dqm.apply_Adag(level, dqm.apply_A(level, f))
        e_n = q_hermite.energy(n)
        for x in _pts(q_hermite, 6):
            assert abs(lifted(x) - e_n * f(x)) <= 1e-8 * (1 + abs(e_n * f(x)))


def test_adjointness_under_quadrature(q_hermite):
    level = dqm.level0(q_hermite)
    f, g = q_hermite.phi(1), q_hermite.phi(2)
    lhs = inner_product(dqm.apply_A(level, f), g, q_hermite.domain)
    rhs = inner_product(f, dqm.apply_Adag(level, g), q_hermite.domain)
    assert abs(lhs - rhs.conjugate() * 0 - rhs) < 1e-9 * (1 + abs(lhs))


def test_operators_return_analytic_fns_on_the_narrowed_strip(askey_wilson_chain):
    # each operator's strip is its input's less the largest shift it makes of
    # the argument, and it keeps the input's rows
    level, deeper = askey_wilson_chain[1:3]
    f = level.phi(range(2, 5))    # deeper.phi(range(2, 5)) has the same strip
    g = abs(level.family.gamma)
    for out, shift in [(dqm.apply_A(level, f), g / 2), (dqm.apply_Adag(level, f), g / 2),
                       (dqm.hamiltonian_apply(level, f), g),
                       (dqm.downshift(deeper, range(2, 5)), g / 2)]:
        assert isinstance(out, AnalyticFn)
        assert out.strip_halfwidth == pytest.approx(f.strip_halfwidth - shift)
        assert out.rows == 3 and out(np.array([1.0, 1.5])).shape == (3, 2)
        outer = 1.0 + 1j * (f.strip_halfwidth - shift / 2)
        with pytest.raises(StripError) as err:
            out(outer)
        assert err.value.point == outer
    plain = dqm.apply_A(level, lambda x: np.cos(x))
    assert plain.strip_halfwidth == math.inf and plain.rows == 0


def test_hamiltonian_zero_on_ground_state(askey_wilson):
    level = dqm.level0(askey_wilson)
    phi0 = askey_wilson.phi(0).fn
    for x in _pts(askey_wilson, 8):
        assert abs(dqm.hamiltonian_apply(level, phi0)(x)) <= 1e-10 * (1 + abs(phi0(x)))


def test_hamiltonian_first_excited_q_hermite(q_hermite):
    level = dqm.level0(q_hermite)
    f = q_hermite.phi(1).fn
    for x in _pts(q_hermite, 10):
        lhs = dqm.hamiltonian_apply(level, f)(x)
        assert abs(lhs - 1.0 * f(x)) <= 1e-10 * (1 + abs(f(x)))   # E_1 = 1/q - 1 = 1


def test_hamiltonian_matches_factor_product(q_hermite):
    level = dqm.level0(q_hermite)
    f = q_hermite.phi(3).fn
    lifted = dqm.apply_Adag(level, dqm.apply_A(level, f))
    for x in _pts(q_hermite, 10):
        assert abs(dqm.hamiltonian_apply(level, f)(x) - (lifted(x) + level.E_s * f(x))) \
            <= 1e-10 * (1 + abs(f(x)))


# -- next potential / chain --------------------------------------------------------

def test_quadratic_relation(q_hermite_chain, q_hermite):
    res = worst_over_levels(dqm, "quadratic", q_hermite_chain, _strip_pts(q_hermite, 20))
    assert res <= 1e-9


def test_linear_relation(q_hermite_chain, q_hermite):
    res = worst_over_levels(dqm, "linear", q_hermite_chain, _strip_pts(q_hermite, 20))
    assert res <= 1e-8


def test_aw_shape_invariant_next_potential(askey_wilson, askey_wilson_chain):
    # level-1 potential equals (1/q) times the base potential at shifted
    # parameters, pointwise
    from crum import make_family
    shifted = make_family("askey_wilson", validate=False,
                          **askey_wilson.shape.si(askey_wilson.params))
    v1 = askey_wilson_chain[1].v
    v_sh = dqm.level0(shifted).v
    kappa = 1.0 / askey_wilson.q
    for x in _strip_pts(askey_wilson, 12):
        lhs = v1(x)
        rhs = kappa * v_sh(x)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


@pytest.mark.parametrize("name,tol", [("q_hermite", 1e-8), ("askey_wilson", 1e-8)])
def test_iso_spectrality_level1(name, tol, request):
    fam = request.getfixturevalue(name)
    levels = request.getfixturevalue(name + "_chain")
    lvl1 = levels[1]
    for n in range(1, 5):
        f = lambda x, nn=n: lvl1.phi(nn, x)
        e_n = fam.energy(n)
        for x in _pts(fam, 6):
            lhs = dqm.hamiltonian_apply(lvl1, f)(x)
            assert abs(lhs - e_n * f(x)) <= tol * (1 + abs(e_n)) * (1 + abs(f(x)))


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_level1_gram_diagonal(name, request):
    fam = request.getfixturevalue(name)
    levels = request.getfixturevalue(name + "_chain")
    fns = levels[1].phi(range(1, 5))
    g = gram_matrix(fns, fam.domain)
    for i, n in enumerate(range(1, 5)):
        expected = fam.energy(n) * fam.hnorm(n)
        assert abs(g[i, i].real - expected) <= 1e-7 * expected
        for j in range(len(fns)):
            if j != i:
                assert abs(g[i, j]) <= 1e-7 * math.sqrt(abs(g[i, i].real) * abs(g[j, j].real))


def test_realness_of_chain_states(q_hermite_chain, q_hermite):
    res = worst_over_levels(dqm, "realness", q_hermite_chain, _strip_pts(q_hermite))
    assert res <= 1e-10


def test_realness_nan_sample_fails_closed(q_hermite_chain, q_hermite):
    pts = _strip_pts(q_hermite) + [complex(math.nan, 0.0)]
    assert dqm.relation_residual("realness", q_hermite_chain[:1], pts) == math.inf


def test_branch_anchor_positive(askey_wilson, askey_wilson_chain):
    # the radicand of the square-root prefactor is positive on Im x = gamma/2
    g = askey_wilson.gamma
    for level in askey_wilson_chain[1:]:
        par = level.parent
        for alpha in np.linspace(0.3, math.pi - 0.3, 20):
            x = complex(alpha, 0.5 * g)
            rad = par.sqrt_v(x - 0.5j * g) * par.sqrt_v_star(x - 0.5j * g)
            assert rad.real > 0
            assert abs(rad.imag) <= 1e-12 * rad.real


def test_chain_break_on_sign_changing_seed(q_hermite, monkeypatch):
    level = dqm.level0(q_hermite)
    # shift every level's phi_n to phi_{n+1}: the seed of level 1 is then
    # phi[1]_2, which has a node on the physical region
    real_phi = dqm.DqmChainLevel.phi
    monkeypatch.setattr(dqm.DqmChainLevel, "phi",
                        lambda self, n, x=None: real_phi(self, n + 1, x))
    with pytest.raises(ChainBreakError, match="changes sign"):
        dqm.step_chain(level)


def test_level0_phi_out_of_range(q_hermite):
    level = dqm.level0(q_hermite)
    assert level.phi(2, 1.1 + 0j) == q_hermite.phi(2).fn(1.1 + 0j)
    with pytest.raises(DomainError):
        level.phi(q_hermite.nmax + 1, 1.1 + 0j)


def test_level0_refuses_nmax_beyond_the_family_range(q_hermite):
    with pytest.raises(DomainError, match="outside tabulated range"):
        dqm.level0(q_hermite, nmax=q_hermite.nmax + 1)
    with pytest.raises(DomainError, match="outside tabulated range"):
        dqm.build_chain(q_hermite, 1, nmax=40)
    assert dqm.level0(q_hermite, nmax=q_hermite.nmax).nmax == q_hermite.nmax


# -- determinant formulas -------------------------------------------------------------

def test_phi_via_casoratian_s0(q_hermite, q_hermite_chain):
    for x in _pts(q_hermite, 5):
        lhs = dqm.phi_via_casoratian(q_hermite_chain, 0, 3, x)
        rhs = q_hermite.phi(3).fn(x)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(rhs))


def test_phi_via_casoratian_depth1(q_hermite, q_hermite_chain):
    for x in _strip_pts(q_hermite, 10):
        lhs = dqm.phi_via_casoratian(q_hermite_chain, 1, 2, x)
        rhs = q_hermite_chain[1].phi(2, x)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_phi_via_casoratian_depth2_aw(askey_wilson, askey_wilson_chain):
    for x in _pts(askey_wilson, 8):
        lhs = dqm.phi_via_casoratian(askey_wilson_chain, 2, 3, x)
        rhs = askey_wilson_chain[2].phi(3, x)
        assert abs(lhs - rhs) <= 1e-7 * (1 + abs(rhs))


def test_casoratian_jacobi_on_polynomials():
    from conftest import from_poly
    from crum.analytic import casoratian
    fs = [from_poly([1.0]), from_poly([0.0, 1.0]), from_poly([0.0, 0.0, 1.0]),
          from_poly([0.0, 0.0, 0.0, 1.0])]
    x, gam = 0.7 + 0j, 0.4
    m11 = casoratian(fs[:3], x + 0.5j * gam, gam)
    m12 = casoratian(fs[:2] + [fs[3]], x + 0.5j * gam, gam)
    m21 = casoratian(fs[:3], x - 0.5j * gam, gam)
    m22 = casoratian(fs[:2] + [fs[3]], x - 0.5j * gam, gam)
    lhs = m11 * m22 - m12 * m21
    rhs = -1j * casoratian(fs[:2], x, gam) * casoratian(fs, x, gam)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_casoratian_jacobi_residual(q_hermite_chain, q_hermite):
    res = dqm.relation_residual("casoratian_jacobi", q_hermite_chain, _pts(q_hermite, 6))
    assert res <= 1e-8


def test_step_determinant_residual(q_hermite_chain, q_hermite):
    # level 1 of a chain built to nmax=2 checks n = 2 only
    chain = dqm.build_chain(q_hermite, 1, nmax=2)
    res = dqm.relation_residual("step_determinant", chain, _strip_pts(q_hermite))
    assert res <= 1e-9


def test_check_product_aw(askey_wilson):
    # built to nmax=3, level 1 checks n = 2, 3 and level 2 checks n = 3
    chain = dqm.build_chain(askey_wilson, 2, nmax=3)
    res = worst_over_levels(dqm, "check_product", chain, _pts(askey_wilson, 8))
    assert res <= 1e-7


def test_no_level_without_an_eigenfunction_to_lift(q_hermite):
    with pytest.raises(ChainBreakError, match="no eigenfunctions left to lift to level 2"):
        dqm.build_chain(q_hermite, 2, nmax=1)


def test_levels_carry_nmax(q_hermite):
    chain = dqm.build_chain(q_hermite, 2, nmax=4)
    assert [lvl.nmax for lvl in chain] == [4, 4, 4]
    assert dqm.build_chain(q_hermite, 1)[1].nmax == q_hermite.nmax
    with pytest.raises(DomainError, match="nmax"):
        chain[2].phi(5, 1.1)


def test_identity_with_nothing_to_check_raises(q_hermite, q_hermite_chain):
    table = {"intertwine": Identity(lambda levels, samples: iter(()), first_level=1)}
    with pytest.raises(DomainError, match="evaluated nothing at level 2"):
        identity_residual(table, "intertwine", q_hermite_chain, _pts(q_hermite))
    with pytest.raises(DomainError, match="applies from level 1"):
        dqm.relation_residual("quadratic", q_hermite_chain[:1], _pts(q_hermite))


def test_phi_via_casoratian_refuses_a_vanishing_denominator(q_hermite, q_hermite_chain):
    # the denominator phi_0(x - ig/2) underflows where x - ig/2 = 1e-300, next
    # to the zero of phi_0 at x = 0; the refusal names the point, in an array too
    x = complex(1e-300, 0.5 * q_hermite.gamma)
    for pts in (x, np.array([1.0, x])):
        with pytest.raises(PoleError, match="denominator determinant vanishes"):
            dqm.phi_via_casoratian(q_hermite_chain, 1, 2, pts)


# -- downshift -------------------------------------------------------------------------

def test_downshift_roundtrip_q_hermite(q_hermite_chain):
    rebuilt = dqm.downshift(q_hermite_chain[1], 2)
    target = q_hermite_chain[0].phi
    for x in _pts(q_hermite_chain[0].family, 10):
        assert abs(rebuilt(x) - target(2, x)) <= 1e-9 * (1 + abs(target(2, x)))


def test_downshift_roundtrip_aw_deep(askey_wilson_chain):
    rebuilt = dqm.downshift(askey_wilson_chain[2], 3)
    target = askey_wilson_chain[1].phi
    for x in _pts(askey_wilson_chain[0].family, 8):
        assert abs(rebuilt(x) - target(3, x)) <= 1e-7 * (1 + abs(target(3, x)))


def test_downshift_gap_is_energy_for_s1(q_hermite_chain, q_hermite):
    lvl1 = q_hermite_chain[1]
    up = dqm.apply_Adag(q_hermite_chain[0], lvl1.phi(2).fn)
    rebuilt = dqm.downshift(lvl1, 2)
    x = 1.1 + 0j
    assert abs(rebuilt(x) * q_hermite.energy(2) - up(x)) < 1e-12 * (1 + abs(up(x)))


def test_downshift_index_error(q_hermite_chain):
    with pytest.raises(DomainError):
        dqm.downshift(q_hermite_chain[2], 1)
    with pytest.raises(DomainError):
        dqm.downshift(q_hermite_chain[0], 1)


# -- strips -------------------------------------------------------------------------

def test_strip_guard_on_family_functions(askey_wilson):
    f = askey_wilson.phi(1)
    with pytest.raises(StripError):
        f(complex(1.3, 5.0))


@pytest.mark.parametrize("op", [dqm.apply_A, dqm.apply_Adag, dqm.hamiltonian_apply])
def test_operators_check_shifted_points_against_the_strip(askey_wilson, op):
    # x + i gamma / 2 lies outside the strip (|Im x| <= 1.498, gamma = -0.511)
    x = complex(1.2, 1.4)
    assert abs(x.imag - 0.5 * askey_wilson.gamma) > askey_wilson.strip_halfwidth
    with pytest.raises(StripError):
        op(dqm.level0(askey_wilson), askey_wilson.phi(1))(x)



# -- the closed form against the level-on-level recursion ---------------------------
# Several report checks now compare the closed form with a route that shares
# part of its formula: casoratian_ratio and check_product share the square-root
# prefactor, Vs_product and V1_from_eta are the telescoped eta product that V^[s]
# is written as, and the benchmark's chain-eval check compares phi[3]_4 and V[3]
# with those same routes.  These tests hold each shared side to the recursive
# oracle of conftest instead, at depths 1-3 on the suite's five strip lines.

def _strip_lines(fam):
    """The suite's strip points: six per line on Im x = 0, +-gamma/2, +-gamma."""
    return np.asarray(verify._strip_points(fam, verify.RunConfig(samples=30, seed=7))[0])


def _worst(ref, values):
    return worst_residual([rel_residual(ref, values)])


@pytest.fixture(scope="module")
def closed_chains(q_hermite, askey_wilson):
    return {"q_hermite": dqm.build_chain(q_hermite, 3, nmax=5),
            "askey_wilson": dqm.build_chain(askey_wilson, 3, nmax=5)}


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_closed_form_levels_match_the_recursion(name, request, closed_chains):
    fam = request.getfixturevalue(name)
    recursive = request.getfixturevalue(name + "_recursive")
    pts = _strip_lines(fam)
    for s in range(1, 4):
        closed, rec = closed_chains[name][s], recursive[s]
        assert _worst(rec.sqrt_v(pts), closed.sqrt_v(pts)) <= 1e-11, s
        assert _worst(rec.v(pts), closed.v(pts)) <= 1e-11, s
        for n in range(s, 6):
            assert _worst(rec.phi(n, pts), closed.phi(n, pts)) <= 1e-11, (s, n)


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_casoratian_ratio_route_matches_the_recursion(name, request, closed_chains):
    fam = request.getfixturevalue(name)
    recursive = request.getfixturevalue(name + "_recursive")
    levels, pts = closed_chains[name], _strip_lines(fam)
    for s in range(1, 4):
        for n in checked_ns(levels[s]):
            route = dqm.phi_via_casoratian(levels, s, n, pts)
            assert _worst(recursive[s].phi(n, pts), route) <= 1e-11, (s, n)


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_check_functions_match_the_recursion(name, request, closed_chains):
    fam = request.getfixturevalue(name)
    recursive = request.getfixturevalue(name + "_recursive")
    levels, pts = closed_chains[name], _strip_lines(fam)
    for s in range(1, 4):
        for n in [s, *checked_ns(levels[s])]:
            ref = dqm.check_function(recursive, s, n, pts)
            assert _worst(ref, dqm.check_function(levels, s, n, pts)) <= 1e-11, (s, n)


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_vs_product_matches_the_recursion(name, request, closed_chains):
    # the eta product on the recursive chain, and the closed form at the
    # shifted points the relation evaluates
    fam = request.getfixturevalue(name)
    recursive = request.getfixturevalue(name + "_recursive")
    levels, pts = closed_chains[name], _strip_lines(fam)
    for s in range(1, 4):
        assert structure.eta_relations_residual("Vs_product", fam, recursive[: s + 1], pts) <= 1e-11
        shifted = pts + 0.5j * s * fam.gamma
        assert _worst(recursive[s].v(shifted), levels[s].v(shifted)) <= 1e-11, s


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_chain_eval_answers_match_the_recursion(name, request, closed_chains):
    # what a chain-eval request serves (phi[3]_4 and V[3] at single points)
    # and the determinant route its output check compares phi with
    fam = request.getfixturevalue(name)
    top, rec = closed_chains[name][3], request.getfixturevalue(name + "_recursive")[3]
    for x in _strip_lines(fam)[::3].tolist():
        assert _worst(rec.phi(4, x), top.phi(4, x)) <= 1e-11, x
        assert _worst(rec.v(x), top.v(x)) <= 1e-11, x
        route = dqm.phi_via_casoratian(closed_chains[name], 3, 4, x)
        assert _worst(rec.phi(4, x), route) <= 1e-11, x


def test_a_fresh_request_evaluates_each_lattice_row_set_once(monkeypatch, q_hermite):
    # a fresh phi[3]_4 and V[3] (a chain-eval request): one ground-state
    # log-sum, one log V call on phi's three rows and one for V, one sine
    # factor call on phi's four rows and one on V's four; the per-level loop
    # made 1, 4 and 12
    top = dqm.build_chain(q_hermite, 3)[3]
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(families._FactorLogSum, "at",
                        counted("log_sum", families._FactorLogSum.at))
    monkeypatch.setattr(families._VLogSum, "__call__",
                        counted("log_v", families._VLogSum.__call__))
    monkeypatch.setattr(dqm, "_log_sin_factor", counted("sines", dqm._log_sin_factor))
    x = complex(1.2345678, 0.1)
    top.phi(4, x), top.v(x)
    assert calls == {"log_sum": 1, "log_v": 2, "sines": 2}


def test_level_evaluation_retains_no_memory(q_hermite):
    # one array call at 2,000 fresh points, then 200 scalar calls at fresh
    # points, of the two things a chain-eval request asks for; a per-point
    # memo of the scalar phi calls alone would retain about 28 kB
    level = dqm.build_chain(q_hermite, 3)[3]
    lo, hi = level.interior()
    grid = np.linspace(lo, hi, 2000) + 0.3j * q_hermite.gamma
    xs = (np.linspace(lo, hi, 200) - 0.2j * q_hermite.gamma).tolist()
    level.phi(4, grid[:7] + 1e-3), level.v(grid[:7] + 1e-3), level.phi(4, 1.0), level.v(1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level.phi(4, grid)
        level.v(grid)
        for x in xs:
            level.phi(4, x)
            level.v(x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024


# -- the run table ---------------------------------------------------------------------------

def _aw_config(seed, depth=2, nmax=5):
    return RunConfig(family="askey_wilson", params=dict(AW_PARAMS), depth=depth, nmax=nmax,
                     seed=seed)


def _suite_evaluations(monkeypatch, nmax):
    """Computations of a difference level's two uncached evaluators, phi^[s]_n
    and log V^[s], per (evaluator, family, s, states, array) key, and calls
    of the family's log V per array, in a seed-7 Askey-Wilson depth-2 suite."""
    computed, log_v = collections.Counter(), collections.Counter()
    fam = families.make_family("askey_wilson", **AW_PARAMS)
    real_log_v = families._VLogSum.__call__

    def spied(real):
        def counted(family, s, n, x):
            computed[(real, family, s, n, x.dtype, x.shape, x.tobytes())] += 1
            return real(family, s, n, x)
        return counted

    def counted_log_v(self, x):
        if self is fam.log_v:
            log_v[x.tobytes()] += 1
        return real_log_v(self, x)

    monkeypatch.setattr(dqm, "_phi_values", spied(dqm._phi_values))
    monkeypatch.setattr(dqm, "_log_v_values", spied(dqm._log_v_values))
    monkeypatch.setattr(families._VLogSum, "__call__", counted_log_v)
    monkeypatch.setattr(verify, "make_family", lambda name, **params: fam)
    report = verify.run_suite(_aw_config(7, nmax=nmax))
    monkeypatch.undo()
    assert report.status == "pass"
    return computed, log_v


def test_a_suite_evaluates_each_level_state_array_once(monkeypatch):
    # without the table a suite computed phi^[s]_n 227 times on 103 keys, some
    # keys up to 11 times, and called the family's log V 205 times on 35
    # arrays; with it, 103 keys at nmax 5 and 109 at nmax 3, and 68 and 71
    # log V calls
    for nmax in (5, 3):
        computed, log_v = _suite_evaluations(monkeypatch, nmax)
        assert computed and max(computed.values()) == 1, nmax
        assert sum(log_v.values()) <= 3 * len(log_v), nmax


def test_the_run_table_lives_for_one_run():
    seeds = (7, 2021)

    def report(seed):
        return dataclasses.replace(verify.run_suite(_aw_config(seed, depth=1)),
                                   wall_time_s=0.0).to_json()

    serial = [report(seed) for seed in seeds]
    assert analytic._RUN_TABLE.get() is None
    with pytest.raises(ParameterError):
        verify.run_suite(_aw_config(7, nmax=families.DEFAULT_NMAX + 1))
    assert analytic._RUN_TABLE.get() is None

    threaded = {}
    threads = [threading.Thread(target=lambda seed=seed: threaded.update({seed: report(seed)}))
               for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [threaded[seed] for seed in seeds] == serial

    # the table goes with its run: a second suite keeps nothing of it
    gc.collect()
    tracemalloc.start()
    try:
        verify.run_suite(_aw_config(7))
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        verify.run_suite(_aw_config(7))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


# -- level-0 determinants --------------------------------------------------------

def _separate_contraction(head, a, b, x, g):
    """casoratian_jacobi's residual from six separate Casoratians, the route
    before the pairs C[f, a], C[f, b] were stacked and the run table kept them."""
    up, dn = x + 0.5j * g, x - 0.5j * g
    m11, m12 = casoratian(head + [a], up, g), casoratian(head + [b], up, g)
    m21, m22 = casoratian(head + [a], dn, g), casoratian(head + [b], dn, g)
    rhs = -1j * casoratian(head, x, g) * casoratian(head + [a, b], x, g)
    return rel_residual(m11 * m22 - m12 * m21, rhs)


_X2 = AnalyticFn(lambda x: x * x, label="x^2")
_EXP = AnalyticFn(lambda x: np.exp(1j * x), label="e^{ix}")


@pytest.mark.parametrize("name", ["askey_wilson", "q_hermite"])
def test_a_stacked_last_column_gives_the_separate_casoratians_bit_for_bit(name, request):
    fam = request.getfixturevalue(name)
    g = fam.gamma
    x = np.asarray(verify.sample_points(fam, 12, 7))
    for pts in (x + 0.5j * g, x - 0.5j * g):
        for s in (1, 2):
            head = [fam.phi(range(s))]
            stacked = casoratian(head, pts, g, last=fam.phi(range(s, s + 2)))
            separate = [casoratian(head + [fam.phi(k)], pts, g) for k in (s, s + 1)]
            assert np.array_equal(stacked, np.stack(separate)), s
            assert np.array_equal(casoratian([fam.phi(range(s + 2))], pts, g),
                                  casoratian(head + [fam.phi(s), fam.phi(s + 1)], pts, g)), s
        head = dqm._GENERIC_HEAD
        stacked = casoratian(head, pts, g, last=dqm._GENERIC_PAIR)
        separate = [casoratian(head + [f], pts, g) for f in (_X2, _EXP)]
        assert np.array_equal(stacked, np.stack(separate))
        assert np.array_equal(casoratian(head + [dqm._GENERIC_PAIR], pts, g),
                              casoratian(head + [_X2, _EXP], pts, g))


def test_casoratian_jacobi_is_the_six_determinant_route_and_its_generic_half_is_run_cached(
        askey_wilson_chain, askey_wilson):
    fam = askey_wilson
    g = fam.gamma
    x = np.asarray(verify.sample_points(fam, 12, 7))
    fresh = [list(dqm._res_casoratian_jacobi(askey_wilson_chain[:s + 1], x)) for s in (1, 2)]
    with analytic.run_table():
        in_run = [list(dqm._res_casoratian_jacobi(askey_wilson_chain[:s + 1], x))
                  for s in (1, 2)]
    # the generic residual has no level: a run computes it once and yields it at both
    assert in_run[0][1] is in_run[1][1]
    generic = _separate_contraction(dqm._GENERIC_HEAD, _X2, _EXP, x, g)
    for s, (out, run) in enumerate(zip(fresh, in_run), start=1):
        phi = _separate_contraction([fam.phi(range(s))], fam.phi(s), fam.phi(s + 1), x, g)
        for got in (out, run):
            assert np.array_equal(got[0], phi), s
            assert np.array_equal(got[1], generic), s
