import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import AW_PARAMS, banded_grid_eigensolve, fd_grid_eigensolve, scalar_gram
from crum import dqm, families, make_family, oqm, structure, verify, virtual_state
from crum.analytic import AnalyticFn, Identity, casoratian, wronskian
from crum.errors import (AccuracyError, ChainBreakError, ParameterError, PoleError,
                         StripError)
from crum.families import _oracle_box
from crum.jets import Jet
from crum.quadrature import nodes_weights
from crum.verify import (DEFAULT_TOLERANCES, RunConfig, grid_eigensolve, gram_matrix,
                         norm_divergence_flag, run_suite, sample_points)

OQM_LEVEL_IDENTITIES = {"zero_mode", "iso_spectral", "node_count"}
OQM_STEP_IDENTITIES = {"intertwine", "riccati", "factorization", "potential_wronskian",
                       "wronskian_product", "wronskian_ratio", "downshift_roundtrip"}
DQM_LEVEL_IDENTITIES = {"zero_mode", "iso_spectral", "realness"}
DQM_STEP_IDENTITIES = {"quadratic", "linear", "intertwine", "factorization",
                       "step_determinant", "check_product", "casoratian_ratio",
                       "casoratian_jacobi", "downshift_roundtrip"}


# -- grid eigensolver oracle -------------------------------------------------------

def test_grid_eigensolve_oscillator():
    levels = grid_eigensolve(lambda x: x * x - 1.0, (-10.0, 10.0), 4)
    for n, e in enumerate(levels):
        assert abs(e - 2.0 * n) < 1e-10


def test_grid_eigensolve_does_not_depend_on_the_box():
    a = grid_eigensolve(lambda x: x * x - 1.0, (-10.0, 10.0), 3)
    b = grid_eigensolve(lambda x: x * x - 1.0, (-8.0, 12.0), 3)
    assert np.max(np.abs(a - b)) < 1e-10


def test_grid_eigensolve_laguerre_ground_state():
    g = 2.0
    u = lambda x: x * x + g * (g - 1) / (x * x) - 1.0 - 2.0 * g
    levels = grid_eigensolve(u, (1e-6, 12.0), 1)
    assert abs(levels[0]) < 1e-10


def test_grid_eigensolve_partner_drops_ground_state(hermite_chain):
    u1 = hermite_chain[1].potential()
    levels = grid_eigensolve(lambda x: u1(x).real, (-10.0, 10.0), 3)
    shifted = levels + hermite_chain[1].E_s
    assert np.max(np.abs(shifted - np.array([2.0, 4.0, 6.0]))) < 1e-10


def test_grid_eigensolve_rejects_an_empty_box():
    with pytest.raises(ValueError, match="empty oracle box"):
        grid_eigensolve(lambda x: x * x, (5.0, -5.0), 2)


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi"])
def test_grid_eigensolve_matches_the_finite_difference_oracle(name, request):
    # the finite differences at 1,000 and 2,000 nodes differ by about the
    # error of the coarser (Richardson leaves an h^4 term); the spectral
    # elements must lie within twice that distance of the coarser
    fam = request.getfixturevalue(name)
    box = _oracle_box(fam)
    for level in request.getfixturevalue(f"{name}_chain")[:2]:
        u = level.potential()
        fast = grid_eigensolve(lambda t: u(t).real, box, 3)
        slow = fd_grid_eigensolve(lambda t: u(t).real, box, 1000, 3)
        own_err = np.max(np.abs(slow - fd_grid_eigensolve(lambda t: u(t).real, box, 2000, 3)))
        assert np.max(np.abs(fast - slow)) <= 2.0 * own_err, (name, level.s)


@pytest.mark.parametrize("name, params", [("hermite", {}), ("laguerre", {"g": 3.0}),
                                          ("jacobi", {"g": 2.0}), ("laguerre", {"g": 1.05})],
                         ids=["hermite", "laguerre-g3", "jacobi-g2", "laguerre-g1.05"])
def test_grid_eigensolve_matches_the_banded_solve(name, params):
    # the same spectral elements, solved dense and as a band; laguerre
    # g = 1.05 takes the most wall layers
    fam = make_family(name, **params)
    box = _oracle_box(fam)
    for level in oqm.build_chain(fam, 1, 3):
        u = level.potential()
        dense = grid_eigensolve(lambda t: u(t).real, box, 3)
        banded = banded_grid_eigensolve(lambda t: u(t).real, box, 3)
        assert np.all(np.abs(dense - banded) <= 1e-9 * (1.0 + np.abs(banded))), (name, params, level.s)


@pytest.mark.parametrize("name, g", [("laguerre", 1.05), ("laguerre", 1.2), ("jacobi", 1.05)])
def test_oracle_passes_near_g_1(name, g):
    # the finite-difference oracle failed these at 1e-5: at level 0 for
    # laguerre, where psi ~ x^g is not smooth at the wall, and at level 1 for
    # jacobi, where the box began 0.02 off the wall
    rep = run_suite(RunConfig(family=name, params={"g": g}, depth=2, seed=7))
    for s in (0, 1):
        block = rep.oracle[f"level{s}"]
        assert block["pass"] and block["max_rel_err"] <= block["tol"], (name, g, s, block)


def test_grid_eigensolve_evaluates_u_on_few_points():
    # the solve's cost grows with its node count, so pin the points of U it
    # asks for: two calls (the probes for the wall layers, then the nodes),
    # at most 297 points, near g = 1 where the walls take the most layers
    for name, params in [("hermite", {}), ("laguerre", {"g": 1.05}), ("laguerre", {"g": 3.0}),
                         ("jacobi", {"g": 1.05}), ("jacobi", {"g": 2.0})]:
        fam = make_family(name, **params)
        for level in oqm.build_chain(fam, 1, 3):
            u = level.potential()
            sizes = []

            def counted(x):
                sizes.append(x.size)
                return u(x).real

            grid_eigensolve(counted, _oracle_box(fam), 3)
            assert len(sizes) == 2 and sum(sizes) <= 297, (name, params, level.s, sizes)


# -- gram matrices ------------------------------------------------------------------

def test_gram_level0_hermite(hermite):
    g = gram_matrix(hermite.phi(range(5)), hermite.domain)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12 * np.max(np.abs(g))
    for n in range(5):
        assert abs(g[n, n].real - hermite.hnorm(n)) < 1e-9 * hermite.hnorm(n)
        for m in range(5):
            if m != n:
                assert abs(g[n, m]) < 1e-10 * math.sqrt(g[n, n].real * g[m, m].real)


def test_virtual_state_divergence_flagging(hermite, jacobi):
    for fam in (hermite, jacobi):
        flag = norm_divergence_flag(virtual_state(fam), fam.domain)
        assert flag["diverging"]


# -- suite runs ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hermite_run():
    """A depth-3 hermite suite and the number of oqm.wronskian calls it made."""
    calls = []
    real = oqm.wronskian
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oqm, "wronskian", lambda *a, **k: calls.append(1) or real(*a, **k))
        report = run_suite(RunConfig(family="hermite", depth=3, nmax=6, seed=11))
    return report, len(calls)


@pytest.fixture(scope="module")
def hermite_report(hermite_run):
    return hermite_run[0]


def test_suite_checks_each_level_once(hermite_run):
    # 3 levels x (2 wronskian_product + 2 wronskian_ratio calls: the
    # denominator, and the numerators of both states as one stack), each call
    # on the whole sample array, less the denominator, which is
    # wronskian_product's first Wronskian and is computed once per run (12
    # without the run table); re-checking every lower level at each level
    # would make 24, one call per state 18, and one per sample point 360
    assert hermite_run[1] == 9


@pytest.mark.parametrize("family,params,name,count", [
    ("askey_wilson", AW_PARAMS, "casoratian", 17), ("hermite", {}, "wronskian", 7)],
    ids=["askey_wilson", "hermite"])
def test_a_suite_computes_each_level0_determinant_once(monkeypatch, family, params, name, count):
    # seed-7 depth-2 suites: each (columns, last column, points) key once; 31
    # Casoratians on 23 keys and 9 Wronskians on 7 before the run table kept
    # level-0 determinants and the generic casoratian_jacobi residual
    keys = []
    real = getattr(verify, name)

    def counted(fs, x, *args, **kwargs):
        last = getattr(kwargs.get("last"), "label", None)
        keys.append((tuple(f.label for f in fs), last, np.asarray(x).tobytes()))
        return real(fs, x, *args, **kwargs)

    for module in (dqm, oqm, structure, verify):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    report = run_suite(RunConfig(family=family, params=dict(params), depth=2, nmax=5, seed=7))
    assert report.status == "pass"
    assert len(keys) == count
    assert len(set(keys)) == count


def test_suite_hermite_passes(hermite_report):
    assert hermite_report.status == "pass"
    tol = DEFAULT_TOLERANCES
    for blk in hermite_report.levels:
        for name, entry in blk["identities"].items():
            if entry.get("residual") is not None:
                assert entry["residual"] <= max(entry["tol"], 1e-7)


# deep levels near the walls: every Gram node must be finite, and riccati,
# intertwine and factorization must hold to tolerance at depth 4
@pytest.mark.parametrize("family,params,depth,seed", [
    ("laguerre", {"g": 3.0}, 2, 7), ("laguerre", {"g": 3.0}, 2, 2021),
    ("laguerre", {"g": 3.0}, 3, 7), ("laguerre", {"g": 3.0}, 3, 2021),
    ("jacobi", {"g": 2.0}, 3, 7), ("jacobi", {"g": 2.0}, 3, 2021),
    ("hermite", {}, 4, 7), ("laguerre", {"g": 3.0}, 4, 7), ("jacobi", {"g": 2.0}, 4, 7),
])
def test_deep_oqm_chain_passes(family, params, depth, seed):
    rep = run_suite(RunConfig(family=family, params=params, depth=depth, nmax=depth + 1,
                              samples=6, seed=seed))
    assert rep.status == "pass"


def test_suite_identity_inventory(hermite_report):
    for blk in hermite_report.levels:
        expected = OQM_LEVEL_IDENTITIES | (OQM_STEP_IDENTITIES if blk["s"] >= 1 else set())
        assert set(blk["identities"]) == expected


def test_suite_q_hermite_inventory_and_pass():
    rep = run_suite(RunConfig(family="q_hermite", params={"q": 0.5}, depth=2, nmax=5, seed=7))
    assert rep.status == "pass"
    for blk in rep.levels:
        expected = DQM_LEVEL_IDENTITIES | (DQM_STEP_IDENTITIES if blk["s"] >= 1 else set())
        assert set(blk["identities"]) == expected
        skipped = [k for k, v in blk["identities"].items() if v.get("skipped")]
        assert not skipped
    assert rep.gamma == pytest.approx(math.log(0.5))


def test_chain_error_in_an_identity_is_not_a_pass(monkeypatch):
    real = dqm.relation_residual

    def broken(kind, *args, **kwargs):
        if kind == "linear":
            raise ChainBreakError("injected")
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(dqm, "relation_residual", broken)
    rep = run_suite(RunConfig(family="q_hermite", params={"q": 0.5}, depth=1, nmax=3,
                              samples=4, seed=7))
    assert rep.levels[1]["identities"]["linear"]["skipped"] == "ChainBreakError: injected"
    assert rep.status == "incomplete"


def test_chain_error_in_a_coordinate_relation_is_a_skip(monkeypatch):
    def pole(levels, samples):
        raise PoleError("injected")
        yield

    monkeypatch.setitem(structure.ETA_RELATIONS["dqm"], "Vs_product",
                        Identity(pole, first_level=1))
    rep = run_suite(RunConfig(family="q_hermite", params={"q": 0.5}, depth=1, nmax=3,
                              samples=4, seed=7))
    assert rep.eta_relations["Vs_product"] == "skipped: PoleError: injected"
    assert isinstance(rep.eta_relations["eta_level"], float)
    assert rep.status == "incomplete"


def test_identity_that_evaluates_nothing_is_a_skip(monkeypatch):
    names = {"iso_spectral", "realness", "intertwine", "factorization",
             "step_determinant", "check_product", "casoratian_ratio", "downshift_roundtrip"}
    for name in names:
        monkeypatch.setitem(dqm.IDENTITIES, name, dqm.IDENTITIES[name]._replace(
            residuals=lambda levels, samples: iter(())))
    rep = run_suite(RunConfig(family="q_hermite", params={"q": 0.5}, depth=2, nmax=2,
                              samples=4, seed=7))
    skipped = {name for name, entry in rep.levels[2]["identities"].items()
               if entry["pass"] is None}
    assert skipped == names
    for name in skipped:
        assert rep.levels[2]["identities"][name]["skipped"] == (
            f"DomainError: {name} evaluated nothing at level 2")
    assert rep.status == "incomplete"


def _stub_kind(strip_free_sizes):
    """A chain kind whose relation_residual leaves the strip on every sample
    set except those of the given sizes, where it returns 0.25; it records
    the size of each set it is asked about."""
    asked = []

    def relation_residual(name, chain, pts):
        asked.append(len(pts))
        if len(pts) not in strip_free_sizes:
            raise StripError(pts[0], 0.1, "stub")
        return 0.25

    return SimpleNamespace(chain=SimpleNamespace(relation_residual=relation_residual)), asked


@pytest.mark.parametrize("sampled,samples", [(True, 5), (False, 1)])
def test_identity_moves_on_from_a_sample_set_that_leaves_the_strip(sampled, samples):
    kind, asked = _stub_kind({5})
    config = RunConfig(tolerances={"zero_mode": 0.5})
    point_sets = [np.zeros(3), np.zeros(5), np.zeros(7)]
    entry = verify._identity(kind, "zero_mode", [], sampled, point_sets, config)
    assert asked == [3, 5]
    assert entry == {"residual": 0.25, "tol": 0.5, "pass": True, "samples": samples}


def test_identity_without_a_strip_feasible_sample_set_is_a_skip():
    kind, asked = _stub_kind(set())
    entry = verify._identity(kind, "zero_mode", [], True, [np.zeros(3), np.zeros(5)],
                             RunConfig())
    assert asked == [3, 5]
    assert entry == {"residual": None, "tol": None, "pass": None,
                     "skipped": "no strip-feasible sample points at this depth"}


# depth and nmax default to 2 and 5; a level above nmax has no eigenfunction
@pytest.mark.parametrize("field,value", [("samples", 0), ("depth", -1), ("depth", 0), ("nmax", -1),
                                         ("depth", "two"), ("samples", 2.5), ("seed", None),
                                         ("depth", 6), ("nmax", 1)])
def test_run_config_rejects_what_cannot_run(field, value):
    with pytest.raises(ParameterError, match=field):
        RunConfig(family="hermite", **{field: value})
    with pytest.raises(ParameterError, match=field):
        RunConfig.from_dict({"family": "hermite", field: value})


def test_suite_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="closed"):
        run_suite(RunConfig(family="askey_wilson",
                            params={"a1": 0.1 + 0.2j, "a2": 0.3, "a3": -0.2, "a4": 0.15,
                                    "q": 0.5}, depth=1))


def test_report_determinism():
    cfg = RunConfig(family="hermite", depth=1, nmax=3, seed=42)
    a = run_suite(cfg).to_dict()
    b = run_suite(cfg).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_config_round_trip():
    for params in ({"q": 0.6, "a1": 0.3},
                   {"q": 0.6, "a1": 0.3, "a3": 0.1 + 0.2j, "a4": 0.1 - 0.2j}):
        cfg = RunConfig(family="askey_wilson", params=params, depth=2,
                        nmax=5, samples=18, tolerances={"zero_mode": 1e-8}, seed=9)
        back = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg
        # configs stored by older versions carry more keys
        stored = dict(json.loads(cfg.to_json()), precision="double", check_limits=False,
                      out="report.json")
        assert RunConfig.from_dict(stored) == cfg


def test_sample_points_deterministic_and_in_domain(hermite):
    a = sample_points(hermite, 10, 5)
    b = sample_points(hermite, 10, 5)
    c = sample_points(hermite, 10, 6)
    assert a == b
    assert a != c
    assert sample_points(hermite, 10, 21) != sample_points(hermite, 10, 2021)
    lo, hi = hermite.interior(0.9)
    assert all(lo <= p.real <= hi and p.imag == 0 for p in a)


def test_report_json_schema_fields(hermite_report):
    d = hermite_report.to_dict()
    for key in ("schema", "family", "params", "gamma", "depth", "levels", "oracle", "status"):
        assert key in d
    assert d["schema"] == "crum-report/1"
    for blk in d["levels"]:
        assert {"s", "E_s", "identities", "gram"} <= set(blk)
        for entry in blk["identities"].values():
            assert {"residual", "tol", "pass"} <= set(entry) or "skipped" in entry


# -- array evaluation against the per-point oracles ----------------------------------

@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_gram_matches_per_entry_oracle(name, request):
    fam = request.getfixturevalue(name)
    chain = request.getfixturevalue(f"{name}_chain")
    for level in chain[:3]:
        g = gram_matrix(level.phi(range(level.s, level.s + 4)), fam.domain)
        ref = scalar_gram([level.phi(n) for n in range(level.s, level.s + 4)], fam.domain)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, level.s)


def _holed(f, hole):
    """f with nan in its array values where hole(x) holds; scalar calls unchanged."""

    def jet_fn(x, order):
        j = f.jet_fn(x, order)
        if isinstance(x, np.ndarray):
            j.coeffs[0] = np.where(hole(x), np.nan, j.coeffs[0])
        return j

    return AnalyticFn(f.fn, label=f.label, jet_fn=jet_fn, rows=f.rows)


def test_non_finite_potential_on_the_oracle_grid_is_an_error(monkeypatch):
    with pytest.raises(AccuracyError, match="potential not finite at grid point"):
        grid_eigensolve(lambda x: np.where(x > 1.0, np.inf, x * x), (-5.0, 5.0), 2)
    real = oqm.OqmChainLevel.potential
    # beyond the sample points, inside the oracle box: only the grid sees it
    monkeypatch.setattr(oqm.OqmChainLevel, "potential",
                        lambda level: _holed(real(level), lambda x: abs(x.real - 7.3) < 0.05))
    with pytest.raises(AccuracyError, match="potential not finite at grid point"):
        run_suite(RunConfig(family="hermite", depth=1, nmax=3, samples=4, seed=7))


def test_non_finite_gram_node_is_a_skip(monkeypatch, hermite):
    node = nodes_weights(hermite.domain, 0)[0][21]
    real = oqm.OqmChainLevel.phi
    monkeypatch.setattr(oqm.OqmChainLevel, "phi", lambda level, n: (
        _holed(real(level, n), lambda x: x == node) if level.s == 1 else real(level, n)))
    rep = run_suite(RunConfig(family="hermite", depth=1, nmax=3, samples=4, seed=7))
    assert rep.levels[1]["gram"] == {
        "skipped": f"quadrature: integrand not finite at node x={node:g}"}
    assert rep.levels[0]["gram"]["pass"]
    assert rep.status == "incomplete"


def test_evaluation_counts_are_one_call_per_grid_and_per_level(monkeypatch):
    # exact counts for hermite depth 2 (nmax 5, seed 7): a return to
    # per-point evaluation multiplies them by the number of points
    real_grid, real_gram = verify.grid_eigensolve, verify.gram_matrix
    grids, grams = [], []

    def grid(u_fn, *args):
        sizes = []
        grids.append(sizes)

        def counted(x):
            sizes.append(x.size)
            return u_fn(x)

        return real_grid(counted, *args)

    def gram(f, domain):
        sizes = []
        grams.append(sizes)

        def counted(x):
            sizes.append(x.size)
            return f(x)

        return real_gram(dataclasses.replace(f, fn=counted, jet_fn=None), domain)

    monkeypatch.setattr(verify, "grid_eigensolve", grid)
    monkeypatch.setattr(verify, "gram_matrix", gram)
    rep = run_suite(RunConfig(family="hermite", depth=2, seed=7))
    assert rep.status == "pass"
    # two calls per solve (the wall probes, then the nodes of ten elements of
    # order 16): the validation solve, which the oracle's level 0 reads
    # again, then the oracle at level 1
    assert grids == [[10, 159]] * 2
    # the stacked phi once per quadrature level (levels 0..3, 41 + 40 + 80 +
    # 160 nodes) at each Gram level
    assert grams == [[41, 40, 80, 160]] * 3


def test_a_difference_suite_fits_level_0_once_and_builds_two_families(monkeypatch):
    # the validated family's fit is the one the oracle block reads; the
    # family at si(lambda) is built once, unvalidated, for the shape rule and
    # the virtual state
    fits, built, validated = [], [], []
    for name, log in (("_level0_spectrum", fits), ("__init__", built), ("validate", validated)):
        real = getattr(families.DqmFamily, name)
        monkeypatch.setattr(families.DqmFamily, name,
                            lambda self, *a, _real=real, _log=log, **k:
                            _log.append(self) or _real(self, *a, **k))
    rep = run_suite(RunConfig(family="askey_wilson", params=AW_PARAMS, depth=2, seed=7))
    assert rep.status == "pass"
    assert len(fits) == 1 and len(built) == 2 and len(validated) == 1
    assert fits == validated
    fam = fits[0]
    assert [rep.oracle["levels"][str(n)]["fit"] for n in range(5)] == list(fam.oracle_levels())


def test_identities_make_no_scalar_jet_call(monkeypatch):
    # hermite depth 2: every identity evaluates each function on the whole
    # sample array, so no jet anchored at a single point is built inside one
    inside, anchors = [False], []
    real_residual, real_init = oqm.relation_residual, Jet.__init__

    def relation_residual(*args):
        inside[0] = True
        try:
            return real_residual(*args)
        finally:
            inside[0] = False

    def init(self, anchor, coeffs):
        if inside[0]:
            anchors.append(isinstance(anchor, np.ndarray))
        real_init(self, anchor, coeffs)

    monkeypatch.setattr(oqm, "relation_residual", relation_residual)
    monkeypatch.setattr(Jet, "__init__", init)
    rep = run_suite(RunConfig(family="hermite", depth=2, seed=7))
    assert rep.status == "pass"
    assert anchors and all(anchors)


def test_ground_state_log_sum_is_computed_once_per_distinct_array(monkeypatch):
    # Askey-Wilson depth 2 (nmax 5, seed 7): the checks evaluate phi_0 on the
    # same shifted sample rows again and again; without the family's memo the
    # array log-sum runs 521 times
    keys = []
    real_at = families._FactorLogSum.at

    def at(self, x):
        keys.append((self, x.dtype.str, x.shape, x.tobytes()))
        return real_at(self, x)

    monkeypatch.setattr(families._FactorLogSum, "at", at)
    rep = run_suite(RunConfig(family="askey_wilson", params=dict(AW_PARAMS), depth=2,
                              nmax=5, seed=7))
    assert rep.status == "pass"
    assert len(keys) <= 56
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("family,params", [("askey_wilson", AW_PARAMS),
                                           ("q_hermite", {"q": 0.5})])
def test_memoized_log_sum_reports_match_the_plain_rule(monkeypatch, family, params):
    # the memo is a fast path: with every array log-sum computed afresh the
    # reports are the same
    cfg = RunConfig(family=family, params=dict(params), depth=2, nmax=5, seed=7)
    fast = run_suite(cfg).to_dict()
    plain = families.DqmFamily.log_phi0sq

    def log_phi0sq(self, x):
        return self._logphi0sq.at(x) if isinstance(x, np.ndarray) else plain(self, x)

    monkeypatch.setattr(families.DqmFamily, "log_phi0sq", log_phi0sq)
    slow = run_suite(cfg).to_dict()
    fast.pop("wall_time_s")
    slow.pop("wall_time_s")
    assert fast["status"] == "pass" and fast == slow


def test_pole_at_one_sample_of_a_difference_chain_is_a_skip(monkeypatch):
    # the difference chains evaluate whole sample arrays with exceptions
    # propagating: a PoleError at one sample is a skip, not a nan that fails
    fam = make_family("q_hermite", q=0.5)
    bad = sample_points(fam, 4, 7)[1]
    real_phi = dqm.DqmChainLevel.phi

    def phi(self, n, x=None):
        if x is not None:
            return real_phi(self, n, x)
        f = real_phi(self, n)

        def fn(t):
            if np.any(t == bad):
                raise PoleError(f"injected at x={bad}")
            return f.fn(t)

        return AnalyticFn(fn, strip_halfwidth=f.strip_halfwidth, label=f.label, rows=f.rows)

    monkeypatch.setattr(dqm.DqmChainLevel, "phi", phi)
    rep = run_suite(RunConfig(family="q_hermite", params={"q": 0.5}, depth=1, nmax=3,
                              samples=4, seed=7))
    for blk in rep.levels:
        entry = blk["identities"]["iso_spectral"]
        assert entry["pass"] is None
        assert entry["skipped"] == f"PoleError: injected at x={bad}"
    assert rep.status == "incomplete"


@pytest.mark.parametrize("seed", [7, 2021])
def test_no_identity_evaluates_phi_off_the_strip(monkeypatch, seed):
    # the Askey-Wilson set at q = 0.2 has a strip (1.498) narrower than |gamma|
    # (1.609): every identity must refuse a sample set whose shifts leave it
    params = {**AW_PARAMS, "q": 0.2}
    fam = make_family("askey_wilson", **params)
    config = RunConfig(family="askey_wilson", params=params, depth=2, seed=seed)
    levels = dqm.build_chain(fam, 2, nmax=config.nmax)
    kind = verify._KINDS["dqm"]
    real = dqm.DqmChainLevel._phi_at
    worst = {}

    def spy(self, n, x):
        worst[name] = max(worst.get(name, 0.0), float(np.max(np.abs(np.imag(x)))))
        return real(self, n, x)

    monkeypatch.setattr(dqm.DqmChainLevel, "_phi_at", spy)
    for s in range(3):
        for name, entry in dqm.IDENTITIES.items():
            if s >= entry.first_level:
                verify._identity(kind, name, levels[: s + 1], entry.sampled,
                                 verify._strip_points(fam, config), config)
    bound = fam.strip_halfwidth * (1 + 1e-12) + 1e-15    # AnalyticFn.check_strip's
    assert worst and {name: im for name, im in worst.items() if im > bound} == {}


def test_a_vanishing_shifted_ground_state_fails_the_virtual_block(monkeypatch):
    # the virtual state divides by the shifted ground state: a zero of it at
    # an axis sample is a pole there, which fails the block, not the run
    config = RunConfig(family="q_hermite", params={"q": 0.5}, depth=1, nmax=3, samples=4,
                       seed=7)
    fam = make_family("q_hermite", q=0.5)
    zero_at = verify._strip_points(fam, config)[-1][1]
    real_shifted = type(fam).shifted

    def shifted(self):
        out = real_shifted(self)
        phi0 = out.phi(0)
        vanishing = AnalyticFn(lambda x: np.where(x == zero_at, 0.0, phi0.fn(x)),
                               strip_halfwidth=phi0.strip_halfwidth)
        monkeypatch.setattr(out, "phi", lambda n: vanishing)
        return out

    monkeypatch.setattr(type(fam), "shifted", shifted)
    rep = run_suite(config)
    assert rep.virtual_state["annihilation_residual"] == math.inf
    assert rep.virtual_state["pass"] is False
    assert rep.status == "fail"


# lu_growth: the largest LU growth of the deepest determinant over the first
# five axis samples, against a loop of single-point determinants
@pytest.mark.parametrize("family,params,depth", [("hermite", {}, 3), ("q_hermite", {"q": 0.5}, 2)])
def test_lu_growth_is_the_worst_single_point_growth(family, params, depth):
    rep = run_suite(RunConfig(family=family, params=params, depth=depth, nmax=4, samples=5,
                              seed=7))
    fam = make_family(family, **params)
    if fam.kind == "oqm":
        fs = [fam.phi(k) for k in range(depth)]
        det = lambda x: wronskian(fs, x, info=True)
    else:
        fs = [fam.phi(k) for k in range(depth + 1)]
        det = lambda x: casoratian(fs, x, fam.gamma, info=True)
    growths = [det(x)[1] for x in sample_points(fam, 5, 7)]
    assert max(growths) > 1.0
    assert rep.lu_growth == pytest.approx(max(growths), rel=1e-12)


def _outside_the_strip(x):
    raise StripError(x[0], 0.0, "injected")


@pytest.mark.parametrize("det,growth", [(lambda x: (x, math.nan), math.inf),
                                        (_outside_the_strip, 1.0)])
def test_lu_growth_fails_closed(monkeypatch, det, growth):
    # a non-finite growth can never read as a small one; points whose
    # shifts leave the strip have no determinant and no growth
    monkeypatch.setitem(verify._KINDS, "oqm",
                        dataclasses.replace(verify._KINDS["oqm"], growth_det=lambda f, s: det))
    rep = run_suite(RunConfig(family="hermite", depth=1, nmax=3, samples=4, seed=7))
    assert rep.lu_growth == growth


@pytest.mark.parametrize("family,params", [("hermite", {}), ("q_hermite", {"q": 0.5})])
def test_nmax_beyond_the_family_range_is_a_parameter_error(family, params):
    with pytest.raises(ParameterError, match="nmax must be <= 32"):
        run_suite(RunConfig(family=family, params=params, depth=1, nmax=40))
