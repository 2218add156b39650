"""Stacked eigenfunctions: phi of a range of n is one function whose values
and jets lead with a row axis, one row per n, from one evaluation.

The rows must equal the per-n evaluators they replaced (kept in conftest;
a difference level's within 1e-14 relative, since its prefactor sums the
per-level logs as stacked rows in another order), every check must make one
evaluation per level and point array whatever the number of states it
checks, and the pole guards must hold at single points as at arrays.
"""

import collections
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from conftest import AW_PARAMS, per_n_dqm_phi, per_n_oqm_jet
from crum import dqm, families, make_family, oqm, verify
from crum.analytic import AnalyticFn, casoratian, wronskian
from crum.errors import DomainError, PoleError
from crum.verify import RunConfig, run_suite, sample_points

OQM = [("hermite", {}), ("laguerre", {"g": 3.0}), ("jacobi", {"g": 2.0})]
DQM = [("q_hermite", {"q": 0.5}), ("askey_wilson", AW_PARAMS)]


def _same(got, ref):
    """Bit-equal where the shapes match, else within 1e-14 relative."""
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape == ref.shape:
        return np.array_equal(got, ref)
    return np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref)))


def _close(got, ref):
    """Within 1e-14 relative, point by point."""
    return np.all(np.abs(np.asarray(got) - ref) <= 1e-14 * np.abs(ref))


def _point_arrays(fam, count):
    """A 1-d and a 2-d array of sample points of the family."""
    pts = np.asarray(sample_points(fam, count, 7), dtype=complex)
    return [pts, pts[: count - count % 2].reshape(2, -1)]


# -- rows against the per-n oracle ---------------------------------------------------

@pytest.mark.parametrize("name,params", OQM)
def test_stacked_oqm_jets_match_the_per_n_oracle(name, params):
    fam = make_family(name, **params)
    levels = oqm.build_chain(fam, 3, nmax=6)
    for s, level in enumerate(levels):
        for ns in (range(s, 7), range(s + 1, s + 2)):      # the one-row case too
            f = level.phi(ns)
            assert f.rows == len(f) == len(ns)
            for x in _point_arrays(fam, 7):
                for order in range(5):
                    jet = f.jet(x, order)
                    for i, n in enumerate(ns):
                        ref = per_n_oqm_jet(fam, n, s, x, order)
                        for k in range(order + 1):
                            assert _same(jet.coeffs[k][i], ref.coeffs[k]), (name, s, n, order, k)
                values = f(x)
                assert values.shape == (len(ns),) + x.shape
                for i, n in enumerate(ns):
                    assert _same(values[i], level.phi(n)(x)), (name, s, n)


@pytest.mark.parametrize("name,params", DQM)
def test_stacked_dqm_rows_match_the_per_n_oracle(name, params):
    fam = make_family(name, **params)
    levels = dqm.build_chain(fam, 3, nmax=5)
    g = fam.gamma
    for s, level in enumerate(levels):
        for ns in (range(s, 6), range(s + 1, s + 2)):
            for x in _point_arrays(fam, 6):
                for x in (x, x + 0.25j * g):
                    values = level.phi(ns, x)
                    assert values.shape == (len(ns),) + x.shape
                    for i, n in enumerate(ns):
                        assert _same(values[i], level.phi(n, x)), (name, s, n)
                        assert _close(level.phi(n, x), per_n_dqm_phi(level, n, x)), (name, s, n)


def test_large_arrays_go_in_blocks_of_rows_times_points(monkeypatch, hermite, q_hermite):
    # 4 rows on 2,001 points: blocks of 256 points, joined as the whole
    sizes = []
    real = hermite._poly_jet
    monkeypatch.setattr(hermite, "_poly_jet",
                        lambda n, x, order, s: sizes.append(np.size(x)) or real(n, x, order, s))
    x = np.linspace(-4.0, 4.0, oqm.NODE_GRID)
    values = hermite.phi(range(4))(x)
    assert sizes == [256] * 7 + [209]
    assert values.shape == (4, x.size)
    for n in range(4):
        assert _same(values[n], hermite.phi(n)(x))
    level = dqm.build_chain(q_hermite, 2)[2]
    xs = np.linspace(0.2, 2.9, 1500).reshape(30, 50)
    values = level.phi(range(2, 5))(xs)
    assert values.shape == (3, 30, 50)
    for i, n in enumerate(range(2, 5)):
        assert _same(values[i], level.phi(n)(xs))
        assert _close(values[i], per_n_dqm_phi(level, n, xs))


def test_values_keep_the_row_axis_and_fill_a_constant(hermite):
    xs = np.linspace(-1.0, 1.0, 6).astype(complex)
    for x in (xs, xs.reshape(2, 3)):
        assert hermite.phi(range(1, 4))(x).shape == (3,) + x.shape
        assert hermite.phi(range(2, 3))(x).shape == (1,) + x.shape
        assert hermite.phi(2)(x).shape == x.shape
        out = AnalyticFn(lambda t: 2.0)(x)
        assert out.shape == x.shape and np.all(out == 2.0)
    assert hermite.phi(range(1, 4))(0.3).shape == (3,)
    assert np.isscalar(hermite.phi(2)(0.3))


def test_phi_refuses_an_empty_or_strided_range(hermite, q_hermite):
    level = oqm.build_chain(hermite, 1, nmax=5)[1]
    for bad in (range(3, 3), range(1, 5, 2)):
        with pytest.raises(DomainError, match="contiguous range"):
            level.phi(bad)
        with pytest.raises(DomainError, match="contiguous range"):
            q_hermite.phi(bad)
    with pytest.raises(DomainError, match="nmax"):
        level.phi(range(4, 7))
    with pytest.raises(DomainError, match="n >= 1"):
        level.phi(range(0, 3))


# -- the determinant columns -----------------------------------------------------------

def test_stacked_columns_and_last_rows_give_the_per_column_determinants(hermite, q_hermite):
    x = np.linspace(-1.0, 1.0, 5).astype(complex)
    head = [hermite.phi(k) for k in range(3)]
    assert _same(wronskian([hermite.phi(range(3))], x), wronskian(head, x))
    rows = wronskian([hermite.phi(range(3))], x, last=hermite.phi(range(3, 6)))
    assert rows.shape == (3, 5)
    for i, n in enumerate(range(3, 6)):
        assert _same(rows[i], wronskian(head + [hermite.phi(n)], x))
    g = q_hermite.gamma
    xq = np.linspace(0.4, 2.6, 5).astype(complex)
    head = [q_hermite.phi(k) for k in range(2)]
    assert _same(casoratian([q_hermite.phi(range(2))], xq, g), casoratian(head, xq, g))
    rows = casoratian([q_hermite.phi(range(2))], xq, g, last=q_hermite.phi(range(2, 5)))
    for i, n in enumerate(range(2, 5)):
        assert _same(rows[i], casoratian(head + [q_hermite.phi(n)], xq, g))


# -- one evaluation per level and point array ----------------------------------------------

def _poly_jet_calls(monkeypatch, nmax):
    """(s, order, array) of every _poly_jet call of a hermite depth-2 suite."""
    calls = []
    real = families.OqmFamily._poly_jet

    def counted(self, n, x, order, s):
        calls.append((s, order, np.asarray(x).tobytes()))
        return real(self, n, x, order, s)

    monkeypatch.setattr(families.OqmFamily, "_poly_jet", counted)
    assert run_suite(RunConfig(family="hermite", depth=2, nmax=nmax, seed=7)).status == "pass"
    monkeypatch.undo()
    return calls


def test_oqm_suite_evaluates_once_per_key_whatever_the_states(monkeypatch):
    # per-n evaluation made 191 calls on 31 distinct (s, order, array) keys;
    # the repeats left are separate checks of the same key
    calls = _poly_jet_calls(monkeypatch, 5)
    assert len(calls) <= 2 * len(set(calls))
    # the checks take 3 states each at nmax 5 and 2 to 3 at nmax 3, yet
    # evaluate as many points (only the blocks of the node scan differ)
    points = sum(len(x) for _s, _order, x in calls)       # bytes, 16 per point
    assert sum(len(x) for _s, _order, x in _poly_jet_calls(monkeypatch, 3)) == points


def _log_v_calls(monkeypatch, nmax):
    """Array -> number of calls of the family's log V in an Askey-Wilson
    depth-2 suite."""
    calls = collections.Counter()
    real = families._VLogSum.__call__
    fam = make_family("askey_wilson", **AW_PARAMS)

    def counted(self, x):
        if self is fam.log_v:
            calls[x.tobytes()] += 1
        return real(self, x)

    monkeypatch.setattr(families._VLogSum, "__call__", counted)
    monkeypatch.setattr(verify, "make_family", lambda name, **params: fam)
    report = run_suite(RunConfig(family="askey_wilson", params=dict(AW_PARAMS), depth=2,
                                 nmax=nmax, seed=7))
    monkeypatch.undo()
    assert report.status == "pass"
    return calls


def test_dqm_suite_makes_the_same_potential_logs_whatever_the_states(monkeypatch):
    # the family's log V: per-n evaluation made 591 calls on 38 arrays, the
    # stacked rows 205 on 35; with the run table each level's values are
    # computed once per run, so the calls follow the distinct (level, states,
    # array) keys, 68 at nmax 5 and 71 at nmax 3, on the same 35 arrays
    calls = _log_v_calls(monkeypatch, 5)
    fewer_states = _log_v_calls(monkeypatch, 3)
    assert set(fewer_states) == set(calls)
    for counts in (calls, fewer_states):
        assert sum(counts.values()) <= 3 * len(counts)


# -- the pole guards at single points and arrays ---------------------------------------------

def test_a_log_zero_at_a_single_oqm_point_is_a_pole():
    jacobi = make_family("jacobi", g=2.0)
    with pytest.raises(PoleError):
        jacobi.phi(0)(0.0)
    with pytest.raises(PoleError):
        oqm.build_chain(jacobi, 1, 3)[1].phi(2)(0.0)
    # on an array the log is -inf there, and phi_0 = e^W the limit 0, as before
    assert np.all(jacobi.phi(range(2))(np.array([0.0, 1.0]))[:, 0] == 0)


def test_casoratian_route_at_a_ground_state_zero_is_a_pole():
    fam = make_family("q_hermite", q=0.5)
    levels = dqm.build_chain(fam, 1)
    zero = 0.5j * fam.gamma        # the denominator row x - i gamma/2 hits phi_0(0) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert fam.phi(0)(0.0) == 0
        for x in (zero, np.array([1.0, zero, 2.0])):
            with pytest.raises(PoleError):
                dqm.phi_via_casoratian(levels, 1, 2, x)


# -- the report sweep ------------------------------------------------------------------------

def _report_sweep():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_sweep.py"
    spec = importlib.util.spec_from_file_location("report_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_sweep_tells_verdicts_from_moved_numbers():
    sweep = _report_sweep()
    old = {"a": {"status": "pass", "levels": [{"residual": 1e-14, "pass": True}],
                 "lu_growth": math.inf, "note": "x"}}
    assert sweep.diff(old, old) == ([], [])
    new = {"a": {"status": "fail", "levels": [{"residual": 3e-14, "pass": False}],
                 "lu_growth": math.inf, "note": "y", "extra": 1}}
    changes, moves = sweep.diff(old, new)
    assert sorted(changes) == ["a.extra: only in new", "a.levels[0].pass: True -> False",
                               "a.note: 'x' -> 'y'", "a.status: 'pass' -> 'fail'"]
    assert moves == [("a.levels[0].residual", 1e-14, 3e-14, pytest.approx(2e-14))]


def test_report_sweep_counts_moves_by_block_path():
    sweep = _report_sweep()
    assert sweep.block("reports.askey_wilson_q0.2/d1/s2021.oracle.levels.4.fit") == \
        "oracle.levels.fit"
    assert sweep.block("reports.hermite/d2/s7.levels[1].gram.diag[0]") == "levels.gram.diag"
    assert sweep.block("reports.jacobi/d1/s7.shape_invariance.spectrum_rel_err.3") == \
        "shape_invariance.spectrum_rel_err"
    assert sweep.block("scans.c_to_inf[3].max_error") == "max_error"


def test_report_sweep_counts_source_lines(tmp_path):
    sweep = _report_sweep()
    package = tmp_path / "src" / "crum"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    assert sweep.source_lines(tmp_path) == 3
