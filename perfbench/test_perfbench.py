"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the harness, not crum: that the wrappers reach every binding
site, that each workload exercises the layers it is meant to and bypasses
the others, that counts repeat exactly, that a delay injected into one
layer is charged to that layer alone, and that output checks fail closed.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# functions that crum modules import by name, and where they are bound
BINDING_SITES = {
    "crum.quadrature.integrate": {"crum.analytic"},
    "crum.analytic.casoratian": {"crum.dqm", "crum.structure", "crum.verify"},
    "crum.analytic.wronskian": {"crum.oqm", "crum.structure", "crum.verify"},
    "crum.analytic.inner_product": {"crum.families", "crum.verify"},
    "crum.families.make_family": {"crum.verify", "crum.structure"},
    "crum.verify.run_suite": {"crum.cli"},
}


def traced_pass(workload, seed=5):
    spec = {"workload": workload, "size": "tiny", "out_dir": run.OUT_DIR,
            "pass_seed": run.pass_seed(workload, seed, 0), "trace": True}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    return run.run_worker(spec, deadline=time.monotonic() + run.RUN_LIMIT_S)


def test_wrappers_reach_every_binding_site():
    import crum.cli  # noqa: F401

    originals = {}
    for qualified in BINDING_SITES:
        defining, attr = qualified.rsplit(".", 1)
        originals[qualified] = getattr(importlib.import_module(defining), attr)
    with tracing.instrument(tracing.Tracer()) as patch:
        for qualified, sites in BINDING_SITES.items():
            defining = qualified.rsplit(".", 1)[0]
            assert sites | {defining} <= set(patch.bindings[qualified]), qualified
        for name, mod in sys.modules.items():
            if name == "crum" or name.startswith("crum."):
                for qualified, orig in originals.items():
                    attr = qualified.rsplit(".", 1)[1]
                    assert mod.__dict__.get(attr) is not orig, f"{name}.{attr} unwrapped"
    from crum import analytic, quadrature

    assert quadrature.integrate is originals["crum.quadrature.integrate"]
    assert analytic.integrate is originals["crum.quadrature.integrate"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layers_fire_where_predicted(workload):
    result = traced_pass(workload)
    values = result["layers"]
    assert set(values) == {m[0] for m in layers.METRICS} - {"trace.overhead_frac"}
    predicted = layers.PREDICTED[workload]
    assert [k for k in predicted["fires"] if not values[k] > 0] == []
    assert [k for k in predicted["zero"] if values[k] != 0] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    counts = [{name: p["layers"][name] for name, _u, _b, kind in layers.METRICS
               if kind == "exact"} for p in (traced_pass(workload), traced_pass(workload))]
    assert counts[0] == counts[1]


def test_chain_eval_logsum_counts_per_depth():
    spec = {"workload": "chain-eval", "size": "full", "out_dir": run.OUT_DIR,
            "pass_seed": 1, "trace": True}
    values = run.run_worker(spec, deadline=time.monotonic() + run.RUN_LIMIT_S)["layers"]
    per_level = [values[f"dqm.step_chain.logsum_calls.l{k}"] for k in (1, 2, 3)]
    cumulative = [sum(per_level[:k]) for k in (1, 2, 3)]
    assert cumulative == [602, 6020, 32809]


def test_injected_delay_is_charged_to_its_layer_only():
    import crum

    from crum import dqm

    def self_times(delays):
        tracer = tracing.Tracer(delays=delays)
        with tracing.instrument(tracer):
            dqm.build_chain(crum.make_family("q_hermite", q=0.5), 1)
        totals = tracer.span_totals()
        return {name: row[2] for name, row in totals.items()}, tracer.counts

    delay = 1e-3
    base, _ = self_times(None)
    slowed, counts = self_times({"families.logsum": delay})
    injected = counts["families.logsum.calls"] * delay
    assert injected > 0.5
    grew = slowed["families.logsum"] - base["families.logsum"]
    assert injected <= grew <= 1.6 * injected
    for name in base:
        if name != "families.logsum":
            assert abs(slowed[name] - base[name]) < 0.05 * injected, name


def _report(**changes):
    report = {
        "status": "pass",
        "levels": [{"s": 0, "identities": {"zero_mode": {"residual": 1e-12, "tol": 1e-9,
                                                         "pass": True, "samples": 20}},
                    "gram": {"ns": [0, 1], "diag": [1.0, 2.0], "max_offdiag_rel": 1e-12,
                             "max_diag_rel_err": 1e-12, "hermiticity_defect": 0.0,
                             "tol": 1e-7, "pass": True}}],
        "oracle": {"levels": {"0": {"rel_err": 1e-9, "pass": True}}},
        "shape_invariance": {"converged": True, "max_residual": 1e-12, "tol": 1e-7,
                             "spectrum_rel_err": {"0": 0.0}},
        "eta_relations": {"eta_affine": 1e-12, "tol": 1e-7, "pass": True},
        "virtual_state": {"annihilation_residual": 1e-12, "tol": 1e-8, "pass": True},
        "lu_growth": 1.5,
    }
    report.update(changes)
    return report


def test_report_checks_fail_closed():
    attempted, failures = checks.check_report(_report())
    assert attempted > 10 and failures == []

    nan_entry = {"zero_mode": {"residual": math.nan, "tol": 1e-9, "pass": True, "samples": 20}}
    bad = _report()
    bad["levels"][0]["identities"] = nan_entry
    assert checks.check_report(bad)[1]

    over = _report()
    over["levels"][0]["identities"]["zero_mode"]["residual"] = 1e-6
    assert checks.check_report(over)[1]

    skipped = _report()
    skipped["levels"][0]["gram"] = {"skipped": "quadrature: no convergence"}
    assert checks.check_report(skipped)[1]

    assert checks.check_report(_report(eta_relations={"Vs_product": "skipped: strip",
                                                      "tol": 1e-7, "pass": True}))[1]
    loosened = _report()
    loosened["levels"][0]["identities"]["zero_mode"].update(residual=1e-8, tol=1.0)
    assert checks.check_report(loosened)[1]


@pytest.mark.xfail(strict=True, reason="crum defect: laguerre's level-2 Gram block is skipped "
                   "(integrand not finite near x=0), so suite-oqm runs laguerre at depth 1; "
                   "when this passes, set workloads.OQM_DEPTH['laguerre'] back to 2")
def test_laguerre_depth2_report_has_no_failed_check(tmp_path):
    import json

    import crum.cli

    out = tmp_path / "laguerre.json"
    assert crum.cli.main(["chain", "--family", "laguerre", "--param", "g=3.0",
                          "--depth", "2", "--seed", "1", "--out", str(out)]) == 0
    assert checks.check_report(json.loads(out.read_text(encoding="utf-8")))[1] == []
