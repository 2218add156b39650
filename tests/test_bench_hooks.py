"""The benchmark's traced worker runs clean against this code.

A traced pass differs from an untraced one only by the tracer's wrappers,
which rebind crum functions and wrap methods by name (`perfbench/tracing.py`),
so a change that renames or reshapes one of them makes the traced pass exit
non-zero while every other test passes.  This runs one tiny traced pass of
each workload, as the benchmark's own self-tests do, and reads nothing else
of perfbench.  The tracer times each chain kind's functions under that
kind's name, so each workload must time the layers of the kind it runs and
read 0 on those of the other kind: a function object shared by both chain
modules would be timed under both names.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["suite-aw", "suite-oqm", "chain-eval"])
def test_traced_worker_exits_clean(workload, tmp_path):
    spec = {"workload": workload, "size": "tiny", "out_dir": str(tmp_path), "pass_seed": 5,
            "trace": True}
    env = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], capture_output=True,
                          text=True, timeout=170, cwd=ROOT, env=env, check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failures"] == []
    layers = result["layers"]
    if workload == "suite-oqm":
        assert layers["oqm.build_chain.s"] > 0
        assert layers["dqm.step_chain.s.l1"] == 0
        assert layers["dqm.relation_residual.s"] == 0
    else:
        assert layers["dqm.step_chain.s.l1"] > 0
        assert layers["oqm.build_chain.s"] == 0
        assert layers["oqm.node_count.s"] == 0
