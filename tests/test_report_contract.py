"""Suite reports meet the benchmark's fail-closed report checks.

`perfbench/checks.py` recomputes every verdict of a report from its stored
residuals and fails closed on a missing key (a shape block without
`converged`, say).  A report layout change that breaks that contract fails
here, in the tier-1 suite, and not first in a benchmark run.  The checks are
imported read-only from the repository root.
"""

import json
import pathlib
import sys

import pytest

from crum import RunConfig, run_suite

from conftest import AW_PARAMS

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402


@pytest.mark.parametrize("family, params", [("jacobi", {"g": 2.0}),
                                            ("askey_wilson", AW_PARAMS)])
def test_depth_2_reports_pass_the_benchmark_checks(family, params):
    report = run_suite(RunConfig(family=family, params=dict(params), depth=2, nmax=5, seed=7))
    attempted, failures = checks.check_report(json.loads(report.to_json()))
    assert attempted > 0
    assert failures == []
