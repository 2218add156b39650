"""Resident-memory growth of a suite pass, stage by stage, diffed between two
checkouts.

    python3 tools/rss_scan.py OTHER_CHECKOUT

runs, against this checkout's `src/` and OTHER_CHECKOUT's, the passes of the
benchmark's two suite workloads at seed 7, each pass in ROUNDS fresh
interpreters per checkout, the two checkouts alternating which goes first.
Each interpreter does what a benchmark worker does before its pass: it
imports numpy and `scipy.linalg`, then crum, and builds the workload's
families.  Then it runs one pass:

- aw: `verify.run_suite` on Askey-Wilson a=(0.3, -0.2, 0.1+0.2i, 0.1-0.2i)
  at q=0.6, depth 2, nmax 5, 20 samples, and the report's `to_dict`;
- oqm: `crum chain` through `cli.main` on hermite at depth 2, laguerre g=3 at
  depth 1 and jacobi g=2 at depth 2, at the default nmax and samples, each
  report written to a temporary file.

It reads RssAnon and RssFile from /proc/self/status before and after the
pass, and before and after each stage of a suite, by wrapping verify's stage
functions: the identities, the Gram block, the oracle, the shape, eta and
virtual blocks and the growth scan.  What no stage covers (family and chain
builds, report writing) is "other".  Memory counts at the stage that first
touches it: a library page the oracle pages in is not counted again when the
eta block uses it.

It prints, per checkout and pass, the median growth in kB over the rounds of
the pass and of each stage, and the reports' statuses, as JSON, and exits 1
when an interpreter fails.  The benchmark reports the pass's total alone, as
`rss_growth_mb`; this splits it into the process's own allocations (anon)
and the pages of shared libraries and files it maps (file).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

AW = {"a1": 0.3, "a2": -0.2, "a3": 0.1 + 0.2j, "a4": 0.1 - 0.2j, "q": 0.6}
# (family, parameters, depth) of the oqm pass
OQM = (("hermite", {}, 2), ("laguerre", {"g": 3.0}, 1), ("jacobi", {"g": 2.0}, 2))
PASSES = ("aw", "oqm")
STAGES = ("identities", "gram", "oracle", "shape", "eta", "virtual", "growth_scan", "other")
# verify's function behind each stage but the oracle, which a chain kind holds
STAGE_FUNCTIONS = {"identities": "_identity", "gram": "_gram_block", "shape": "_shape_block",
                   "eta": "_eta_block", "virtual": "_virtual_block",
                   "growth_scan": "_growth_scan"}
SEED = 7
ROUNDS = 3
ROOT = pathlib.Path(__file__).resolve().parents[1]


def rss_kb():
    """(RssAnon, RssFile) of this process, kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return tuple(int(fields[key].split()[0]) for key in ("RssAnon", "RssFile"))


def measured_pass(which):
    """{"anon_kB", "file_kB", "stages", "statuses"} of one pass, from the crum
    on sys.path."""
    import numpy  # noqa: F401  (a benchmark worker's imports, before crum's)
    import scipy.linalg  # noqa: F401

    import crum
    import crum.cli
    from crum import verify

    families = [("askey_wilson", AW)] if which == "aw" else [(n, p) for n, p, _ in OQM]
    for name, params in families:
        crum.make_family(name, **params)
    growth = {stage: [0, 0] for stage in STAGES}

    def wrapped(stage, fn):
        def call(*args, **kwargs):
            before = rss_kb()
            try:
                return fn(*args, **kwargs)
            finally:
                for i, (b, a) in enumerate(zip(before, rss_kb())):
                    growth[stage][i] += a - b
        return call

    for stage, name in STAGE_FUNCTIONS.items():
        setattr(verify, name, wrapped(stage, getattr(verify, name)))
    for key, kind in verify._KINDS.items():
        verify._KINDS[key] = dataclasses.replace(kind, oracle=wrapped("oracle", kind.oracle))

    rss_kb()    # the first read of /proc pages its own code in
    start = rss_kb()
    statuses = run_aw(crum) if which == "aw" else run_oqm(crum)
    anon, file_ = (a - b for a, b in zip(rss_kb(), start))
    growth["other"] = [anon - sum(g[0] for g in growth.values()),
                       file_ - sum(g[1] for g in growth.values())]
    return {"anon_kB": anon, "file_kB": file_, "statuses": statuses,
            "stages": {stage: {"anon_kB": a, "file_kB": f} for stage, (a, f) in growth.items()}}


def run_aw(crum):
    config = crum.RunConfig(family="askey_wilson", params=dict(AW), depth=2, nmax=5,
                            samples=20, seed=SEED)
    return [crum.run_suite(config).to_dict()["status"]]


def run_oqm(crum):
    statuses = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, params, depth in OQM:
            path = os.path.join(tmp, f"{name}.json")
            argv = ["chain", "--family", name, "--depth", str(depth), "--seed", str(SEED),
                    "--out", path]
            for key, val in params.items():
                argv += ["--param", f"{key}={val}"]
            code = crum.cli.main(argv)
            with open(path, encoding="utf-8") as fh:
                statuses.append(json.load(fh)["status"] if code == 0 else f"exit {code}")
    return statuses


def run_round(checkout, which):
    """One pass on the checkout's src/, in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
    env["PYTHONPATH"] = str(pathlib.Path(checkout).resolve() / "src")
    done = subprocess.run([sys.executable, __file__, "--emit", which], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def merged(rounds):
    """Medians over the rounds of the pass's and each stage's growth."""
    def med(get):
        return statistics.median(get(r) for r in rounds)
    return {
        "anon_kB": med(lambda r: r["anon_kB"]),
        "file_kB": med(lambda r: r["file_kB"]),
        "statuses": rounds[0]["statuses"],
        "stages": {stage: {key: med(lambda r: r["stages"][stage][key])
                           for key in ("anon_kB", "file_kB")} for stage in STAGES},
    }


def main(argv):
    if len(argv) == 2 and argv[0] == "--emit" and argv[1] in PASSES:
        print(json.dumps(measured_pass(argv[1])))
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": pathlib.Path(argv[0])}
    rounds = {side: {which: [] for which in PASSES} for side in sides}
    try:
        for run in range(ROUNDS):
            for side in (list(sides) if run % 2 == 0 else list(sides)[::-1]):
                for which in PASSES:
                    rounds[side][which].append(run_round(sides[side], which))
    except subprocess.CalledProcessError as err:
        print(f"failed: {err}\n{err.stderr}", file=sys.stderr)
        return 1
    out = {"seed": SEED, "rounds": ROUNDS,
           "statistic": "median growth of RssAnon and RssFile over a pass and its stages, kB"}
    for side in sides:
        out[side] = {which: merged(rounds[side][which]) for which in PASSES}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
