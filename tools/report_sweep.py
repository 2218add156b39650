"""Suite reports of a fixed sweep, diffed between two checkouts.

The sweep is the 36 reports of hermite, laguerre g=3, jacobi g=2, q_hermite
q=0.5, Askey-Wilson a=(0.3, -0.2, 0.1+0.2i, 0.1-0.2i) at q=0.6 (the
benchmark's parameters) and the same a at q=0.2, whose strip (1.498) is
narrower than |gamma| (1.609), so that strip refusals show in the diff, at
depths 1-3, seeds 7 and 2021, nmax 5 and the default samples: each `VerificationReport.to_dict()` without `wall_time_s`,
which is the only field that is not deterministic per seed.  With them come
the CSV rows (`structure.emit_csv_rows`) of the two default limit scans,
`structure.limit_check("c_to_inf")` and `limit_check("gamma_to_0")`, whose
`flag` counts as a verdict.

    python3 tools/report_sweep.py OTHER_CHECKOUT

runs the sweep and the scans on this checkout's `src/` and on
OTHER_CHECKOUT's, each in a fresh interpreter, then prints every status or
verdict that changed (a change of a report's layout counts as one), every
number that moved with its old and new value, the count of moved numbers
per block path (the path below the report or scan, indices dropped, e.g.
`oracle.levels.fit: 78`), the largest absolute move and the line count of
`src/crum` in both checkouts.  It exits 1 when a status or verdict changed,
and 0 otherwise, moved numbers or not.
"""

from __future__ import annotations

import collections
import json
import math
import os
import pathlib
import re
import subprocess
import sys

AW = {"a1": 0.3, "a2": -0.2, "a3": [0.1, 0.2], "a4": [0.1, -0.2]}
# (report key, family, parameters)
FAMILIES = (("hermite", "hermite", {}), ("laguerre", "laguerre", {"g": 3.0}),
            ("jacobi", "jacobi", {"g": 2.0}), ("q_hermite", "q_hermite", {"q": 0.5}),
            ("askey_wilson", "askey_wilson", {**AW, "q": 0.6}),
            ("askey_wilson_q0.2", "askey_wilson", {**AW, "q": 0.2}))
DEPTHS = (1, 2, 3)
SEEDS = (7, 2021)
NMAX = 5
# report keys whose values are verdicts, not measurements
VERDICT_KEYS = {"status", "pass", "spectrum_pass", "converged", "diverging",
                "norm_divergence_flag", "parent_ground_absent", "skipped", "flag"}
SCANS = ("c_to_inf", "gamma_to_0")
ROOT = pathlib.Path(__file__).resolve().parents[1]
# the report key ("key/d1/s7") or scan mode that leads a path, and a list
# index or numbered key in it
_REPORT_OR_SCAN = re.compile(r"^(reports\.[^/]+/d\d+/s\d+|scans\.\w+)")
_INDEX = re.compile(r"\[\d+\]|\.\d+(?=\.|$)")


def sweep():
    """{"key/depth/seed": report dict} of the sweep, from the crum on sys.path."""
    from crum.verify import RunConfig, run_suite

    out = {}
    for key, name, params in FAMILIES:
        for depth in DEPTHS:
            for seed in SEEDS:
                config = RunConfig.from_dict({"family": name, "params": params, "depth": depth,
                                              "nmax": NMAX, "seed": seed})
                report = run_suite(config).to_dict()
                del report["wall_time_s"]
                out[f"{key}/d{depth}/s{seed}"] = report
    return out


def scans():
    """{mode: CSV rows} of the default limit scans, from the crum on sys.path."""
    from crum.structure import emit_csv_rows, limit_check

    return {mode: emit_csv_rows(limit_check(mode)) for mode in SCANS}


def run_sweep(checkout):
    """{"reports": the sweep, "scans": the limit scans} of the checkout's
    src/, run in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
    env["PYTHONPATH"] = str(pathlib.Path(checkout).resolve() / "src")
    done = subprocess.run([sys.executable, __file__, "--emit"], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout)


def source_lines(checkout):
    """Lines of the package's modules, src/crum/*.py, in the checkout."""
    paths = (pathlib.Path(checkout).resolve() / "src" / "crum").glob("*.py")
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)


def diff(old, new, path=""):
    """(verdict changes, moved numbers) from old to new: messages, and
    (path, old, new, |move|) rows."""
    if isinstance(old, dict) and isinstance(new, dict):
        changes, moves = [], []
        for key in sorted(set(old) | set(new), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                changes.append(f"{where}: only in {'new' if key in new else 'old'}")
            elif key in VERDICT_KEYS and old[key] != new[key]:
                changes.append(f"{where}: {old[key]!r} -> {new[key]!r}")
            else:
                c, m = diff(old[key], new[key], where)
                changes += c
                moves += m
        return changes, moves
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        changes, moves = [], []
        for i, (a, b) in enumerate(zip(old, new)):
            c, m = diff(a, b, f"{path}[{i}]")
            changes += c
            moves += m
        return changes, moves
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers and old != new and not (math.isnan(old) and math.isnan(new)):
        return [], [(path, old, new, abs(new - old))]
    return ([] if old == new else [f"{path}: {old!r} -> {new!r}"]), []


def block(where):
    """The dotted path `where` below its report or scan, without indices:
    `reports.hermite/d1/s7.levels[0].gram.diag[1]` is `levels.gram.diag`."""
    return _INDEX.sub("", _REPORT_OR_SCAN.sub("", where)).lstrip(".")


def main(argv):
    if argv == ["--emit"]:
        json.dump({"reports": sweep(), "scans": scans()}, sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = run_sweep(argv[0]), run_sweep(ROOT)
    changes, moves = diff(old, new)
    for line in changes:
        print(f"CHANGED {line}")
    for where, a, b, move in moves:
        print(f"moved {where}: {a!r} -> {b!r} (|move| {move:.3g})")
    for path, count in sorted(collections.Counter(block(row[0]) for row in moves).items()):
        print(f"{path}: {count}")
    largest = max(moves, key=lambda row: row[3], default=None)
    print(f"{len(new['reports'])} reports and {len(new['scans'])} limit scans: "
          f"{len(changes)} changed statuses or verdicts, "
          f"{len(moves)} moved numbers"
          + (f", largest |move| {largest[3]:.3g} at {largest[0]}" if largest else ""))
    lines_old, lines_new = source_lines(argv[0]), source_lines(ROOT)
    print(f"src/crum lines: {lines_old} -> {lines_new} ({lines_new - lines_old:+d})")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
