"""In-process cost of a chain build and of a suite per depth, diffed between
two checkouts.

    python3 tools/depth_scan.py OTHER_CHECKOUT

runs, for each built-in family (hermite, laguerre g=3, jacobi g=2, q_hermite
q=0.5 and Askey-Wilson a=(0.3, -0.2, 0.1+0.2i, 0.1-0.2i) at q=0.6, the
benchmark's parameters) at depths 1-4, seed 7 and nmax 5:

- the chain module's `build_chain(family, depth, nmax)`, on a family built
  beforehand;
- `verify.run_suite`, which builds its own family and chain;

each REPEATS times in one interpreter, after one untimed suite, against this
checkout's `src/` and OTHER_CHECKOUT's, in ROUNDS fresh interpreters per
checkout, the two checkouts alternating which goes first.  The untimed suite
gives the report's status and counts, deterministically:

- the Casoratians and Wronskians the suite makes (`analytic.casoratian` and
  `analytic.wronskian`, wrapped wherever a crum module binds them);
- its `jets.Jet.variable` calls, one per computation of a continuous
  family's eta or W jet;
- for a difference family, the calls of the array log-sum
  `families._FactorLogSum.at` and the points they take.

A depth the family refuses shows its error instead.

It prints, per checkout, family and depth, the median build and suite times
in seconds over every timed run, the counts and the status, as JSON, and
exits 1 when an interpreter fails.  Unlike `process_time.py`, whose wall
times hold interpreter start-up and imports, these are the times a
long-lived caller of the library pays.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

AW = {"a1": 0.3, "a2": -0.2, "a3": [0.1, 0.2], "a4": [0.1, -0.2], "q": 0.6}
# (scan key, family, parameters)
FAMILIES = (("hermite", "hermite", {}), ("laguerre", "laguerre", {"g": 3.0}),
            ("jacobi", "jacobi", {"g": 2.0}), ("q_hermite", "q_hermite", {"q": 0.5}),
            ("askey_wilson", "askey_wilson", AW))
DEPTHS = (1, 2, 3, 4)
SEED = 7
NMAX = 5
REPEATS = 5
ROUNDS = 2
COUNTED = {"casoratians": "casoratian", "wronskians": "wronskian"}
LOGSUM = ("logsum_calls", "logsum_points")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def scan():
    """{"key/dN": cell} of one round, from the crum on sys.path: the build and
    suite times in seconds, the counts and the status, or the error."""
    from crum import dqm, oqm
    from crum.errors import CrumError
    from crum.families import make_family
    from crum.verify import RunConfig, run_suite

    out = {}
    for key, name, params in FAMILIES:
        for depth in DEPTHS:
            config = RunConfig.from_dict({"family": name, "params": params, "depth": depth,
                                          "nmax": NMAX, "seed": SEED})
            family = make_family(name, **config.params)
            chain = {"oqm": oqm, "dqm": dqm}[family.kind]
            try:
                cell = counted_suite(config, family.kind)
            except CrumError as exc:
                out[f"{key}/d{depth}"] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            cell["build_s"] = timed(lambda: chain.build_chain(family, depth, nmax=NMAX))
            cell["suite_s"] = timed(lambda: run_suite(config))
            out[f"{key}/d{depth}"] = cell
    return out


def timed(call):
    """Seconds of REPEATS calls, one each."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times


def counted_suite(config, kind):
    """{"casoratians": ..., "wronskians": ..., "jet_variables": ..., "status":
    ...} of one suite, with "logsum_calls" and "logsum_points" for a
    difference family."""
    from crum import analytic, families, jets
    from crum.verify import run_suite

    counts = dict.fromkeys(COUNTED, 0) | dict.fromkeys(LOGSUM, 0) | {"jet_variables": 0}
    real_variable, real_at = jets.Jet.variable, families._FactorLogSum.at

    def variable(x, order):
        counts["jet_variables"] += 1
        return real_variable(x, order)

    def at(self, x):
        counts["logsum_calls"] += 1
        counts["logsum_points"] += x.size
        return real_at(self, x)

    bound = [(jets.Jet, "variable", staticmethod(real_variable)),
             (families._FactorLogSum, "at", real_at)]
    jets.Jet.variable, families._FactorLogSum.at = staticmethod(variable), at
    for key, name in COUNTED.items():
        real = getattr(analytic, name)

        def counted(*args, key=key, real=real, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "crum" and getattr(module, name, None) is real:
                bound.append((module, name, real))
                setattr(module, name, counted)
    try:
        status = run_suite(config).status
    finally:
        for module, name, real in bound:
            setattr(module, name, real)
    if kind != "dqm":
        for name in LOGSUM:
            del counts[name]
    return {**counts, "status": status}


def run_scan(checkout):
    """One round of the scan on the checkout's src/, in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
    env["PYTHONPATH"] = str(pathlib.Path(checkout).resolve() / "src")
    done = subprocess.run([sys.executable, __file__, "--emit"], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout)


def merged(rounds):
    """The rounds' cells, times as medians over every timed run."""
    out = {}
    for key, cell in rounds[0].items():
        if "error" in cell:
            out[key] = cell
            continue
        out[key] = {name: value for name, value in cell.items() if not name.endswith("_s")}
        for name in ("build_s", "suite_s"):
            out[key][name] = statistics.median(t for r in rounds for t in r[key][name])
    return out


def main(argv):
    if argv == ["--emit"]:
        json.dump(scan(), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": pathlib.Path(argv[0])}
    rounds = {side: [] for side in sides}
    try:
        for run in range(ROUNDS):
            for side in (list(sides) if run % 2 == 0 else list(sides)[::-1]):
                rounds[side].append(run_scan(sides[side]))
    except subprocess.CalledProcessError as err:
        print(f"failed: {err}\n{err.stderr}", file=sys.stderr)
        return 1
    out = {"seed": SEED, "nmax": NMAX, "runs": ROUNDS * REPEATS,
           "statistic": "median in-process time of build_chain and run_suite, s"}
    for side in sides:
        out[side] = merged(rounds[side])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
