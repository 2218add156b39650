"""crum benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload suite-aw --seed 1 --seconds 40 --trace 0

Passes run one after another, each in a fresh worker process (a closed loop
with one caller), for --seconds: a pass starts only if a pass of median
length still ends in time, and there is always at least one.  Pass seeds
derive from --seed.  With --trace 0 the last line of standard output holds the
end-to-end metrics, measured untraced.  With --trace 1 it holds the
per-layer metrics: each traced pass is paired with an untraced pass of the
same seed, which gives the tracing overhead, and the spans of the last
traced pass are written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("suite-aw", "suite-oqm", "chain-eval")
# on a quiet run of the 2-core build host: the import of numpy + scipy.linalg
# and workloads.probe(); a pass's times are scaled by these over its own (README.md)
REFERENCE_IMPORT_S = 0.4
REFERENCE_PROBE_S = 0.15
RUN_LIMIT_S = 170.0     # every worker is stopped before a run reaches this
# fixed string hashing, so processes differ only in their inputs; CRUM_SEED
# would override the pass seed inside the CLI
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
WORKER_ENV["PYTHONHASHSEED"] = "0"

sys.path.insert(0, HERE)
import layers  # noqa: E402


class BenchError(RuntimeError):
    pass


def pass_seed(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31 - 1)


def run_worker(spec, deadline):
    """Run one pass in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT, check=False,
            env=WORKER_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} pass exceeded the run time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{spec['workload']} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 11
    return 100.0 * (rank + 1) / n, sorted(values)[rank]


def end_to_end(passes):
    """Medians over the run's passes and requests.  Set-up is scaled by
    REFERENCE_IMPORT_S / the pass's import time of numpy and scipy; the answer
    and the request stream by REFERENCE_PROBE_S / the mean of the two probes
    around them: fixed work outside crum, of the same kind.  Memory is
    reported raw."""
    setup_k = [REFERENCE_IMPORT_S / p["import_s"] for p in passes]
    answer_k = [2 * REFERENCE_PROBE_S / sum(p["probes"][:2]) for p in passes]
    stream_k = [2 * REFERENCE_PROBE_S / sum(p["probes"][-2:]) for p in passes]
    return {
        "setup_s": (statistics.median(p["setup_s"] * k for p, k in zip(passes, setup_k)), "s"),
        "answer_s": (statistics.median(p["answer_s"] * k for p, k in zip(passes, answer_k)), "s"),
        "request_ms": (statistics.median(ms * k for p, k in zip(passes, stream_k)
                                         for ms in p["request_ms"]), "ms"),
        "requests_per_s": (sum(p["stream_requests"] for p in passes)
                           / sum(p["stream_s"] * k for p, k in zip(passes, stream_k)), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "rss_growth_mb": (statistics.median(p["rss_growth_mb"] for p in passes), "MB"),
    }


def per_layer(untraced, traced):
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, kind in ((m[0], m[3]) for m in layers.METRICS):
            if kind == "exact" and other["layers"].get(name) != first.get(name):
                print(f"warning: {name} differs between traced passes of one seed",
                      file=sys.stderr)
    out = {}
    for name, unit, _better, kind in layers.METRICS:
        if name == "trace.overhead_frac":
            base = statistics.median(p["total_s"] for p in untraced)
            value = (statistics.median(p["total_s"] for p in traced) - base) / base
        elif kind == "measured":
            value = statistics.median(p["layers"][name] for p in traced)
        else:
            value = first[name]
        out[name] = (value, unit)
    return out


def run(workload, seed, seconds, traced):
    """All passes of one run; returns (every pass result, metrics)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = {"workload": workload, "out_dir": OUT_DIR}
    passes, traced_passes, durations = [], [], []
    # start a pass only if a typical one still ends within the measuring time
    while not durations or time.monotonic() - start + statistics.median(durations) <= seconds:
        t0 = time.monotonic()
        seed_i = pass_seed(workload, seed, 0 if traced else len(durations))
        passes.append(run_worker(dict(base, pass_seed=seed_i), deadline))
        if traced:
            spans = os.path.join(OUT_DIR, f"spans-{workload}.tsv.gz")
            traced_passes.append(run_worker(
                dict(base, pass_seed=seed_i, trace=True, spans_path=spans), deadline))
        durations.append(time.monotonic() - t0)
    metrics = per_layer(passes, traced_passes) if traced else end_to_end(passes)
    return passes + traced_passes, metrics


def summary(workload, passes):
    """Raw figures of the run, for a reader: requests, tail, host speed."""
    requests = [ms for p in passes for ms in p["request_ms"]]
    line = (f"{workload}: {len(passes)} passes, raw answer p50 "
            f"{statistics.median(p['answer_s'] for p in passes):.3f} s, "
            f"{len(requests)} timed requests, raw request p50 {statistics.median(requests):.1f} ms")
    t = tail(requests)
    if t is not None:
        line += f", p{t[0]:.1f} {t[1]:.1f} ms (n={len(requests)})"
    return line + (f", numpy+scipy import p50 {statistics.median(p['import_s'] for p in passes):.3f} s"
                   f", probe p50 {statistics.median(t for p in passes for t in p['probes']):.3f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "crum", "__init__.py")):
        print("error: no crum sources under src/crum next to the benchmark", file=sys.stderr)
        return 2
    try:
        passes, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    for msg in failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    print(summary(args.workload, passes))
    attempted = sum(p["attempted"] for p in passes)
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
