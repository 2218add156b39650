"""The three workloads: what one pass builds, runs, times and checks.

A pass runs in a fresh worker process (see worker.py).  `setup` is what a
user's process pays before its first answer: importing crum is timed by the
worker, then every family the workload uses is built and validated here.
`run` does the timed work and returns a `PassResult`; output checks run
after the timed work and touch no timing.
"""

from __future__ import annotations

import cmath
import gc
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field

import checks

AW_PARAMS = {"a1": 0.3, "a2": -0.2, "a3": 0.1 + 0.2j, "a4": 0.1 - 0.2j, "q": 0.6}
OQM_FAMILIES = (("hermite", {}), ("laguerre", {"g": 3.0}), ("jacobi", {"g": 2.0}))
# the full-size depth of each suite-oqm family.  laguerre stops at depth 1:
# at depth 2 its level-2 Gram block is skipped for every g and seed (a crum
# defect, see README.md), which the checks count as a failed operation;
# test_perfbench keeps that defect in view with a strict xfail
OQM_DEPTH = {"hermite": 2, "laguerre": 1, "jacobi": 2}
QH_PARAMS = {"q": 0.5}

# full-size knobs, and the tiny ones the self-tests use
SIZES = {
    "suite-aw": {"full": {"depth": 2, "nmax": 5, "samples": 20},
                 "tiny": {"depth": 1, "nmax": 3, "samples": 4}},
    "suite-oqm": {"full": {"depth": 2, "nmax": None, "samples": None},
                  "tiny": {"depth": 1, "nmax": 3, "samples": 4}},
    "chain-eval": {"full": {"depth": 3, "fresh": 10, "n": 4, "s": 3},
                   "tiny": {"depth": 2, "fresh": 3, "n": 3, "s": 2}},
}


def probe():
    """Time a fixed piece of compute outside crum, of the kind crum does:
    complex math and a memo dict.  Its memory stays small and the collector
    is off, so it neither feeds nor feels the heap of the pass.  run.py
    scales the timed work between two probes by their mean."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, memo = 0j, {}
        for k in range(150_000):
            z = complex(0.3 + 1e-5 * k, 0.2)
            acc += cmath.log(1 - 0.6 ** (k % 30) * z) + cmath.exp(-1e-3 * z)
            memo[k % 1024] = (z, acc)
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class PassResult:
    answer_s: float = 0.0          # suite pass, or chain build
    request_ms: list = field(default_factory=list)
    stream_s: float = 0.0          # time the request stream took
    stream_requests: int = 0
    rss_growth_mb: float = 0.0
    probes: list = field(default_factory=list)   # probe() between answer and stream
    attempted: int = 0
    failures: list = field(default_factory=list)

    def tally(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


def rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def families_of(workload):
    if workload == "suite-aw":
        return [("askey_wilson", AW_PARAMS)]
    if workload == "suite-oqm":
        return list(OQM_FAMILIES)
    return [("q_hermite", QH_PARAMS)]


def setup(crum, workload):
    return [crum.make_family(name, **params) for name, params in families_of(workload)]


def run(crum, workload, families, pass_seed, size, tracer, out_dir):
    knobs = SIZES[workload][size]
    if workload == "suite-aw":
        return _suite_aw(crum, pass_seed, knobs)
    if workload == "suite-oqm":
        return _suite_oqm(crum, pass_seed, knobs, tracer, out_dir)
    return _chain_eval(crum, families[0], pass_seed, knobs, tracer)


def _suite_aw(crum, pass_seed, knobs):
    res = PassResult()
    rss0 = rss_mb()
    t0 = time.perf_counter()
    config = crum.RunConfig(family="askey_wilson", params=dict(AW_PARAMS),
                            depth=knobs["depth"], nmax=knobs["nmax"],
                            samples=knobs["samples"], seed=pass_seed)
    report = crum.run_suite(config).to_dict()
    res.tally(*checks.check_report(report))
    res.answer_s = time.perf_counter() - t0
    res.request_ms.append(1e3 * res.answer_s)
    res.stream_s, res.stream_requests = res.answer_s, 1
    res.rss_growth_mb = rss_mb() - rss0
    return res


def _suite_oqm(crum, pass_seed, knobs, tracer, out_dir):
    res = PassResult()
    rss0 = rss_mb()
    t0 = time.perf_counter()
    for name, params in OQM_FAMILIES:
        fd, path = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=out_dir)
        os.close(fd)
        depth = min(knobs["depth"], OQM_DEPTH[name])
        argv = ["chain", "--family", name, "--depth", str(depth),
                "--seed", str(pass_seed), "--out", path]
        for key, val in params.items():
            argv += ["--param", f"{key}={val}"]
        if knobs["nmax"] is not None:
            argv += ["--nmax", str(knobs["nmax"]), "--samples", str(knobs["samples"])]
        t_req = time.perf_counter()
        try:
            code = crum.cli.main(argv)
        except Exception as exc:  # noqa: BLE001  (an uncaught error exits 1 at the shell)
            code = f"1 ({type(exc).__name__}: {exc})"
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        finally:
            os.remove(path)
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
        # one operation for the call itself: exit code 0 and a parsable report
        res.attempted += 1
        problems = [] if code == 0 else [f"crum chain exited with {code}"]
        try:
            res.tally(*checks.check_report(json.loads(text)))
        except json.JSONDecodeError as exc:
            problems.append(f"unparsable report ({exc})")
        if problems:
            res.failures.append(f"{name}: " + "; ".join(problems))
        res.request_ms.append(1e3 * (time.perf_counter() - t_req))
    res.answer_s = time.perf_counter() - t0
    res.stream_s, res.stream_requests = res.answer_s, len(OQM_FAMILIES)
    res.rss_growth_mb = rss_mb() - rss0
    return res


def _chain_eval(crum, family, pass_seed, knobs, tracer):
    from crum import dqm
    from crum.errors import CrumError

    res = PassResult()
    s, n = knobs["s"], knobs["n"]
    t0 = time.perf_counter()
    levels = dqm.build_chain(family, knobs["depth"])
    res.answer_s = time.perf_counter() - t0
    res.probes.append(probe())

    rng = random.Random(pass_seed)
    lo, hi = family.interior(0.9)
    im_max = 0.4 * abs(family.gamma)
    top = levels[s]
    fresh, served = [], []   # served: (x, is_fresh, phi, v) or (x, is_fresh, exc)
    rss0 = rss_mb()
    t_stream = time.perf_counter()
    for i in range(2 * knobs["fresh"]):
        if tracer is not None:
            tracer.request = i + 1
        if i % 2 == 0:
            x = complex(rng.uniform(lo, hi), rng.uniform(-im_max, im_max))
            fresh.append(x)
        else:
            x = rng.choice(fresh)
        t_req = time.perf_counter()
        try:
            served.append((x, i % 2 == 0, top.phi(n, x), top.v(x)))
        except CrumError as exc:
            served.append((x, i % 2 == 0, exc))
        if i % 2 == 0:
            res.request_ms.append(1e3 * (time.perf_counter() - t_req))
    res.stream_s = time.perf_counter() - t_stream
    res.stream_requests = len(served)
    res.rss_growth_mb = rss_mb() - rss0
    if tracer is not None:
        tracer.memo_entries = tracer.branch_entries()
        tracer.enabled = False   # the checks below are not part of the trace
    _check_stream(res, levels, s, n, served)
    return res


def _check_stream(res, levels, s, n, served):
    from crum import dqm

    first = {}
    for item in served:
        res.attempted += 1
        x, is_fresh = item[0], item[1]
        if len(item) == 3:
            res.failures.append(f"request at {x}: {type(item[2]).__name__}: {item[2]}")
            continue
        phi, v = item[2], item[3]
        if not is_fresh:
            if (phi, v) != first.get(x):
                res.failures.append(f"repeat at {x} differs from its first answer")
            continue
        first[x] = (phi, v)
        err_phi = checks.relative_error(dqm.phi_via_casoratian(levels, s, n, x), phi)
        err_v = checks.relative_error(checks.vs_product(levels, s, x), v)
        if not (err_phi <= checks.TOLERANCES["casoratian_ratio"]
                and err_v <= checks.VS_PRODUCT_TOL):
            res.failures.append(f"request at {x}: phi[{s}]_{n} off the Casoratian route by "
                                f"{err_phi:.3e}, V[{s}] off the eta product by {err_v:.3e}")
