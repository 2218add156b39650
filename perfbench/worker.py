"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py '{"workload": "suite-aw", "pass_seed": 7, ...}'

Prints one JSON object on the last line of standard output: the pass's
timings, memory and checked-operation counts, plus per-layer metrics when
traced.  run.py starts one worker per pass and waits for it.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_pass(spec):
    t0 = time.perf_counter()
    # crum's own dependencies, timed apart: this fixed import tells how fast
    # the host imports while the pass runs (run.py scales set-up by it)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    probe_start = workloads.probe()
    t1 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import crum
    import crum.cli  # noqa: F401

    import layers
    import tracing

    workload = spec["workload"]
    tracer = tracing.Tracer() if spec.get("trace") else None
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        families = workloads.setup(crum, workload)
        # set-up is crum's own: importing it and building its families
        setup_s = time.perf_counter() - t1
        res = workloads.run(crum, workload, families, spec["pass_seed"],
                            spec.get("size", "full"), tracer, spec["out_dir"])
    total_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [probe_start, *res.probes, workloads.probe()]
    out = {
        "setup_s": setup_s,
        "answer_s": res.answer_s,
        "request_ms": res.request_ms,
        "stream_s": res.stream_s,
        "stream_requests": res.stream_requests,
        "rss_growth_mb": res.rss_growth_mb,
        "peak_rss_mb": peak_rss_mb,
        "attempted": res.attempted,
        "failures": res.failures,
        "total_s": total_s,
        "import_s": import_s,
        "probes": probes,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return out


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
