"""One fresh interpreter running one workload; started by ``run.py``.

Prints ``ready`` once tracelab is imported and the inputs are built, then
(unless ``--setup-only``) measures passes and prints one JSON report line.
Untraced: passes repeat while another pass of the same length still fits
in ``--seconds`` (at least one).  Traced: exactly one pass, with spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
from time import perf_counter

import tracelab

import metrics
import workloads
from tracer import Tracer, roots_balance, write_spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ns = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(tracelab.__file__).startswith(src + os.sep):
        print(f"error: imported tracelab from {tracelab.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    setup_spans = []
    if ns.trace:
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        with tracer.span("bench.setup"):
            inputs = workloads.build(ns.workload, ns.seed, ns.scale)
        tracer.on = False
        setup_spans, _ = tracer.take()
    else:
        inputs = workloads.build(ns.workload, ns.seed, ns.scale)
    print("ready", flush=True)
    if ns.setup_only:
        return 0

    report = {"workload": ns.workload, "traced": ns.trace}
    if tracer is not None:
        tracer.on = True
        calls = workloads.run_pass(inputs, tracer)
        tracer.on = False
        spans, counts = tracer.take()
        tracer.uninstall()
        rows = [dataclasses.asdict(c) for c in calls]
        report["passes"] = [rows]
        report["layers"] = metrics.span_metrics(spans, counts, setup_spans, rows, tracer.missing)
        report["balanced"] = roots_balance(spans) and roots_balance(setup_spans)
        report["missing"] = tracer.missing
        report["spans"] = len(spans) + len(setup_spans)
        if ns.spans_out:
            write_spans(ns.spans_out, {"setup": setup_spans, "pass": spans})
    else:
        passes = []
        start = perf_counter()
        while True:
            passes.append([dataclasses.asdict(c) for c in workloads.run_pass(inputs)])
            elapsed = perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > ns.seconds:
                break
        report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
