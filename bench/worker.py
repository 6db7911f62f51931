"""One workload run in a fresh process: set up, time passes, judge them.

``run.py`` starts this file with the thread counts pinned and ``src`` on the
path. It prints ``READY`` once the first pass's inputs exist (the end of
set-up), and with ``--setup-only`` exits there. Otherwise it runs one warm-up
pass and then times passes of the workload for the rest of ``--seconds``,
starting a pass only while a typical pass still fits; ``--trace 1`` spends
the second half of that time on traced passes. It judges every pass, the
warm-up too, and prints one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle as orc
import spans
import workloads

OUT = Path(__file__).resolve().parent / "out"


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def judge_pass(wl, inp, ops, ledger, controls: dict) -> None:
    """Judge a pass once its timing has stopped and drop its outputs, so that
    memory does not grow with the number of passes. Pooled workloads (the MC
    folds, judged on estimates pooled over the run) wait for the end."""
    if wl.pooled:
        return
    for key, value in wl.check([(inp, ops)], ledger).items():
        if value is not None:
            controls.setdefault(key, value)
    for op in ops:
        op.value = None


def timed_passes(wl, args, root, first, budget: float, ledger, controls: dict, tracer=None,
                 start_index=0):
    """Run and judge passes while one more of median length fits in ``budget``
    seconds; always at least one. Returns [(inputs, ops, wall_s, cpu_s)]."""
    passes = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = f"{args.workload}:{args.seed}:{start_index + len(passes)}"
        inp = first if first is not None else wl.inputs(root.spawn(1)[0], args.size)
        first = None
        n_ops = len(ledger.ops)
        c0, t0 = cpu_seconds(), time.perf_counter()
        wl.run(inp, ledger)
        t1, c1 = time.perf_counter(), cpu_seconds()
        passes.append((inp, ledger.ops[n_ops:], t1 - t0, c1 - c0))
        judge_pass(wl, inp, passes[-1][1], ledger, controls)
        if time.perf_counter() - begin + statistics.median(p[2] for p in passes) > budget:
            return passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    root = np.random.SeedSequence(args.seed)
    first = wl.inputs(root.spawn(1)[0], args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ledger, controls = orc.Ledger(), {}
    start = time.perf_counter()
    # one untimed pass first: lazy imports, caches and allocator warm up
    warm = timed_passes(wl, args, root, first, 0.0, ledger, controls)
    left = args.seconds - (time.perf_counter() - start)
    budget = left / 2 if args.trace else left
    plain = timed_passes(wl, args, root, None, budget, ledger, controls, start_index=1)
    traced, tracer = [], None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_passes(wl, args, root, None, budget, ledger, controls, tracer,
                                  1 + len(plain))
        finally:
            tracer.uninstall()

    passes = warm + plain + traced
    if wl.pooled:
        controls = wl.check([(inp, ops) for inp, ops, _, _ in passes], ledger)
    unflagged = orc.negative_control(**controls)

    result = {
        "walls": [w for _, _, w, _ in plain],
        "cpus": [c for _, _, _, c in plain],
        "traced_walls": [w for _, _, w, _ in traced],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures()[:20],
        "control_unflagged": unflagged,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "seeds": [inp["seeds"] for inp, _, _, _ in passes],
    }
    if tracer is not None:
        overhead = (statistics.median(result["traced_walls"])
                    / statistics.median(result["walls"]) - 1.0)
        result["layers"] = spans.layer_metrics(tracer.spans, len(traced), overhead)
        result["top_self_s"] = spans.summary(tracer.spans)
        result["span_count"] = len(tracer.spans)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        result["spans_file"] = str(path)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
