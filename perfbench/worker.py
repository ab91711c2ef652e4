"""The pass process: set up, signal readiness, run passes, write a result file.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload W --inputs DIR --out DIR \
        --mode {probe,timed,traced} --seconds S --max-passes N --result FILE

It prints ``ready`` on stdout once tenspart is imported and the inputs are
loaded; ``run.py`` times set-up up to that line.  A ``probe`` stops there.
Otherwise passes run back to back, cycling through the input variants that
set-up returned, each into ``OUT/pass<N>``, while the next pass is expected
to end within ``--seconds``; at least one pass runs.  In ``traced`` mode the
span wrappers are installed before the first pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import passes
import spans
import tenspart
from machine import blas_info, machine_info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(passes.PASSES))
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--mode", choices=["probe", "timed", "traced"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=1000)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()

    setup, run_pass = passes.PASSES[args.workload]
    variants = setup(args.inputs)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        tracer.install(tenspart)
    results = []
    start = time.perf_counter()
    while True:
        n = len(results)
        if tracer is not None:
            tracer.pass_id = n
        t0 = time.perf_counter()
        error = ""
        try:
            ok = bool(run_pass(variants[n % len(variants)], args.out / f"pass{n}"))
        except Exception:  # a failing pass is counted, not fatal
            ok, error = False, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        results.append({"wall_s": wall, "ok": ok, "error": error, "variant": n % len(variants)})
        typical = statistics.median(r["wall_s"] for r in results)
        if len(results) >= args.max_passes or time.perf_counter() - start + typical > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    record = {
        "passes": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
        "blas": blas_info(),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["absent"] = tracer.absent
        record["top_level_s"] = [spans.top_level_time(tracer.spans, n) for n in range(len(results))]
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
