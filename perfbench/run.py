"""tenspart benchmark: three pipeline workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (sizes are in ``inputs.py``; why each exists is in BENCHMARK.json):

  log_partition   CLI ``ingest`` of a CSV message log between two planted
                  groups, then CLI ``partition --symmetric --rank 2 2 1`` of
                  the binned tensor
  expand_sym      API ``expand`` (q=3) of a tensor with three planted bursts
  approx_general  API ``nonsymmetric_normalize`` + ``hooi`` (3 restarts) +
                  ``partition_tensor`` of a directed co-clustered tensor

The seed fixes the inputs, which this process generates before anything is
timed.  Passes run in a separate pass process (``worker.py``) that imports
tenspart from ``src/`` of the checkout, so generator memory is not part of
the pass process's peak RSS.  Every pass's output is checked against the
planted truth by the oracles in ``inputs.py``.

``--trace 0`` (timed run, no wrappers) reports

  wall_s        median pass wall time over the passes that passed the check
  peak_rss_mb   RSS high-water mark of the pass process
  setup_s       median over several pass processes of the time from process
                start to ready: interpreter, ``import tenspart``, inputs loaded
  quality       median recovery score against planted truth: split accuracy
                (log_partition), mean burst Jaccard (expand_sym), mean
                co-cluster accuracy (approx_general)

and prints ``fail_frac`` (failed / attempted passes) on a summary line.
``--trace 1`` runs untraced passes, then traced passes in a fresh process
with span wrappers (``spans.py``), then one pass with OPENBLAS_NUM_THREADS=1,
and reports the per-layer metrics.  The last stdout line is the JSON result;
the full record (every pass time, metadata, spans) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # the whole run, generation and checks included
SETUP_PROBES = 4  # set-up-only pass processes; the timed process adds one more sample
MIN_COVERAGE = 0.95  # share of a traced pass that top-level spans must cover


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts pass processes for one workload and stops each before returning."""

    def __init__(self, workload: str, inputs_dir: Path, work: Path, deadline: float):
        self.workload = workload
        self.inputs_dir = inputs_dir
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, seconds: float = 0.0, max_passes: int = 1000, env: dict | None = None):
        self.count += 1
        out = self.work / f"proc{self.count}"
        out.mkdir()
        result = out / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--inputs", str(self.inputs_dir), "--out", str(out), "--mode", mode,
               "--seconds", str(seconds), "--max-passes", str(max_passes), "--result", str(result)]
        penv = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
        with open(out / "stderr.log", "w+", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=penv, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                proc.communicate()
            finally:
                killer.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            if time.monotonic() >= self.deadline:
                raise BenchError(f"pass process ({mode}) exceeded the run time limit")
            if ready.strip() != "ready" or proc.returncode != 0:
                log.seek(0)
                tail = log.read()[-2000:]
                raise BenchError(f"pass process ({mode}) exited with {proc.returncode}:\n{tail}")
        record = json.loads(result.read_text(encoding="utf-8")) if result.is_file() else {}
        record["setup_s"] = setup_s
        record["out"] = out
        return record


def check_passes(workload: str, inputs_dir: Path, proc: dict, oracle) -> list[dict]:
    """Check every pass of one pass process; return one row per pass."""
    rows = []
    for n, p in enumerate(proc["passes"]):
        out = proc["out"] / f"pass{n}"
        try:
            ok, quality, why = inputs.CHECKS[workload](inputs_dir, out, oracle, p["variant"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            ok, quality, why = False, 0.0, f"output unreadable: {exc!r}"
        if not p["ok"]:
            ok = False
            why = (p["error"].strip().splitlines() or ["non-zero exit or solve not converged"])[-1]
        rows.append({"wall_s": p["wall_s"], "ok": ok, "quality": quality, "why": "" if ok else why})
        shutil.rmtree(out, ignore_errors=True)
    return rows


def summarize_rows(rows: list[dict]) -> tuple[float, float]:
    """Median pass time over the passes that passed (all, if none did), median quality."""
    good = [r["wall_s"] for r in rows if r["ok"]] or [r["wall_s"] for r in rows]
    return statistics.median(good), statistics.median(r["quality"] for r in rows)


def timed_run(runner: Runner, seconds: float, oracle) -> dict:
    procs = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
    main = runner.spawn("timed", seconds=seconds)
    procs.append(main)
    rows = check_passes(runner.workload, runner.inputs_dir, main, oracle)
    wall, quality = summarize_rows(rows)
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in procs), "s"),
        "quality": (quality, "ratio"),
    }
    return {"rows": rows, "metrics": metrics, "problems": [], "setups": [p["setup_s"] for p in procs],
            "machine": main["machine"], "blas": main["blas"]}


def traced_run(runner: Runner, seconds: float, oracle) -> dict:
    plain = runner.spawn("timed", seconds=0.4 * seconds)
    traced = runner.spawn("traced", seconds=0.25 * seconds)
    blas1 = runner.spawn("timed", max_passes=1, env={"OPENBLAS_NUM_THREADS": "1"})
    rows_plain, rows_traced, rows_blas1 = (
        check_passes(runner.workload, runner.inputs_dir, proc, oracle) for proc in (plain, traced, blas1))

    problems = []
    for n, (p, covered) in enumerate(zip(traced["passes"], traced["top_level_s"])):
        if covered < MIN_COVERAGE * p["wall_s"]:
            problems.append(f"traced pass {n}: top-level spans cover {covered / p['wall_s']:.1%} of its wall time")
    derived = spans.layer_metrics(traced["spans"], len(traced["passes"]))
    derived["trace.overhead_s"] = summarize_rows(rows_traced)[0] - summarize_rows(rows_plain)[0]
    derived["run.blas1_wall_s"] = rows_blas1[0]["wall_s"]
    metrics = {name: (float(derived.get(name, 0.0)), unit) for name, unit in spans.LAYER_METRICS}
    return {"rows": rows_plain + rows_traced + rows_blas1, "metrics": metrics, "problems": problems,
            "pass_counts": {"untraced": len(rows_plain), "traced": len(rows_traced), "blas1": len(rows_blas1)},
            "absent": traced["absent"], "spans": traced["spans"], "layers": derived,
            "blas1": blas1["blas"], "machine": traced["machine"], "blas": traced["blas"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so the finally clauses stop pass processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tenspart" / "__init__.py").is_file():
        print(f"error: no tenspart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        desc = inputs.GENERATORS[args.workload](args.seed, inputs_dir)
        desc["input_bytes"] = sum((inputs_dir / f).stat().st_size for f in desc.pop("files"))
        oracle = inputs.ORACLES.get(args.workload, lambda d: None)(inputs_dir)
        desc["generate_s"] = time.perf_counter() - t0
        runner = Runner(args.workload, inputs_dir, work, deadline)
        run = (traced_run if args.trace else timed_run)(runner, args.seconds, oracle)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = run["rows"]
    failed = sum(not r["ok"] for r in rows)
    correct = failed == 0 and not run["problems"]
    result = {
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs": desc, **{k: v for k, v in run.items() if k not in ("metrics", "rows")},
              "passes": rows, "result": result}
    (base / "results").mkdir(parents=True, exist_ok=True)
    record_path = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {json.dumps(desc)}")
    print(f"machine {json.dumps(run['machine'])}")
    print(f"blas {json.dumps(run['blas'])}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in rows)
    print(f"passes {len(rows)}  raw wall_s [{walls}]")
    if args.trace == 0:
        print(f"set-ups {len(run['setups'])}  raw setup_s [{' '.join(f'{s:.3f}' for s in run['setups'])}]")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / len(rows):>14.6g} ratio  ({failed} of {len(rows)} passes)")
    for r in rows:
        if not r["ok"]:
            print(f"failed pass: {r['why']}", file=sys.stderr)
    for problem in run["problems"]:
        print(f"trace problem: {problem}", file=sys.stderr)
    if run.get("absent"):
        print(f"absent (reported as 0): {' '.join(run['absent'])}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
