"""Show that every output check accepts a real pass and rejects corrupted output.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload this generates the inputs, runs one pass in a pass
process, checks the clean output, then applies each corruption below to a
copy of the output and requires the check to fail.  Exits non-zero if a
clean output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from run import ROOT, Runner


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _double_value(lines):
    """Double the value on the middle data line."""
    n = len(lines) // 2
    i, j, k, v = lines[n].split()
    lines[n] = f"{i} {j} {k} {2 * float(v)!r}\n"
    return lines


def _move_across_split(rep, mode="1"):
    """Swap a tenth of the indices on each side of the split."""
    perm, s = rep[f"mode{mode}_perm"], rep["split_points"][mode]
    t = max(1, min(s, len(perm) - s) // 10)
    perm[:t], perm[s : s + t] = perm[s : s + t], perm[:t]


def _shuffle(rep, key, seed=0):
    rep[key] = np.random.default_rng(seed).permutation(rep[key]).tolist()


CORRUPTIONS = {
    "log_partition": {
        "binned entry dropped": lambda o: _edit_lines(o / "ingest" / "tensor.tns", lambda l: l[:-1]),
        "binned value doubled": lambda o: _edit_lines(o / "ingest" / "tensor.tns", _double_value),
        "labels rotated": lambda o: _edit_lines(o / "ingest" / "labels.txt", lambda l: l[1:] + l[:1]),
        "a tenth moved across the split": lambda o: _edit_json(
            o / "part" / "partition_report.json", _move_across_split),
        "no-split flag set": lambda o: _edit_json(
            o / "part" / "partition_report.json", lambda r: r["no_split_flags"].update({"1": True})),
    },
    "expand_sym": {
        "half of term-1 edges dropped": lambda o: _edit_lines(
            o / "expansion_term1_edges.txt", lambda l: l[: len(l) // 2]),
        "term-1 edges and count both halved": lambda o: (
            _edit_lines(o / "expansion_term1_edges.txt", lambda l: l[: len(l) // 2]),
            _edit_json(o / "expansion_report.json", lambda r: r["terms"][0].update(
                nnz_B_hat=2 * (r["terms"][0]["nnz_B_hat"] // 4)))),
        "a term flagged not converged": lambda o: _edit_json(
            o / "expansion_report.json", lambda r: r["terms"][2].update(converged=False)),
    },
    "approx_general": {
        "mode-2 permutation shuffled": lambda o: _edit_json(
            o / "partition_report.json", lambda r: _shuffle(r, "mode2_perm")),
        "a tenth of senders moved across the split": lambda o: _edit_json(
            o / "partition_report.json", _move_across_split),
        "solve flagged not converged": lambda o: _edit_json(
            o / "approx_report.json", lambda r: r.update(converged=False)),
    },
}


def selftest(workload: str, seed: int, work: Path) -> int:
    inp = work / "inputs"
    inp.mkdir(parents=True)
    inputs.GENERATORS[workload](seed, inp)
    oracle = inputs.ORACLES.get(workload, lambda d: None)(inp)
    proc = Runner(workload, inp, work, time.monotonic() + 170).spawn("timed", max_passes=1)
    clean = proc["out"] / "pass0"
    check = inputs.CHECKS[workload]
    ok, quality, why = check(inp, clean, oracle)
    bad = 0
    print(f"{workload}: clean output {'accepted' if ok else 'REJECTED: ' + why} (quality {quality:.4f})")
    bad += not (ok and proc["passes"][0]["ok"])
    for name, corrupt in CORRUPTIONS[workload].items():
        copy = work / "corrupt"
        shutil.copytree(clean, copy)
        corrupt(copy)
        try:
            ok, quality, why = check(inp, copy, oracle)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            ok, why = False, f"unreadable: {exc!r}"
        shutil.rmtree(copy)
        print(f"  {name:<44} {'NOT DETECTED' if ok else 'detected: ' + why}")
        bad += ok
    return bad


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(CORRUPTIONS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bad = 0
    for workload in args.workloads:
        work = ROOT / ".perfbench" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            bad += selftest(workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("all checks behave" if bad == 0 else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
