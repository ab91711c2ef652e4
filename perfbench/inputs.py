"""Seeded input generators and output checks for the benchmark workloads.

This module needs only numpy.  The checks are oracles that do not use
tenspart: they compare what a pass wrote to its output directory with the
planted truth that the generator stored next to the inputs.

Every generator writes its inputs and planted truth into a directory and
returns a description of the inputs (dims, nnz, files).  Every check takes
that input directory, one pass's output directory, the workload's oracle
(if it has one) and the input variant the pass used, and returns
``(ok, quality, reason)``; ``quality`` is the recovery score the workload
reports and ``reason`` says why a failed check failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Sizes keep one pass near 2-3 s on a 2-vCPU VM, so a 30 s run holds about
# ten passes, while each workload keeps the layer mix it exists to measure:
# text I/O plus the extent^3 hosvd_init Gram eigensolve on log_partition, the
# extent^2 full-matrices SVD in dominant_subspace on expand_sym.  Workloads
# whose cost depends on the input (solver sweeps) hold several input
# variants and cycle through them, so one run's median does not hinge on one
# tensor.
VARIANTS = 3

# -- log_partition -----------------------------------------------------------
LOG_GROUPS = (900, 600)
LOG_RECORDS = 100_000
LOG_BIN = 10_000
LOG_SAME = 0.8  # share of messages sent inside the sender's group
LOG_ZIPF = 0.8  # exponent of the heavy-tailed partner choice within a group

# -- expand_sym --------------------------------------------------------------
EXP_VERTICES = 1600
EXP_SLICES = 40
EXP_BG_DEG = 6
EXP_BURSTS = ((80, 50), (65, 40), (50, 30))
EXP_FILL = 0.5

# -- approx_general ----------------------------------------------------------
GEN_DIMS = (1000, 700, 10)
GEN_ENTRIES = 500_000
GEN_BOOST = 0.3
GEN_SAME_EARLY = 0.95  # share of entries inside the sender's planted half, early slices
GEN_SAME_LATE = 0.05  # the same share in late slices

MIN_ACCURACY = 0.95  # a split or co-clustering below this fails the pass
MIN_JACCARD = 0.9  # a recovered burst support below this fails the pass


def _symmetric_binary(nv: int, i, j, k):
    """Both orientations of each undirected edge, self-loops and repeats dropped."""
    keep = i != j
    i, j, k = i[keep], j[keep], k[keep]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    codes = np.unique((k * nv + lo) * nv + hi)
    k, rem = np.divmod(codes, nv * nv)
    lo, hi = np.divmod(rem, nv)
    return np.concatenate((lo, hi)), np.concatenate((hi, lo)), np.concatenate((k, k))


def _split_accuracy(perm, split: int, truth: np.ndarray) -> float:
    """Share of indices on the planted side of the split, either labelling."""
    side = np.zeros(truth.size, dtype=np.int64)
    side[np.asarray(perm, dtype=np.int64)[split:]] = 1
    agree = float(np.mean(side == truth))
    return max(agree, 1.0 - agree)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_log_partition(seed: int, d: Path) -> dict:
    """CSV message log between two planted groups, heavy-tailed partner choice."""
    rng = np.random.default_rng(seed)
    nv = sum(LOG_GROUPS)
    group = np.zeros(nv, dtype=np.int64)
    group[rng.permutation(nv)[: LOG_GROUPS[1]]] = 1
    # members of each group in a random popularity order
    members = [rng.permutation(np.flatnonzero(group == g)) for g in (0, 1)]
    src = rng.integers(0, nv, LOG_RECORDS)
    target = np.where(rng.random(LOG_RECORDS) < LOG_SAME, group[src], 1 - group[src])
    dst = np.empty_like(src)
    for g, pool in enumerate(members):
        p = 1.0 / np.arange(1, pool.size + 1) ** LOG_ZIPF
        pick = target == g
        rank = rng.choice(pool.size, int(pick.sum()), p=p / p.sum())
        loop = pool[rank] == src[pick]
        rank[loop] = (rank[loop] + 1) % pool.size
        dst[pick] = pool[rank]
    rows = "\n".join(f"u{a},u{b},{t}" for t, (a, b) in enumerate(zip(src.tolist(), dst.tolist())))
    (d / "log.csv").write_text(f"source,destination,timestamp\n{rows}\n", encoding="utf-8")
    np.savez(d / "truth.npz", src=src, dst=dst, group=group)
    k = np.arange(LOG_RECORDS) // LOG_BIN
    return {"dims": [nv, nv, int(k[-1] + 1)], "nnz": int(_symmetric_binary(nv, src, dst, k)[0].size),
            "records": LOG_RECORDS, "files": ["log.csv"]}


def gen_expand_sym(seed: int, d: Path) -> dict:
    """Sparse random background plus three bipartite bursts, one per third of time."""
    rng = np.random.default_rng(seed)
    nv, n = EXP_VERTICES, EXP_SLICES
    nnz = []
    for v in range(VARIANTS):
        order = rng.permutation(nv)
        bursts, start = [], 0
        for s1, s2 in EXP_BURSTS:
            bursts.append((np.sort(order[start : start + s1]), np.sort(order[start + s1 : start + s1 + s2])))
            start += s1 + s2
        parts = []
        for k in range(n):
            nbg = nv * EXP_BG_DEG // 2
            parts.append((rng.integers(0, nv, nbg), rng.integers(0, nv, nbg), np.full(nbg, k)))
            P, Q = bursts[min(3 * k // n, len(bursts) - 1)]
            pp, qq = np.meshgrid(P, Q, indexing="ij")
            on = rng.random(pp.shape) < EXP_FILL
            parts.append((pp[on], qq[on], np.full(int(on.sum()), k)))
        i, j, k = (np.concatenate(x) for x in zip(*parts))
        i, j, k = _symmetric_binary(nv, i, j, k)
        np.savez(d / f"tensor{v}.npz", dims=np.array([nv, nv, n]), i=i, j=j, k=k, vals=np.ones(i.size))
        np.savez(
            d / f"truth{v}.npz",
            **{f"P{b}": P for b, (P, _) in enumerate(bursts)},
            **{f"Q{b}": Q for b, (_, Q) in enumerate(bursts)},
        )
        nnz.append(int(i.size))
    return {"dims": [nv, nv, n], "nnz": nnz, "files": [f"tensor{v}.npz" for v in range(VARIANTS)]}


def gen_approx_general(seed: int, d: Path) -> dict:
    """Directed sender x receiver x time tensors with planted co-clusters.

    A random restart of HOOI occasionally starts near a saddle and takes many
    more sweeps; the variants keep that from deciding a run's median.
    """
    rng = np.random.default_rng(seed)
    l, m, n = GEN_DIMS
    nnz = []
    for v in range(VARIANTS):
        send = np.zeros(l, dtype=np.int64)
        send[rng.permutation(l)[: l // 2]] = 1
        recv = np.zeros(m, dtype=np.int64)
        recv[rng.permutation(m)[: m // 2]] = 1
        halves = [np.flatnonzero(recv == h) for h in (0, 1)]
        i = rng.integers(0, l, GEN_ENTRIES)
        k = rng.integers(0, n, GEN_ENTRIES)
        # early on receivers are mostly in the sender's half, later mostly in
        # the other one, so every mode has a clear second component
        same = rng.random(GEN_ENTRIES) < np.where(k < n // 2, GEN_SAME_EARLY, GEN_SAME_LATE)
        half = np.where(same, send[i], 1 - send[i])
        j = np.where(half == 0, rng.choice(halves[0], GEN_ENTRIES), rng.choice(halves[1], GEN_ENTRIES))
        vals = rng.random(GEN_ENTRIES) + GEN_BOOST * same
        np.savez(d / f"tensor{v}.npz", dims=np.array(GEN_DIMS), i=i, j=j, k=k, vals=vals)
        np.savez(d / f"truth{v}.npz", send=send, recv=recv)
        nnz.append(int(np.unique((k * l + i) * m + j).size))
    return {"dims": list(GEN_DIMS), "nnz": nnz, "files": [f"tensor{v}.npz" for v in range(VARIANTS)]}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def log_oracle(d: Path) -> dict:
    """Distinct (pair, bin) records of the log as sorted codes (k*V + a)*V + b."""
    t = np.load(d / "truth.npz")
    nv = sum(LOG_GROUPS)
    i, j, k = _symmetric_binary(nv, t["src"], t["dst"], np.arange(LOG_RECORDS) // LOG_BIN)
    return {"codes": np.sort((k * nv + i) * nv + j), "group": t["group"], "nslices": int(k.max() + 1)}


def check_log_partition(d: Path, out: Path, oracle: dict | None = None, variant: int = 0):
    oracle = oracle or log_oracle(d)
    nv = sum(LOG_GROUPS)
    labels = (out / "ingest" / "labels.txt").read_text(encoding="utf-8").split()
    ident = np.array([int(s[1:]) for s in labels], dtype=np.int64)
    with open(out / "ingest" / "tensor.tns", "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        body = np.loadtxt(fh, ndmin=2)
    if head != ["dims", str(ident.size), str(ident.size), str(oracle["nslices"])]:
        return False, 0.0, f"binned tensor header {head}"
    i, j, k = (body[:, c].astype(np.int64) - 1 for c in range(3))
    if body.shape[0] != oracle["codes"].size:
        return False, 0.0, f"binned nnz {body.shape[0]} != {oracle['codes'].size} distinct (pair, bin) records"
    if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= ident.size:
        return False, 0.0, "binned index outside the label table"
    codes = np.sort((k * nv + ident[i]) * nv + ident[j])
    if not np.array_equal(codes, oracle["codes"]) or not np.all(body[:, 3] == 1.0):
        return False, 0.0, "binned tensor differs from the distinct (pair, bin) records"
    rep = _read_json(out / "part" / "partition_report.json")
    acc = _split_accuracy(rep["mode1_perm"], rep["split_points"]["1"], oracle["group"][ident])
    if rep["no_split_flags"]["1"] or not rep["symmetric"]:
        return False, acc, "no mode-1 sign change or not solved as symmetric"
    if acc < MIN_ACCURACY:
        return False, acc, f"split accuracy {acc:.4f} < {MIN_ACCURACY}"
    return True, acc, ""


def _edge_codes(path: Path, nv: int) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").split()
    a = np.array([int(s[3:]) for s in rows[0::3]], dtype=np.int64)
    b = np.array([int(s[3:]) for s in rows[1::3]], dtype=np.int64)
    return np.unique(np.minimum(a, b) * nv + np.maximum(a, b))


def check_expand_sym(d: Path, out: Path, oracle=None, variant: int = 0):
    t = np.load(d / f"truth{variant}.npz")
    nv = EXP_VERTICES
    rep = _read_json(out / "expansion_report.json")
    if rep["num_terms"] != len(EXP_BURSTS):
        return False, 0.0, f"{rep['num_terms']} terms"
    found = []
    for v, term in enumerate(rep["terms"], start=1):
        codes = _edge_codes(out / f"expansion_term{v}_edges.txt", nv)
        diag = int(np.count_nonzero(codes // nv == codes % nv))
        if term["nnz_B_hat"] != 2 * codes.size - diag:
            return False, 0.0, f"term {v}: edge list disagrees with nnz_B_hat"
        found.append(codes)
    scores = []
    for b in range(len(EXP_BURSTS)):
        P, Q = t[f"P{b}"], t[f"Q{b}"]
        pp, qq = np.meshgrid(P, Q, indexing="ij")
        planted = np.unique(np.minimum(pp, qq) * nv + np.maximum(pp, qq))
        scores.append(
            max(
                np.intersect1d(planted, c).size / np.union1d(planted, c).size
                for c in found
            )
        )
    quality = float(np.mean(scores))
    if not all(term["converged"] for term in rep["terms"]):
        return False, quality, "a term did not converge"
    if min(scores) < MIN_JACCARD:
        return False, quality, f"burst Jaccard {min(scores):.4f} < {MIN_JACCARD}"
    return True, quality, ""


def check_approx_general(d: Path, out: Path, oracle=None, variant: int = 0):
    t = np.load(d / f"truth{variant}.npz")
    approx = _read_json(out / "approx_report.json")
    rep = _read_json(out / "partition_report.json")
    acc1 = _split_accuracy(rep["mode1_perm"], rep["split_points"]["1"], t["send"])
    acc2 = _split_accuracy(rep["mode2_perm"], rep["split_points"]["2"], t["recv"])
    quality = 0.5 * (acc1 + acc2)
    if approx["shapes"]["core"] != [2, 2, 2] or not (out / "approx_U.csv").is_file():
        return False, quality, "approximation files incomplete"
    if not approx["converged"]:
        return False, quality, "returned solve did not converge"
    if min(acc1, acc2) < MIN_ACCURACY:
        return False, quality, f"co-cluster accuracy {acc1:.4f}/{acc2:.4f} < {MIN_ACCURACY}"
    return True, quality, ""


GENERATORS = {
    "log_partition": gen_log_partition,
    "expand_sym": gen_expand_sym,
    "approx_general": gen_approx_general,
}
ORACLES = {"log_partition": log_oracle}
CHECKS = {
    "log_partition": check_log_partition,
    "expand_sym": check_expand_sym,
    "approx_general": check_approx_general,
}
