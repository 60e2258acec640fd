"""Approximate distinct-count sketch (HyperLogLog) as a Ray Data
combiner-state aggregate.

The pattern this demonstrates matters more than the sketch itself: a
MERGEABLE per-block partial (here a 2^b-register byte array, merged by
elementwise max) is how any sketch/accumulator state rides Ray Data at
100 TB — each block contributes one tiny partial, merge order is
irrelevant, and the exchange volume is O(blocks x m), independent of
row count or key cardinality.  (The reference has no approximate
aggregates — SURVEY.md §2.3 — this is a training-data-pipeline
extension.)

Hashing is pandas ``hash_array`` (SipHash, fixed key) — deterministic
across processes/workers, unlike Python ``hash``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .collect import collect

_B = 10                     # 2^10 = 1024 registers
_M = 1 << _B
# bias constant for m >= 128 (Flajolet et al. 2007)
_ALPHA = 0.7213 / (1 + 1.079 / _M)


def _hash_strings(values: np.ndarray) -> np.ndarray:
    import pandas as pd

    return pd.util.hash_array(values, categorize=False).astype(np.uint64)


def _floor_log2(w: np.ndarray) -> np.ndarray:
    """Branchless vectorized floor(log2(w)) for w > 0 (uint64)."""
    r = np.zeros(len(w), np.int64)
    w = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        mask = w >= (np.uint64(1) << np.uint64(s))
        r[mask] += s
        w[mask] >>= np.uint64(s)
    return r


def hll_partial(values: np.ndarray) -> np.ndarray:
    """Register array (uint8[m]) for one batch of string values."""
    regs = np.zeros(_M, np.uint8)
    vals = values[values != np.array(None)] if values.dtype == object else values
    if len(vals) == 0:
        return regs
    h = _hash_strings(vals)
    idx = (h >> np.uint64(64 - _B)).astype(np.int64)
    rest = h << np.uint64(_B)  # top 64-b bits shifted out; w in upper bits
    rank = np.where(rest == 0, 64 - _B + 1, 63 - _floor_log2(rest) + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(partials) -> np.ndarray:
    """Elementwise-max merge — associative, commutative, idempotent."""
    out = np.zeros(_M, np.uint8)
    for p in partials:
        np.maximum(out, p, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    """Cardinality estimate with the standard small-range correction."""
    est = _ALPHA * _M * _M / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * _M and zeros > 0:
        est = _M * np.log(_M / zeros)  # linear counting
    return float(est)


def approx_distinct(ds, column: str) -> dict:
    """Approximate distinct count of a string column.

    One streaming pass: each block emits its 1KiB register row; the
    driver merges by max and estimates.  Exchange volume is
    O(blocks x 1KiB) regardless of data size.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        col = batch.column(column)
        vals = col.drop_null().to_numpy(zero_copy_only=False)
        regs = hll_partial(vals)
        return pa.table({"registers": pa.array([regs], pa.list_(pa.uint8(), _M))})

    _, tbl = collect(ds.map_batches(_partial, batch_format="pyarrow",
                                    batch_size=None))
    rows = tbl.column("registers").to_pylist() if tbl.num_columns else []
    regs = hll_merge(np.asarray(row, dtype=np.uint8) for row in rows)
    return {"estimate": hll_estimate(regs), "registers": regs}


# --- count-min heavy hitters -------------------------------------------------

_CM_D = 4                    # hash rows
_CM_W = 1 << 14              # counters per row (128 KiB of uint64 per partial)
_CM_SALTS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
             0x165667B19E3779F9, 0x27D4EB2F165667C5)
_CM_LOCAL_TOP = 64           # candidate keys carried per block


def _cm_rows(values: np.ndarray) -> np.ndarray:
    """(d, n) int64 bucket indices for the d hash rows."""
    from ..functions.hashing import mix64

    h = _hash_strings(values)
    rows = np.empty((_CM_D, len(values)), dtype=np.int64)
    for d, salt in enumerate(_CM_SALTS):
        z = mix64(h ^ np.uint64(salt))
        rows[d] = (z % np.uint64(_CM_W)).astype(np.int64)
    return rows


def cm_partial(values: np.ndarray) -> np.ndarray:
    """Per-block count-min table (d, w) uint64 — merged by elementwise
    ADD (the additive sibling of the HLL max-merge)."""
    cm = np.zeros((_CM_D, _CM_W), dtype=np.uint64)
    if len(values) == 0:
        return cm
    rows = _cm_rows(values)
    for d in range(_CM_D):
        np.add.at(cm[d], rows[d], 1)
    return cm


def cm_estimate(cm: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Point estimates (>= true count; <= true + eps*N whp,
    eps = e/w)."""
    if len(values) == 0:
        return np.zeros(0, dtype=np.uint64)
    rows = _cm_rows(values)
    ests = np.stack([cm[d][rows[d]] for d in range(_CM_D)])
    return ests.min(axis=0)


def heavy_hitters(ds, column: str, k: int = 10) -> list:
    """Approximate top-k keys of a column in ONE streaming pass:
    each block emits a mergeable count-min partial + its exact local
    top-``_CM_LOCAL_TOP`` keys (the candidate set); the driver ADD-merges
    the sketches and ranks the candidate union by CM estimate.

    Any key with global share > 1/_CM_LOCAL_TOP of some block is in the
    candidate union (a global heavy hitter dominates the blocks it
    appears in), so true heavy hitters are not missed; counts are CM
    overestimates within eps*N.  Exchange volume: O(blocks x (128 KiB +
    top)) regardless of rows or cardinality."""
    import ray

    def _partial(batch: pa.Table) -> pa.Table:
        vals = batch.column(column).drop_null() \
            .to_numpy(zero_copy_only=False)
        cm = cm_partial(vals)
        uniq, counts = np.unique(vals, return_counts=True)
        top = uniq[np.argsort(-counts, kind="stable")[:_CM_LOCAL_TOP]]
        return pa.table({
            "cm": pa.array([cm.tobytes()], pa.binary()),
            "cand": pa.array([top.astype(str).tolist()],
                             pa.list_(pa.string())),
        })

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           batch_size=None).take_all()
    cm = np.zeros((_CM_D, _CM_W), dtype=np.uint64)
    cand: set = set()
    for p in parts:
        cm += np.frombuffer(p["cm"], dtype=np.uint64).reshape(_CM_D, _CM_W)
        cand.update(p["cand"])
    cand_arr = np.array(sorted(cand), dtype=object)
    est = cm_estimate(cm, cand_arr)
    order = np.lexsort((cand_arr, -est.astype(np.int64)))[:k]
    return [{"key": str(cand_arr[i]), "est": int(est[i])} for i in order]


# --- mergeable sample-based quantile sketch ---------------------------------

_QSK_SAMPLE = 4096


def quantile_sketch(ds, value_col: str, id_col: str, qs,
                    sample: int = _QSK_SAMPLE, seed: int = 7) -> dict:
    """Approximate quantiles from a deterministic uniform row sample,
    plus the EXACT rank of each estimate (one counting pass), so the
    caller can assert the rank-error bound.

    The sample is content-hash order statistics over ``id_col`` (the
    IVFIndex.train pattern): every row computes ``mix64(id ^ seed)``, a
    worker-side filter keeps the ~4x over-sample under the hash
    threshold — exchange O(sample), independent of corpus size — and
    the driver keeps the globally smallest ``sample`` hashes.  Each
    per-block contribution is independent and merge is concatenation,
    so the sketch is trivially mergeable (the KLL use-case; rank error
    is the sampling bound O(1/sqrt(sample)), not KLL's optimal).

    Returns {"estimates": {q: value}, "ranks": {q: count_le}, "n": N,
    "sample_size": s}."""
    from ..functions.hashing import mix64

    n = ds.count()
    salt = mix64(np.array([seed or 1], dtype=np.uint64))[0]

    def _h(ids: np.ndarray) -> np.ndarray:
        return mix64(ids.astype(np.uint64) ^ salt)

    frac = 4.0 * sample / max(n, 1)
    if n > sample and frac < 1.0:
        thresh = np.array([min(int(frac * float(2**64 - 1)), 2**64 - 1)],
                          dtype=np.uint64)[0]

        def _pick(b: pa.Table) -> pa.Table:
            ids = b.column(id_col).to_numpy(zero_copy_only=False)
            return b.filter(pa.array(_h(ids) < thresh))

        _, tbl = collect(ds.map_batches(_pick, batch_format="pyarrow",
                                        batch_size=None))
    else:
        _, tbl = collect(ds)
    hh = _h(tbl.column(id_col).to_numpy(zero_copy_only=False))
    order = np.argsort(hh, kind="stable")[:sample]
    vals = np.sort(tbl.column(value_col).to_numpy(
        zero_copy_only=False)[order].astype(np.float64))
    s = len(vals)
    # quantile_disc rank convention: max(1, ceil(q*s)) (DuckDB-proven)
    est = {q: float(vals[max(1, int(np.ceil(q * s))) - 1]) for q in qs}

    est_arr = np.array([est[q] for q in qs], dtype=np.float64)

    def _rank_partial(b: pa.Table) -> pa.Table:
        v = np.sort(b.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64))
        cnt = np.searchsorted(v, est_arr, side="right")
        return pa.table({"qi": pa.array(np.arange(len(qs)), pa.int64()),
                         "le": pa.array(cnt.astype(np.int64), pa.int64())})

    parts = ds.map_batches(_rank_partial, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    ranks = parts.groupby("qi")["le"].sum()
    return {"estimates": est,
            "ranks": {q: int(ranks[i]) for i, q in enumerate(qs)},
            "n": n, "sample_size": s}
