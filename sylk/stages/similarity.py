"""Similarity search over an embedding column (``list<float>``).

* :func:`ann_topk_bruteforce` — exact cosine top-k: per-batch numpy
  matmul against a broadcast query matrix (``ray.put`` once, read in
  every task), partial top-k per batch, tiny final merge.  The per-batch
  partial bounds what crosses the wire to ``k * n_batches`` rows.
* :class:`IVFIndex` / :func:`ann_topk_ivf` — the scale path: vectors are
  assigned to their nearest of ``n_cells`` seeded centroids (one
  pass); a query probes only the ``nprobe`` closest cells.  Partitioning
  assumption: the cell column is the shuffle/pruning key; recall depends
  on nprobe/n_cells (exactness is NOT claimed — the brute-force operator
  is the correctness baseline).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.vectors import list_column_matrix
from .collect import collect


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / (np.linalg.norm(mat, axis=1, keepdims=True) + 1e-12)


def _topk_partial(batch: pa.Table, qm: np.ndarray, k: int) -> pa.Table:
    """One block's cosine top-k per query row of ``qm``: (query_idx,
    vec_id, cosine), ranked by (-cosine, vec_id)."""
    if batch.num_rows == 0:
        return pa.table({"query_idx": pa.array([], pa.int32()),
                         "vec_id": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    vecs = list_column_matrix(batch["embedding"])
    ids = batch["vec_id"].to_numpy(zero_copy_only=False)
    # dot / sqrt(|a|^2 * |b|^2): exact 1.0 on identical vectors and
    # bit-compatible with DuckDB's list_cosine_similarity
    qq = (qm * qm).sum(axis=1)
    vv = (vecs * vecs).sum(axis=1)
    sims = (qm @ vecs.T) / np.sqrt(qq[:, None] * vv[None, :])  # (nq, nb)
    nq, nb = sims.shape
    kk = min(k, nb)
    out_q, out_id, out_s = [], [], []
    for qi in range(nq):
        row = sims[qi]
        # deterministic: sort by (-sim, vec_id)
        order = np.lexsort((ids, -row))[:kk]
        out_q.extend([qi] * kk)
        out_id.extend(ids[order].tolist())
        out_s.extend(row[order].tolist())
    return pa.table(
        {
            "query_idx": pa.array(out_q, pa.int32()),
            "vec_id": pa.array(out_id, pa.int64()),
            "cosine": pa.array(out_s, pa.float64()),
        }
    )


def ann_topk_bruteforce(emb_ds, queries: np.ndarray, k: int = 10, round_to: int | None = 6):
    """Exact cosine top-k for each query row.

    Returns Dataset[(query_idx, vec_id, cosine)] — k rows per query,
    ties broken by vec_id ascending (deterministic).
    """
    import ray
    import ray.data

    q = np.asarray(queries, dtype=np.float64)
    q_ref = ray.put(q)

    def _partial(batch: pa.Table) -> pa.Table:
        return _topk_partial(batch, ray.get(q_ref), k)

    partials = emb_ds.map_batches(_partial, batch_format="pyarrow")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        if round_to is not None:
            g = g.assign(cosine=g["cosine"].round(round_to))
        return g

    return partials.groupby("query_idx").map_groups(_merge, batch_format="pandas")


class IVFIndex:
    """Seeded one-pass IVF: centroids from a deterministic sample."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(centroids.astype(np.float64))

    @staticmethod
    def train(emb_ds, n_cells: int = 16, sample: int = 2048, seed: int = 42):
        """Centroids = k-means-lite (a few Lloyd iterations over a
        UNIFORM seeded sample; driver-side — the sample is small by
        construction).

        Sampling is content-hash order-statistics, not ``limit()``:
        ``limit`` reads the FIRST blocks, so a sorted or clustered store
        would bias the centroids and skew cell sizes (r2 verdict #5).
        Here every row computes ``mix64(vec_id ^ seed)``, a worker-side
        filter keeps the ~4x over-sample below the hash threshold
        (exchange O(sample), independent of corpus size), and the driver
        takes the globally smallest ``sample`` hashes — a deterministic
        uniform draw regardless of storage order."""
        from ..functions.hashing import mix64

        n = emb_ds.count()
        salt = mix64(np.array([seed or 1], dtype=np.uint64))[0]

        def _h(b: pa.Table) -> np.ndarray:
            ids = b.column("vec_id").to_numpy(zero_copy_only=False)
            return mix64(ids.astype(np.uint64) ^ salt)

        frac = 4.0 * sample / max(n, 1)
        if n > sample and frac < 1.0:
            # np.uint64(int) rejects values above 2^63-1; the array
            # constructor converts the full uint64 range (and the float
            # product is clamped — 1.0 * (2^64-1) rounds UP to 2^64)
            thresh = np.array([min(int(frac * float(2**64 - 1)), 2**64 - 1)],
                              dtype=np.uint64)[0]

            def _pick(b: pa.Table) -> pa.Table:
                return b.filter(pa.array(_h(b) < thresh))

            _, tbl = collect(emb_ds.map_batches(_pick, batch_format="pyarrow",
                                                batch_size=None))
        else:
            _, tbl = collect(emb_ds)
        order = np.argsort(_h(tbl), kind="stable")[:sample]
        tbl = tbl.take(pa.array(order))
        mat = _normalize(list_column_matrix(tbl["embedding"]))
        rng = np.random.default_rng(seed)
        cents = mat[rng.choice(len(mat), size=min(n_cells, len(mat)), replace=False)]
        for _ in range(5):
            assign = (mat @ cents.T).argmax(axis=1)
            for c in range(len(cents)):
                members = mat[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
            cents = _normalize(cents)
        return IVFIndex(cents)

    def assign_batch(self, batch: pa.Table) -> pa.Table:
        vecs = _normalize(list_column_matrix(batch["embedding"]))
        cell = (vecs @ self.centroids.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("cell", pa.array(cell))


def ann_topk_ivf(emb_ds, queries: np.ndarray, k: int = 10, n_cells: int = 16,
                 nprobe: int = 4, round_to: int | None = 6,
                 sample: int = 2048, seed: int = 42):
    """IVF-pruned cosine top-k: probe only ``nprobe`` cells per query.

    Compute pruning only: every row is read.  The scan-pruning form —
    the cell assignment persisted once at ingest, queries opening only
    the probed cells' files — is :mod:`ann_store`.
    """
    import ray

    # materialized once: train's count and sample pass and the assign
    # map would each run the input plan again
    emb_ds = emb_ds.materialize()
    index = IVFIndex.train(emb_ds, n_cells=n_cells, sample=sample, seed=seed)
    assigned = emb_ds.map_batches(index.assign_batch, batch_format="pyarrow")
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ index.centroids.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_ref = ray.put(probe)
    q_ref = ray.put(q)

    def _partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        pr = ray.get(probe_ref)
        vecs = _normalize(list_column_matrix(batch["embedding"]))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        cells = batch["cell"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(cells, pr[qi])
            if not mask.any():
                continue
            row = qm[qi] @ vecs[mask].T
            sub_ids = ids[mask]
            kk = min(k, len(sub_ids))
            order = np.lexsort((sub_ids, -row))[:kk]
            out_q.extend([qi] * kk)
            out_id.extend(sub_ids[order].tolist())
            out_s.extend(row[order].tolist())
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = assigned.map_batches(_partial, batch_format="pyarrow")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        if round_to is not None:
            g = g.assign(cosine=g["cosine"].round(round_to))
        return g

    return partials.groupby("query_idx").map_groups(_merge, batch_format="pandas")


def ann_topk_lsh(emb_ds, queries: np.ndarray, k: int = 10,
                 n_bands: int = 16, bits_per_band: int = 8, seed: int = 42,
                 round_to: int | None = 6):
    """LSH-bucketed approximate cosine top-k: per block, a vector is
    scored ONLY if it shares at least one hyperplane band hash with the
    query (the OR-amplified collision scheme `dedup.embedding_dup_pairs`
    uses, reference recall math there).  Random non-neighbors pass a
    band with p = 2^-bits_per_band, so the expected scored fraction is
    ~n_bands/2^bits (~6% at 16x8) — compute pruning without an index
    build, complementary to IVF (which prunes by partition); rows-only
    in the contract, recall-floor tested against brute force."""
    import ray
    import ray.data

    q = np.asarray(queries, dtype=np.float64)
    dim = q.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_bands * bits_per_band))
    weights = (np.uint64(1) << np.arange(bits_per_band, dtype=np.uint64))

    def _keys(mat: np.ndarray, pl: np.ndarray) -> np.ndarray:
        bits = (mat @ pl) > 0
        return (bits.reshape(len(mat), n_bands, bits_per_band)
                .astype(np.uint64) * weights).sum(axis=2)

    q_keys = _keys(q, planes)
    # planes ride the object store (put once), NOT every task closure
    q_ref = ray.put((q, q_keys, planes))

    def _partial(batch: pa.Table) -> pa.Table:
        qm, qk, pl = ray.get(q_ref)
        vecs = list_column_matrix(batch["embedding"])
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        vk = _keys(vecs, pl)
        # (nq, nb): query qi may score vector vj iff any band matches
        match = (vk[None, :, :] == qk[:, None, :]).any(axis=2)
        vv = (vecs * vecs).sum(axis=1)
        qq = (qm * qm).sum(axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(qm)):
            cand = np.flatnonzero(match[qi])
            if len(cand) == 0:
                continue
            sims = (vecs[cand] @ qm[qi]) / np.sqrt(vv[cand] * qq[qi])
            kk = min(k, len(cand))
            order = np.lexsort((ids[cand], -sims))[:kk]
            out_q.extend([qi] * kk)
            out_id.extend(ids[cand][order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({
            "query_idx": pa.array(out_q, pa.int32()),
            "vec_id": pa.array(out_id, pa.int64()),
            "cosine": pa.array(out_s, pa.float64()),
        })

    partials = emb_ds.map_batches(_partial, batch_format="pyarrow")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        if round_to is not None:
            g = g.assign(cosine=g["cosine"].round(round_to))
        return g

    return partials.groupby("query_idx").map_groups(_merge,
                                                    batch_format="pandas")


# --- grouped embedding centroids -------------------------------------------

_CENTROID_SCALE = 1_000_000


def grouped_centroid_sums(emb_ds, group_col: str = "label",
                          emb_col: str = "embedding"):
    """Per-group embedding centroid numerators, INTEGER-exact.

    Emits one row per (group, dim): ``sum_q`` = sum of
    ``floor(value * 1e6)`` as int64 and ``n`` = member count; the
    centroid is ``sum_q / (1e6 * n)``.  Fixed-point summation makes the
    result independent of summation ORDER — float accumulation would
    differ between Ray's block-parallel partials and any oracle — so
    the operator is bit-checkable against SQL and stable across
    repartitioning.

    Scale shape: per-block vectorized partial (np.add.at over factorized
    group codes — one (groups x dims) matrix per block) then a
    groupby(group, dim) Sum of partials: the exchange moves
    O(blocks x groups x dims) rows, never the vectors."""
    import ray.data
    from ray.data.aggregate import Sum

    def _partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({group_col: pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "sum_q": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        vecs = list_column_matrix(b[emb_col])
        q = np.floor(vecs * _CENTROID_SCALE).astype(np.int64)
        groups = b.column(group_col).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(groups)
        sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
        np.add.at(sums, codes, q)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        n_g, n_d = sums.shape
        return pa.table({
            group_col: pa.array(np.repeat(np.asarray(uniq, dtype=np.int64),
                                          n_d), pa.int64()),
            "dim": pa.array(np.tile(np.arange(n_d, dtype=np.int64), n_g),
                            pa.int64()),
            "sum_q": pa.array(sums.reshape(-1), pa.int64()),
            "n": pa.array(np.repeat(counts, n_d), pa.int64()),
        })

    partials = emb_ds.map_batches(_partial, batch_format="pyarrow",
                                  batch_size=None)
    return partials.groupby([group_col, "dim"]).aggregate(
        Sum("sum_q", alias_name="sum_q"), Sum("n", alias_name="n"))


# --- k-means (Lloyd) over the embedding column ------------------------------

def kmeans_fixed(emb_ds, k: int = 8, iterations: int = 2,
                 id_col: str = "vec_id", emb_col: str = "embedding"):
    """Lloyd's k-means over an embedding column, INTEGER-exact — the
    clustering step of an embedding-space curation pipeline (topic
    balancing, near-dup cluster pruning, IVF cell design).

    Determinism contract (same scheme as ``graph.pagerank``): vectors
    quantize to ``q = floor(x * 1e6)`` int64 per dimension; squared-L2
    distances, centroid updates (``floor(sum_q / n)``) and tie-breaks
    (lowest cluster id wins an equal distance) are all integer ops, so
    the result is bit-identical to an unrolled-CTE SQL oracle and
    independent of block layout / summation order.  Initial centroids
    are the quantized vectors of the ``k`` smallest ``id_col`` rows; an
    empty cluster keeps its previous centroid.

    Returns ``(cluster, dim, qc, n)`` — the final centroids after
    ``iterations`` assign+update rounds (k x dims rows; ``n`` is the
    cluster's size in the final assignment, identical across dims).

    Scale shape: each iteration is one ``map_batches`` (per-block
    assignment + fixed-point partial sums — one (k x dims) int64 matrix
    per block, never per row) and one ``groupby(cluster, dim)`` Sum
    whose result is k*dims rows — the ONLY driver state, bounded by
    construction (k, dims are operator parameters, not data sizes).
    Iterations are synchronous barriers — inherent to Lloyd.  Overflow:
    |q| <= 1e6*|x|; squared diffs * dims stay far below 2^63 for any
    sane embedding range (|x| < 1e3, dims <= 4096); centroid sums are
    exact in the oracle's DOUBLE division below 2^53 (~9e9 members per
    cluster — document before exceeding).

    Init-selection exchange: per-block partial k-smallest ids, merged on
    the driver — O(blocks * k) rows, never a sort of the dataset.
    """
    import ray.data

    res = _kmeans_qc(emb_ds, k, iterations, id_col, emb_col)
    if res is None:
        return ray.data.from_arrow(pa.table({
            "cluster": pa.array([], pa.int64()),
            "dim": pa.array([], pa.int64()),
            "qc": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64())}))
    qc, n_final = res
    kk, dims = qc.shape
    return ray.data.from_arrow(pa.table({
        "cluster": pa.array(np.repeat(np.arange(kk, dtype=np.int64), dims),
                            pa.int64()),
        "dim": pa.array(np.tile(np.arange(dims, dtype=np.int64), kk),
                        pa.int64()),
        "qc": pa.array(qc.reshape(-1), pa.int64()),
        "n": pa.array(np.repeat(n_final, dims), pa.int64()),
    }))


def _argmin_assign(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """First-minimum (lowest cluster id wins ties) integer squared-L2
    assignment — k passes of (n x dims) int64 ops, O(n*dims) memory
    (never an (n,k,dims) cube); shared by the update partials and the
    final labelling pass so both sides of the oracle see ONE kernel."""
    dist = np.empty((len(q), len(c)), dtype=np.int64)
    for ci in range(len(c)):
        diff = q - c[ci]
        dist[:, ci] = np.einsum("ij,ij->i", diff, diff)
    return dist.argmin(axis=1)                            # first min = low id


def _kmeans_qc(emb_ds, k: int, rounds: int, id_col: str, emb_col: str):
    """The Lloyd iteration core shared by ``kmeans_fixed`` (centroid
    output) and ``kmeans_assign`` (labelling output): seed from the k
    smallest ids, run ``rounds`` assign+update rounds, return the
    quantized centroid matrix ``(qc, n_final)`` — or None on an empty
    dataset.  All determinism notes live on ``kmeans_fixed``."""
    import ray
    from ray.data.aggregate import Sum

    scale = _CENTROID_SCALE

    # --- init: quantized vectors of the k smallest ids ---------------------
    def _cand(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: b.column(emb_col)})
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")[:k]
        return b.select([id_col, emb_col]).take(pa.array(np.sort(order)))

    cand = (emb_ds.map_batches(_cand, batch_format="pyarrow",
                               batch_size=None).take_all())
    cand.sort(key=lambda r: r[id_col])
    seeds = cand[:k]
    if not seeds:
        return None
    init = np.stack([np.asarray(r[emb_col], dtype=np.float64)
                     for r in seeds])
    qc = np.floor(init * scale).astype(np.int64)          # (k, dims)
    kk, dims = qc.shape

    def _partial_factory(centroids: np.ndarray):
        cref = ray.put(centroids)

        def _partial(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "dim": pa.array([], pa.int64()),
                                 "sum_q": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64())})
            c = ray.get(cref)
            vecs = list_column_matrix(b[emb_col])
            q = np.floor(vecs * scale).astype(np.int64)   # (n, dims)
            assign = _argmin_assign(q, c)
            sums = np.zeros((len(c), q.shape[1]), dtype=np.int64)
            np.add.at(sums, assign, q)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            nz = np.flatnonzero(counts)
            return pa.table({
                "cluster": pa.array(np.repeat(nz, q.shape[1]), pa.int64()),
                "dim": pa.array(np.tile(np.arange(q.shape[1], dtype=np.int64),
                                        len(nz)), pa.int64()),
                "sum_q": pa.array(sums[nz].reshape(-1), pa.int64()),
                "n": pa.array(np.repeat(counts[nz], q.shape[1]), pa.int64()),
            })
        return _partial

    n_final = np.zeros(kk, dtype=np.int64)
    for _ in range(rounds):
        stats = (emb_ds.map_batches(_partial_factory(qc),
                                    batch_format="pyarrow", batch_size=None)
                 .groupby(["cluster", "dim"])
                 .aggregate(Sum("sum_q", alias_name="sum_q"),
                            Sum("n", alias_name="n"))
                 .take_all())                             # k*dims rows max
        n_final = np.zeros(kk, dtype=np.int64)
        new_qc = qc.copy()                                # empty keeps old
        for row in stats:
            c, d = int(row["cluster"]), int(row["dim"])
            new_qc[c, d] = row["sum_q"] // row["n"]
            n_final[c] = row["n"]
        qc = new_qc

    return qc, n_final


def kmeans_assign(emb_ds, k: int = 8, iterations: int = 2,
                  id_col: str = "vec_id", emb_col: str = "embedding"):
    """Per-vector cluster labels under the SAME fixed-point Lloyd
    contract as ``kmeans_fixed``: the label of iteration ``iterations``
    is the assignment computed against the centroids after
    ``iterations - 1`` update rounds (the oracle's ``a{iterations}``
    CTE — the assignment that PRODUCED the final centroids, so the two
    entries describe one clustering, not two).

    Returns Dataset[(id_col, cluster)], bit-identical to the unrolled
    SQL.  Scale shape: the centroid train is the bounded-driver Lloyd
    loop (k x dims state); labelling is ONE stateless map_batches pass
    against the broadcast centroid matrix — no shuffle at all.
    """
    import ray
    import ray.data

    if iterations < 1:
        raise ValueError("kmeans_assign needs iterations >= 1")
    res = _kmeans_qc(emb_ds, k, iterations - 1, id_col, emb_col)
    if res is None:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64())}))
    qc, _ = res
    scale = _CENTROID_SCALE
    cref = ray.put(qc)

    def _label(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64())})
        c = ray.get(cref)
        vecs = list_column_matrix(b[emb_col])
        q = np.floor(vecs * scale).astype(np.int64)
        assign = _argmin_assign(q, c)
        return pa.table({
            id_col: pc.cast(b.column(id_col), pa.int64()),
            "cluster": pa.array(assign.astype(np.int64), pa.int64())})

    return emb_ds.map_batches(_label, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
