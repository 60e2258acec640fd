"""Incremental ANN vector store: embedding increments appended to an
IVF-cell-partitioned store, probed with scan-level pruning — the vector
side of the ingest-store family (dedup_store / upsert_store), for the
"index the corpus as it arrives" workflow a streaming training-data
pipeline needs.

Store layout (the :mod:`store_fold` contract)::

    store_dir/centroids.npy          # float64 (n_cells, dim), unit rows
    store_dir/cell=<c>/inc<id>.parquet      # vec_id, embedding
    store_dir/cell=<c>/compact<upto>.parquet # folded increments
    store_dir/_deletes/del<id>.parquet      # tombstoned vec_ids
    store_dir/_deletes/_done_del<id>.json   # delete marker
    store_dir/_done_inc<id>.json     # increment completeness marker
    store_dir/_compact.json          # compaction watermark

The FIRST increment trains the centroids (the deterministic
order-statistics sample of :meth:`similarity.IVFIndex.train`) and
persists them; every later increment loads and reuses them, so cell
identity is stable across the store's lifetime and a query's probe set
prunes the SCAN — only the probed ``cell=`` directories' files are
opened (``probe_files`` is the testable contract).  Centroids are NOT
retrained as the corpus drifts; that is the standard IVF trade —
rebuild the store to rebalance.

Idempotence / crash safety: the centroids are written tmp -> atomic
rename, and retraining on a rerun of increment 1 is deterministic
(same sample, same seed), so an overwrite is bit-identical.  Cell
files, markers, read sets, tombstones, compaction and the watermark
are the shared :mod:`store_fold` contract.

Distribution: the input is materialized once, and that one pass feeds
the first increment's centroid sample and the write.
:func:`store_fold.write_increment` writes the increment by cell: up to
``store_fold._DRIVER_INGEST_LIMIT`` bytes of input the driver assigns
cells over the collected table and writes each cell's slice; above it
one hash-shuffle (``groupby(cell).map_groups``) hands each cell to a
task that writes its file, and no driver state scales with the data
(the stats table is n_cells rows).  The query is a pruned
brute-force over the probed cells' files only, in one of two tiers
picked from the on-disk size of that read set plus the tombstone files
alone (``store_fold._DRIVER_READ_LIMIT``, 64 MiB): below it, the driver
reads the files with pyarrow, masks tombstones and runs the matmul
top-k kernel (``similarity._topk_partial``) once over the one table;
above it, ``read_parquet`` -> tombstone anti-join -> the same kernel
per block -> a per-query merge (:func:`similarity.ann_topk_bruteforce`).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .similarity import (IVFIndex, ann_topk_bruteforce, _normalize,
                         _topk_partial)
from .store_fold import (atomic_write, check_as_of, delete_files,
                         driver_read, fold, purge, read_set, typed_result,
                         write_increment, write_tombstones)


def _load_index(store_dir: str) -> IVFIndex:
    cents = np.load(os.path.join(store_dir, "centroids.npy"))
    idx = IVFIndex.__new__(IVFIndex)
    idx.centroids = cents  # persisted already normalized
    return idx


def ann_ingest(emb_ds, store_dir: str, inc_id: int, n_cells: int = 16,
               seed: int = 42, sample: int = 2048) -> pa.Table:
    """Ingest one embedding increment (``vec_id``, ``embedding``)
    through :func:`store_fold.write_increment`.  Eager (files +
    completeness marker are on disk on return); returns the per-cell
    stats table (cell, n_rows)."""
    os.makedirs(store_dir, exist_ok=True)
    cpath = os.path.join(store_dir, "centroids.npy")
    # one pass over the input feeds the centroid sample and the write
    emb_ds = emb_ds.materialize()
    if not os.path.exists(cpath):
        index = IVFIndex.train(emb_ds, n_cells=n_cells, sample=sample,
                               seed=seed)

        def _save(p: str) -> None:
            with open(p, "wb") as f:    # a path would get ".npy" added
                np.save(f, index.centroids)
        atomic_write(cpath, _save)
    else:
        index = _load_index(store_dir)
    return write_increment(emb_ds, store_dir, inc_id, "cell", "cell",
                           fn=index.assign_batch)


def probe_files(store_dir: str, cells,
                as_of: int | None = None) -> list[str]:
    """A query's read set (:func:`store_fold.read_set`) over the probed
    cells ONLY.  Factored out so the scan-pruning contract is directly
    testable (tests assert non-probed ``cell=`` dirs never open)."""
    return read_set(store_dir, [os.path.join(store_dir, f"cell={c}")
                                for c in sorted(cells)], as_of=as_of)


def ann_delete(store_dir: str, vec_ids, del_id: int) -> dict:
    """Tombstone a batch of vec_ids (right-to-be-forgotten for the
    vector store — the text_index.index_delete pattern without the
    stats machinery, because ANN has no corpus-level statistics to
    correct: deleting a vector only removes it from candidate sets).
    Logical effect is immediate (probes anti-filter the tombstones);
    the physical purge rides the next :func:`compact_ann_store`.
    Never-ingested and double-deleted ids are harmless no-ops, so no
    resolution pass is needed.  Deterministic name + marker-last gives
    the usual rerun idempotence; a deleted vec_id must not be
    re-ingested (the probe would mask it forever)."""
    ids = sorted(set(int(i) for i in vec_ids))
    write_tombstones(store_dir, del_id,
                     pa.table({"vec_id": pa.array(ids, pa.int64())}),
                     {"n_ids": len(ids)})
    return {"tombstoned": len(ids)}


def ann_store_query(store_dir: str, queries: np.ndarray, k: int = 10,
                    nprobe: int = 4, round_to: int | None = 6,
                    as_of: int | None = None):
    """Cosine top-k over the accumulated store: route each query to its
    ``nprobe`` nearest cells, open ONLY those cells' files (union over
    queries), brute-force inside.  ``nprobe == n_cells`` degrades to an
    exact full scan of the union of all increments — the oracle mode.
    Tombstoned vec_ids are masked from the candidate set (cost scales
    with the PROBED cells, not the store).

    ``as_of`` = snapshot read at an ingest horizon: only increments <=
    as_of are scanned (refused below the compaction watermark).  No
    corpus stats exist here, so the horizon is purely a scan cut —
    centroids are trained by increment 1 and never move, so routing is
    identical at every horizon.  Tombstones still apply in full
    (right-to-be-forgotten wins over time travel).  An empty answer
    (no file in the read set, or every probed vector tombstoned) is a
    typed (query_idx int32, vec_id int64, cosine float64) Dataset."""
    import ray.data

    check_as_of(store_dir, as_of)
    index = _load_index(store_dir)
    qm = np.asarray(queries, dtype=np.float64)
    q = _normalize(qm)
    probe = np.argsort(-(q @ index.centroids.T), axis=1)[:, :nprobe]
    files = probe_files(store_dir,
                        {int(c) for row in probe for c in row},
                        as_of=as_of)
    empty = _topk_partial(pa.table({}), q, k)    # typed, zero rows
    if not files:
        return ray.data.from_arrow(empty)
    tbl = driver_read(store_dir, files, ["vec_id", "embedding"], "vec_id")
    if tbl is not None:
        top = _topk_partial(tbl, qm, k)
        if round_to is not None:
            top = top.set_column(2, "cosine", pa.array(np.round(
                top.column("cosine").to_numpy(), round_to), pa.float64()))
        return ray.data.from_arrow(top)
    pruned = ray.data.read_parquet(files, columns=["vec_id", "embedding"])
    del_files = delete_files(store_dir)
    if del_files:
        from .join import anti_join

        pruned = anti_join(
            pruned, ray.data.read_parquet(del_files, columns=["vec_id"]),
            on="vec_id")
    return typed_result(ann_topk_bruteforce(pruned, qm, k=k,
                                            round_to=round_to), empty)


def compact_ann_store(store_dir: str) -> dict:
    """Bound the per-cell file count — :func:`store_fold.fold` over the
    ``cell=`` dirs, purging tombstoned vec_ids from every rewritten cell
    file (free, because the fold rewrites every surviving row anyway;
    tombstone files are retained, and re-masking purged ids is a
    no-op)."""
    return fold(store_dir, "cell=*", reduce=purge(store_dir, "vec_id"))
