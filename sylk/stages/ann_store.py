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

Distribution: one hash-shuffle of the increment by cell
(``groupby(cell).map_groups``), then each cell task writes its file
independently; no driver state scales with the data (the stats table
is n_cells rows).  The query is the existing pruned brute-force:
``read_parquet`` over probed cells only -> per-block matmul top-k.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .similarity import IVFIndex, ann_topk_bruteforce, _normalize
from .store_fold import (atomic_write, check_as_of, check_watermark,
                         delete_files, fold, purge, read_set,
                         write_marker, write_tombstones)


def _load_index(store_dir: str) -> IVFIndex:
    cents = np.load(os.path.join(store_dir, "centroids.npy"))
    idx = IVFIndex.__new__(IVFIndex)
    idx.centroids = cents  # persisted already normalized
    return idx


def _atomic_npy(path: str, arr: np.ndarray) -> None:
    with open(path + ".tmp", "wb") as f:
        np.save(f, arr)
    os.replace(path + ".tmp", path)


def ann_ingest(emb_ds, store_dir: str, inc_id: int, n_cells: int = 16,
               seed: int = 42, sample: int = 2048) -> pa.Table:
    """Ingest one embedding increment (``vec_id``, ``embedding``).
    Eager (files + completeness marker are on disk on return); returns
    the per-cell stats table (cell, n_rows)."""
    os.makedirs(store_dir, exist_ok=True)
    check_watermark(store_dir, inc_id)

    cpath = os.path.join(store_dir, "centroids.npy")
    if not os.path.exists(cpath):
        index = IVFIndex.train(emb_ds, n_cells=n_cells, sample=sample,
                               seed=seed)
        _atomic_npy(cpath, index.centroids)
    else:
        index = _load_index(store_dir)

    def _one_cell(g: pa.Table) -> pa.Table:
        if g.num_columns == 0 or g.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64())})
        cell = int(g.column("cell")[0].as_py())
        cdir = os.path.join(store_dir, f"cell={cell}")
        os.makedirs(cdir, exist_ok=True)
        out = g.drop_columns(["cell"])
        atomic_write(os.path.join(cdir, f"inc{inc_id}.parquet"),
                      lambda p: pq.write_table(out, p))
        return pa.table({"cell": pa.array([cell], pa.int64()),
                         "n_rows": pa.array([g.num_rows], pa.int64())})

    stats = (emb_ds
             .map_batches(index.assign_batch, batch_format="pyarrow",
                          batch_size=None)
             .groupby("cell")
             .map_groups(_one_cell, batch_format="pyarrow")
             .to_pandas())
    # marker LAST: every cell file above is already atomically visible
    write_marker(store_dir, inc_id,
                 {"cells": int(len(stats)),
                  "rows": int(stats["n_rows"].sum()) if len(stats) else 0})
    return pa.Table.from_pandas(stats, preserve_index=False)


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
    Tombstoned vec_ids are masked from the candidate set with the
    tiered anti-join (cost scales with the PROBED cells, not the
    store).

    ``as_of`` = snapshot read at an ingest horizon: only increments <=
    as_of are scanned (refused below the compaction watermark).  No
    corpus stats exist here, so the horizon is purely a scan cut —
    centroids are trained by increment 1 and never move, so routing is
    identical at every horizon.  Tombstones still apply in full
    (right-to-be-forgotten wins over time travel).  A probe that finds
    no file returns a typed empty (query_idx, vec_id, cosine) Dataset."""
    import ray.data

    check_as_of(store_dir, as_of)
    index = _load_index(store_dir)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ index.centroids.T), axis=1)[:, :nprobe]
    files = probe_files(store_dir,
                        {int(c) for row in probe for c in row},
                        as_of=as_of)
    if not files:
        return ray.data.from_arrow(pa.table({
            "query_idx": pa.array([], pa.int32()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())}))
    pruned = ray.data.read_parquet(files, columns=["vec_id", "embedding"])
    del_files = delete_files(store_dir)
    if del_files:
        from .join import anti_join

        pruned = anti_join(
            pruned, ray.data.read_parquet(del_files, columns=["vec_id"]),
            on="vec_id")
    return ann_topk_bruteforce(pruned, np.asarray(queries), k=k,
                               round_to=round_to)


def compact_ann_store(store_dir: str) -> dict:
    """Bound the per-cell file count — :func:`store_fold.fold` over the
    ``cell=`` dirs, purging tombstoned vec_ids from every rewritten cell
    file (free, because the fold rewrites every surviving row anyway;
    tombstone files are retained, and re-masking purged ids is a
    no-op)."""
    return fold(store_dir, "cell=*", reduce=purge(store_dir, "vec_id"))
