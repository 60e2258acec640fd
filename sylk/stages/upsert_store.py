"""LSM-style upsert (CDC merge) store: insert-or-replace with delete
tombstones across ingest increments — the MERGE INTO / mutable-table
semantics a log-structured data lake provides, built from immutable
per-increment sorted runs.

Store layout (the :mod:`store_fold` contract)::

    store_dir/p=<bucket>/inc<id>.parquet       # winners of one increment
    store_dir/p=<bucket>/compact<upto>.parquet # folded winners
    store_dir/_done_inc<id>.json               # completeness marker

``bucket = key_hash >> (64 - bits)`` co-locates every version of a key
in one partition, so reads and compaction never shuffle across buckets.
Each write reduces its increment to one LAST row per key (by
``order_col`` — a total order within the increment), stamps ``_inc``,
and lands the run through :func:`store_fold.write_increment`: refused
at or below the watermark, a rerun removes its own increment first,
deterministic names via tmp+rename, marker last.

Read semantics: over each bucket's read set, the row from the HIGHEST
``(_inc, order_col)`` wins per key; if the winner's ``tombstone_col``
is true the key is absent from the live view.  Increments must be
written with monotonically increasing ``inc_id`` (arrival order IS the
CDC order).

Compaction (:func:`compact_store`) is the shared :func:`store_fold.fold`
with a winners-only reduce: tombstone rows are DROPPED, because the
fold covers everything at or below its horizon and leaves nothing
older for them to mask.  The ``compact`` name is reserved and the
watermark refuses a rerun of a folded increment, so no rerun can
overwrite the compacted history of other keys or land a run that the
compact file would shadow.

Scale shape: a write is one partitioned write of the increment — in
the driver up to ``store_fold._DRIVER_INGEST_LIMIT`` bytes of input,
else one hash exchange; reads stream per-bucket tasks, and compaction
folds buckets in the driver up to ``store_fold._DRIVER_READ_LIMIT``
bytes of runs, else per-bucket tasks (bounded by bucket size not store
size); the per-bucket run count grows with the increment count and is
exactly what compaction bounds.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .store_fold import complete_increments, fold, read_set, write_increment


def _key_hash(col: pa.Array) -> np.ndarray:
    from ..functions.hashing import mix64

    k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    return mix64(k)


def _last_per_key(tbl: pa.Table, key_col: str, order_keys) -> pa.Table:
    """Vectorized last-wins: one row per key, the max ``order_keys``
    tuple wins (lexsort + run-end pick)."""
    if tbl.num_rows == 0:
        return tbl
    keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
    order_arrs = [tbl.column(c).to_numpy(zero_copy_only=False)
                  for c in order_keys]
    sel = np.lexsort(tuple(reversed(order_arrs)) + (keys,))
    last = np.ones(len(sel), dtype=bool)
    last[:-1] = keys[sel][1:] != keys[sel][:-1]
    return tbl.take(pa.array(sel[last]))


def _live(tbl: pa.Table, key_col: str, order_col: str,
          tombstone_col: str | None) -> pa.Table:
    """Winners of a bucket's runs, tombstoned winners dropped."""
    tbl = _last_per_key(tbl, key_col, ["_inc", order_col])
    if tombstone_col is None:
        return tbl
    return tbl.filter(pc.invert(pc.fill_null(
        tbl.column(tombstone_col).cast(pa.bool_()), False)))


def upsert_write(ds, store_dir: str, key_col: str, order_col: str,
                 inc_id: int, bits: int = 4):
    """Write one CDC increment (:func:`store_fold.write_increment`:
    refused at or below the watermark, a rerun replaces the increment).
    Eager: the runs and the completeness marker are on disk on return.
    Returns a per-bucket stats Dataset (bucket, rows)."""
    import ray.data

    def _tag(b: pa.Table) -> pa.Table:
        if b.num_columns == 0:
            return b
        h = _key_hash(b.column(key_col))
        return b.append_column(
            "_bkt", pa.array((h >> np.uint64(64 - bits)).astype(np.int64),
                             pa.int64()))

    def _winners(g: pa.Table) -> pa.Table:
        win = _last_per_key(g, key_col, [order_col])
        return win.append_column(
            "_inc", pa.array(np.full(win.num_rows, inc_id), pa.int64()))

    stats = write_increment(ds, store_dir, inc_id, "_bkt", "p", fn=_tag,
                            reduce=_winners)
    return ray.data.from_arrow(stats.rename_columns(["bucket", "rows"]))


def read_current(store_dir: str, key_col: str, order_col: str,
                 tombstone_col: str | None = None):
    """Dataset of the store's LIVE rows: per-bucket run merge, highest
    (_inc, order) wins, tombstone winners dropped.  Buckets stream as
    independent tasks whose outputs stay in the OBJECT STORE — the
    driver never holds a row (the task refs feed from_arrow_refs
    directly; empty buckets contribute empty blocks).  A store with no
    complete increment reads as a typed empty Dataset, with the schema
    of any run on disk (zero columns while there is none)."""
    import ray
    import ray.data

    done = complete_increments(store_dir)
    # only buckets with at least one run (a fully-tombstoned compacted
    # bucket holds a 0-row run with schema)
    sets = [s for s in (read_set(store_dir, [d], done=done) for d in
                        sorted(glob.glob(os.path.join(store_dir, "p=*"))))
            if s]
    if not sets:
        any_run = glob.glob(os.path.join(store_dir, "p=*", "*.parquet"))[:1]
        return ray.data.from_arrow(
            pq.read_schema(any_run[0]).empty_table().drop_columns(["_inc"])
            if any_run else pa.table({}))

    @ray.remote
    def _one(files: list) -> pa.Table:
        tbl = pa.concat_tables([pq.read_table(f) for f in files])
        return _live(tbl, key_col, order_col,
                     tombstone_col).drop_columns(["_inc"])

    return ray.data.from_arrow_refs([_one.remote(s) for s in sets])


def compact_store(store_dir: str, key_col: str, order_col: str,
                  tombstone_col: str | None = None) -> dict:
    """Fold every bucket's runs into one (winners only; tombstones
    dropped) — :func:`store_fold.fold` with the live-view reduce."""
    res = fold(store_dir, "p=*", reduce=lambda t: _live(
        t, key_col, order_col, tombstone_col))
    return {"runs_in": res["files_in"], "runs_out": res["files_out"]}
