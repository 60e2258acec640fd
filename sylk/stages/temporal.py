"""Temporal join operators: as-of join and interval (range) join.

Ray Data has no native as-of or range join; both are named custom
operators for this engine (the reference crate has neither — these are
training-pipeline engine capabilities, SURVEY.md §2.3 extensions).

* :func:`asof_join_value` — backward-inclusive as-of join expressed as
  a composition the Dataset API CAN express: tag both streams, union,
  and run the skew-safe fill-forward carry (sylk.stages.asof) over the
  merged (key, t, side) order.  The one all-to-all is the carry's sort;
  the right payload rides the carry itself, so no second join is
  needed for a single numeric value column.
* :func:`range_join` — ``left.t BETWEEN right.lo AND right.hi``:
  intervals explode to one row per covered time GRANULE, left rows map
  to their granule, and a hash equi-join on (granule[, key]) plus an
  exact containment filter finishes.  Each (left, right) match meets in
  EXACTLY one granule (the left row's), so no dedup pass is needed.

  Partitioning assumption (documented per north-rule): the explosion
  factor is ceil(interval_len / granule) + 1 — pick ``granule`` near
  the typical interval length so intervals replicate O(1) times.  The
  granule hash also spreads hot time ranges across partitions only as
  far as distinct granules do; for a single white-hot granule, salt the
  left side by a secondary key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .collect import collect, to_dataset


def asof_join_value(left_ds, right_ds, key: str, t_col: str, tiebreak: str,
                    value_col: str, out_col: str,
                    right_t_col: str | None = None,
                    right_tiebreak: str | None = None):
    """For each left row: ``value_col`` of the right row with the
    greatest ``right_t <= left_t`` within the same ``key`` (backward
    inclusive — a right row at exactly left_t matches).

    Left columns pass through; ``out_col`` is null when no earlier
    right row exists.  The value must be numeric (it rides the carry
    as float64; integers above 2^53 would lose precision — the same
    bound the seed dict documents).

    Implementation: union of the tagged streams ordered by
    (key, t, side, tiebreak) with right rows (side 0) BEFORE left rows
    (side 1) at equal t, then one fill-forward carry of the right
    value, then drop the right rows.  Inherits fill_forward's two
    seed tiers (broadcast dict / distributed hash-join)."""
    from .asof import fill_forward

    rt = right_t_col or t_col
    rtb = right_tiebreak or tiebreak
    left_cols = [c for c in left_ds.schema().names]

    def _tag_left(b: pa.Table) -> pa.Table:
        b = b.append_column("_t", b.column(t_col).cast(pa.int64()))
        b = b.append_column("_side", pa.array(np.ones(len(b), np.int64)))
        b = b.append_column("_tb", b.column(tiebreak).cast(pa.int64()))
        return b.append_column("_carry", pa.nulls(len(b), pa.float64()))

    lt = left_ds.map_batches(_tag_left, batch_format="pyarrow",
                             batch_size=None)
    lt = lt.select_columns(left_cols + ["_t", "_side", "_tb", "_carry"])
    # the union needs identical schemas; after the pyarrow tag map the
    # left schema is a true Arrow schema (pandas-origin inputs report a
    # PandasBlockSchema before any arrow stage)
    left_schema = lt.schema().base_schema

    def _tag_right(b: pa.Table) -> pa.Table:
        out = pa.table({
            **{c: pa.nulls(len(b), left_schema.field(c).type)
               for c in left_cols if c != key},
            key: b.column(key).cast(left_schema.field(key).type),
            "_t": b.column(rt).cast(pa.int64()),
            "_side": pa.array(np.zeros(len(b), np.int64)),
            "_tb": b.column(rtb).cast(pa.int64()),
            "_carry": b.column(value_col).cast(pa.float64()),
        })
        return out.select(left_cols + ["_t", "_side", "_tb", "_carry"])

    rtds = right_ds.map_batches(_tag_right, batch_format="pyarrow",
                                batch_size=None)
    merged = lt.union(rtds)
    carried = fill_forward(merged, key, ["_t", "_side", "_tb"],
                           "_carry", out_col)

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["_side"] == 1]
        return df[left_cols + [out_col]]

    return carried.map_batches(_finish, batch_format="pandas",
                               batch_size=None)


def range_join(left_ds, right_ds, t_col: str, lo_col: str, hi_col: str,
               granule: int, key: str | None = None):
    """Inner join on ``left.t BETWEEN right.lo AND right.hi`` (both
    inclusive), optionally AND an equi-key.  Returns left columns +
    right columns.

    Both sides get a ``_g`` granule column (rights one row per covered
    granule), the join is a plain hash equi-join on ``_g`` (+``key``),
    and the containment filter runs vectorized per batch."""
    from .join import hash_join

    g = int(granule)
    right_cols = [c for c in right_ds.schema().names]

    def _explode_right(b: pa.Table) -> pa.Table:
        lo = b.column(lo_col).to_numpy(zero_copy_only=False).astype(np.int64)
        hi = b.column(hi_col).to_numpy(zero_copy_only=False).astype(np.int64)
        g_lo = np.floor_divide(lo, g)
        g_hi = np.floor_divide(hi, g)
        reps = (g_hi - g_lo + 1).clip(min=0)
        idx = np.repeat(np.arange(len(b)), reps)
        # covered granule per exploded row: g_lo[i] + offset within run
        offs = np.arange(len(idx)) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps)
        gran = g_lo[idx] + offs
        out = b.take(pa.array(idx))
        return out.append_column("_g", pa.array(gran, pa.int64()))

    def _granule_left(b: pa.Table) -> pa.Table:
        t = b.column(t_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("_g", pa.array(np.floor_divide(t, g),
                                              pa.int64()))

    lt = left_ds.map_batches(_granule_left, batch_format="pyarrow",
                             batch_size=None)
    rt = right_ds.map_batches(_explode_right, batch_format="pyarrow",
                              batch_size=None)
    on = ("_g", key) if key else ("_g",)
    joined = hash_join(lt, rt, on=on)

    def _contain(b: pa.Table) -> pa.Table:
        t = b.column(t_col)
        keep = pc.and_(pc.greater_equal(t, b.column(lo_col)),
                       pc.less_equal(t, b.column(hi_col)))
        out = b.filter(keep)
        return out.drop_columns(["_g"])

    return joined.map_batches(_contain, batch_format="pyarrow",
                              batch_size=None)


def gap_fill_counts(counts_ds, key_col: str, n_col: str = "n"):
    """Densify an integer-keyed counts table: emit one row for EVERY
    key in [min, max] (the time-series gap-fill / calendar-spine op),
    with ``n_col`` = 0 where the input has no row.

    -> Dataset[(key_col, n_col)] with max-min+1 rows.

    Shape: ``counts_ds`` is an already-reduced table (one row per
    occupied bucket).  The spine is a distributed ``ray.data.range``
    (never a driver list), shifted to [lo, hi]; the counts side is
    broadcast once via the object store and each spine block LEFT-joins
    against it with pyarrow's C++ hash join.  Driver state is two
    scalars (lo, hi); the broadcast is bounded by the number of
    occupied buckets — the same dim-table bound as the broadcast tier
    of join.hash_join.
    """
    import ray
    import ray.data

    _, tbl = collect(counts_ds)
    tbl = tbl.select([key_col, n_col])
    if len(tbl) == 0:
        return to_dataset(pa.table({key_col: pa.array([], pa.int64()),
                                    n_col: pa.array([], pa.int64())}))
    lo = pc.min(tbl.column(key_col)).as_py()
    hi = pc.max(tbl.column(key_col)).as_py()
    ref = ray.put(tbl)

    def _fill(b: pa.Table) -> pa.Table:
        keys = pc.add(pc.cast(b.column("id"), pa.int64()),
                      pa.scalar(lo, pa.int64()))
        spine = pa.table({key_col: keys})
        j = spine.join(ray.get(ref), keys=[key_col], join_type="left outer")
        n = pc.fill_null(pc.cast(j.column(n_col), pa.int64()), 0)
        return pa.table({key_col: j.column(key_col), n_col: n})

    spine = ray.data.range(hi - lo + 1)
    return spine.map_batches(_fill, batch_format="pyarrow", batch_size=None)


# --- time-partitioned event store (partition-pruned range scans) -----------

def day_partitioned_write(ds, path: str, t_col: str = "ts"):
    """Write an event Dataset as Hive-partitioned parquet keyed by UTC
    day — the time-series layout that makes range scans PRUNE at the
    storage layer: a 3-day query over a 10-year store opens 3
    directories, not 3650.  Pay the partition cost once at ingest (the
    bucketed_write precedent for joins, applied to time)."""

    def _tag(b: pa.Table) -> pa.Table:
        # normalize to timestamp[us] first: a pandas-born column is
        # timestamp[ns] and a raw int64 cast would be nanoseconds
        us = (b.column(t_col).cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        # FLOOR division (queries.py:282 convention): pc.divide truncates
        # toward zero and would mis-bucket pre-1970 epochs vs DuckDB `//`
        day = pa.array(np.floor_divide(us, 86_400_000_000), pa.int64())
        return b.append_column("day", day)

    ds.map_batches(_tag, batch_format="pyarrow", batch_size=None) \
        .write_parquet(path, partition_cols=["day"])


def day_partition_values(path: str) -> list[int]:
    """The sorted day values present in a day-partitioned store
    (directory listing only — no data read)."""
    import os

    return sorted(int(d.split("=", 1)[1]) for d in os.listdir(path)
                  if d.startswith("day="))


def read_day_range(path: str, day_lo: int, day_hi: int, columns=None):
    """Read ONLY the partitions of a day-partitioned store whose day
    lies in [day_lo, day_hi] (inclusive) — scan pruning by directory
    selection; the day column is restored from the partition path.

    Returns (dataset, dirs_read) so callers/tests can assert pruning.
    """
    import os

    import ray.data

    days = [d for d in day_partition_values(path)
            if day_lo <= d <= day_hi]
    dirs = [os.path.join(path, f"day={d}") for d in days]
    if not dirs:
        return to_dataset(pa.table({})), []
    dss = []
    for d, dirpath in zip(days, dirs):
        one = ray.data.read_parquet(dirpath, columns=columns)
        dss.append(one.map_batches(
            lambda b, _d=d: b.append_column(
                "day", pa.array(np.full(len(b), _d, np.int64))),
            batch_format="pyarrow", batch_size=None))
    ds = dss[0]
    if len(dss) > 1:
        ds = ds.union(*dss[1:])
    return ds, dirs
