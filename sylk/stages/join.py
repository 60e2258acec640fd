"""Relational join operators (star-schema enrich, fact-fact join,
semi/anti join) — Ray-Data-first.

The reference crate has no joins (one string -> struct function); these
are engine capabilities a training-data pipeline needs (dim enrich,
fact-to-fact correlation, "rows without a match" filtering).

:func:`hash_join` is the one equi-join of two Datasets.  It runs in one
of three tiers, picked from the in-memory bytes of both materialized
sides (block metadata) against the one driver budget (``collect.fits``,
64 MiB); the rule is not to move a side the answer does not need moved:

* **driver** — both sides fit together: both are collected and joined
  by one pyarrow ``Table.join`` in the driver (no shuffle, no task),
  and the result is sliced into as many blocks as the larger side had.
* **broadcast** — the right side fits alone and the join needs none of
  its unmatched rows (``inner``, ``left_outer``, ``left_semi``,
  ``left_anti``): the right side is ``ray.put`` once and every left
  block joins it in a map (no shuffle; one output block per left
  block).
* **exchange** — everything else: each block packs its rows into
  coarse key-hash groups (one row per group, the rows as Arrow IPC
  bytes), one public ``groupby().map_groups`` co-locates each group of
  both sides, and the same pyarrow join runs per group.  No private Ray
  API is used.

Every tier runs the same kernel (:func:`_join_tables`), so the key
casts, the null semantics and the list-column handling of semi/anti
joins live in one place.  A right non-key column whose name the left
side also has comes out as ``<name>_r`` (the right keys are coalesced
into the left ones and never collide).  :func:`semi_join` /
:func:`anti_join` are ``left_semi`` / ``left_anti`` hash joins against
the right key column.
tests/test_join.py runs every join in all three tiers by setting the
budget.

Aggregation after a join uses :func:`grouped_agg` — per-block pyarrow
``group_by`` partials (combiner) then one small ``groupby`` of the
partials, the same two-phase shape as ``sylk.stages.aggregate``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .collect import collect, fits, to_dataset


def cross_join(left_ds, right: pa.Table):
    """CROSS JOIN a streaming Dataset against a broadcast small side:
    each left block is index-repeated against the tiled right table —
    pure per-block compute, no shuffle.  The small side rides the
    object store once (``ray.put``); output volume is |left| x |right|
    rows, so the right side MUST be dimension-sized (grids, calendars,
    parameter sweeps) — that is the only cross join with a sane 100-TB
    shape, and the one SQL engines broadcast too."""
    import ray

    ref = ray.put(right)

    def _x(b: pa.Table) -> pa.Table:
        d = ray.get(ref)
        overlap = set(b.column_names) & set(d.column_names)
        if overlap:
            # dict-union output would silently overwrite the left column
            raise ValueError(
                f"cross_join: overlapping column names {sorted(overlap)}; "
                "rename one side before joining")
        nl, nr = len(b), len(d)
        if nl == 0 or nr == 0:
            return pa.table({**{c: b.column(c).slice(0, 0) for c in b.column_names},
                             **{c: d.column(c).slice(0, 0) for c in d.column_names}})
        li = pa.array(np.repeat(np.arange(nl, dtype=np.int64), nr))
        ri = pa.array(np.tile(np.arange(nr, dtype=np.int64), nl))
        lt, rt = b.take(li), d.take(ri)
        return pa.table({**{c: lt.column(c) for c in lt.column_names},
                         **{c: rt.column(c) for c in rt.column_names}})

    return left_ds.map_batches(_x, batch_format="pyarrow", batch_size=None,
                               zero_copy_batch=True)


def _names(cols) -> tuple:
    return (cols,) if isinstance(cols, str) else tuple(cols)


def _key_types(lt: pa.Table, rt: pa.Table, on, right_on) -> list:
    """The types both sides' keys are cast to (pyarrow joins equal key
    types only): the left side's, or the right side's where the left
    has no columns (an empty side that Ray left schemaless), or int64
    where neither has."""
    if lt.num_columns:
        return [lt.schema.field(k).type for k in on]
    if rt.num_columns:
        return [rt.schema.field(k).type for k in right_on]
    return [pa.int64()] * len(on)


def _conform(t: pa.Table, keys, types) -> pa.Table:
    """``t`` with its key columns cast to ``types``; a table with no
    columns becomes the empty table of its key columns."""
    if not t.num_columns:
        return pa.table({k: pa.array([], ty) for k, ty in zip(keys, types)})
    for k, ty in zip(keys, types):
        i = t.schema.get_field_index(k)
        if t.schema.field(i).type != ty:
            t = t.set_column(i, k, t.column(i).cast(ty))
    return t


def _join_tables(lt: pa.Table, rt: pa.Table, on, right_on,
                 join_type: str) -> pa.Table:
    types = _key_types(lt, rt, on, right_on)
    lt, rt = _conform(lt, on, types), _conform(rt, right_on, types)
    if join_type in ("left_semi", "left_anti"):
        # pyarrow's join rejects list-typed non-key columns (embeddings,
        # positions): join the keys and a row index only, then take the
        # matching left rows in their order
        keys = pa.table([*lt.select(list(on)).columns,
                         pa.array(np.arange(lt.num_rows))],
                        names=[*on, "__row"])
        hit = keys.join(rt.select(list(right_on)), keys=list(on),
                        right_keys=list(right_on),
                        join_type=join_type.replace("_", " "))
        return lt.take(np.sort(hit.column("__row").to_numpy()))
    return lt.join(rt, keys=list(on), right_keys=list(right_on),
                   join_type=join_type.replace("_", " "), right_suffix="_r")


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


_PACKED = pa.schema([("_g", pa.int64()), ("_side", pa.int8()),
                     ("_blob", pa.large_binary())])


def _pack(side: int, keys, types, n_groups: int):
    """Block -> one ``(_g, _side, _blob)`` row per coarse group the block
    touches, ``_blob`` the group's rows as an Arrow IPC stream.  The
    group is ``mix64(hash_pandas_object(keys)) % n_groups``; a row with
    a null key matches nothing, so it goes to group 0."""
    from ..functions.hashing import mix64

    def _f(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return _PACKED.empty_table()
        b = _conform(b, keys, types)
        kt = b.select(list(keys))
        valid = pc.is_valid(kt.column(0))
        for c in kt.columns[1:]:
            valid = pc.and_(valid, pc.is_valid(c))
        valid = valid.to_numpy(zero_copy_only=False)
        h = pd.util.hash_pandas_object(kt.filter(valid).to_pandas(),
                                       index=False).to_numpy()
        g = np.zeros(len(b), np.int64)
        g[valid] = (mix64(h) % np.uint64(n_groups)).astype(np.int64)
        order = np.argsort(g, kind="stable")
        b, g = b.take(pa.array(order)), g[order]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ends = np.r_[starts[1:], len(g)]
        return pa.table(
            [pa.array(g[starts]), pa.array(np.full(len(starts), side, np.int8)),
             pa.array([_ipc(b.slice(s, e - s)) for s, e in zip(starts, ends)],
                      pa.large_binary())], schema=_PACKED)

    return _f


def _exchange_join(lds, rds, on, right_on, join_type: str):
    """Both sides hash-packed into coarse groups (one row per block and
    group, the rows as Arrow IPC bytes), one ``groupby("_g").map_groups``
    over their union, and the driver tier's pyarrow join per group.
    ``lds``/``rds`` are materialized."""
    from .dedup import _coarse_group_count

    # one row of each side types a group's missing side (and the keys)
    lh, rh = (collect(ds.limit(1))[1] for ds in (lds, rds))
    types = _key_types(lh, rh, on, right_on)
    lh = _conform(lh.slice(0, 0), on, types)
    rh = _conform(rh.slice(0, 0), right_on, types)
    n = lds.count() + rds.count()
    if not n:
        return to_dataset(_join_tables(lh, rh, on, right_on, join_type))
    n_groups = _coarse_group_count(n)

    def _join_group(g: pa.Table) -> pa.Table:
        sides = g.column("_side").to_numpy()
        blobs = g.column("_blob").combine_chunks()
        lt, rt = (pa.concat_tables(
            [empty] + [pa.ipc.open_stream(blobs[i].as_buffer()).read_all()
                       for i in np.flatnonzero(sides == side)],
            promote_options="default") for side, empty in ((0, lh), (1, rh)))
        return _join_tables(lt, rt, on, right_on, join_type)

    packed = [ds.map_batches(_pack(side, keys, types, n_groups),
                             batch_format="pyarrow", batch_size=None,
                             zero_copy_batch=True)
              for side, ds, keys in ((0, lds, on), (1, rds, right_on))]
    # as many blocks as the larger side: the sort's output keeps the
    # block count, so a chain of joins would otherwise double it per join
    return packed[0].union(packed[1]).repartition(
        max(lds.num_blocks(), rds.num_blocks())).groupby("_g").map_groups(
            _join_group, batch_format="pyarrow")


def _broadcast_join(lds, rt: pa.Table, on, right_on, join_type: str):
    """Every block of ``lds`` joined against one ``ray.put`` copy of
    ``rt`` by the driver tier's kernel: no shuffle, one output block per
    left block, each with the driver tier's output schema.  Ray passes a
    0-row block through a map without calling it (schemaless, as from
    every map), so a schemaless left block never reaches the kernel."""
    import ray

    ref = ray.put(rt)

    def _j(b: pa.Table) -> pa.Table:
        return _join_tables(b, ray.get(ref), on, right_on, join_type)

    return lds.map_batches(_j, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True)


# join types that need no unmatched row of the right side
_BROADCAST_TYPES = ("inner", "left_outer", "left_semi", "left_anti")


def hash_join(left_ds, right_ds, on, right_on=None, join_type: str = "inner"):
    """Equi-join two Datasets (``join_type`` as in ``Dataset.join``:
    ``inner``, ``left_outer``, ``full_outer``, ``left_semi``, ...).

    Three tiers, picked from the in-memory bytes of both materialized
    sides: when both fit the driver budget they are collected and
    joined by one pyarrow ``Table.join`` in the driver, and the result
    is sliced into as many blocks as the larger side had, so a map after
    the join stays parallel; when the right side alone fits and
    ``join_type`` needs none of its unmatched rows,
    :func:`_broadcast_join` joins each left block against it; above
    both :func:`_exchange_join` co-locates equal keys through one public
    ``groupby().map_groups`` and runs the same pyarrow join per group.
    The right keys are cast to the left key types, and an empty side
    with no schema is typed as its key columns."""
    on = _names(on)
    right_on = on if right_on is None else _names(right_on)
    lds, rds = left_ds.materialize(), right_ds.materialize()
    if fits(lds.size_bytes(), rds.size_bytes()):
        out = _join_tables(collect(lds)[1], collect(rds)[1], on, right_on,
                           join_type)
        step = max(1, -(-out.num_rows // max(lds.num_blocks(),
                                             rds.num_blocks())))
        return to_dataset(
            [out.slice(i, step) for i in range(0, out.num_rows, step)] or out)
    if join_type in _BROADCAST_TYPES and fits(rds.size_bytes()):
        return _broadcast_join(lds, collect(rds)[1], on, right_on,
                               join_type)
    return _exchange_join(lds, rds, on, right_on, join_type)


def semi_join(left_ds, right_ds, on: str, right_key: str | None = None):
    """Rows of ``left_ds`` whose ``on`` key appears in ``right_ds``."""
    right_key = right_key or on
    return hash_join(left_ds, right_ds.select_columns([right_key]), on,
                     right_key, "left_semi")


def anti_join(left_ds, right_ds, on: str, right_key: str | None = None):
    """Rows of ``left_ds`` whose ``on`` key does NOT appear in ``right_ds``."""
    right_key = right_key or on
    return hash_join(left_ds, right_ds.select_columns([right_key]), on,
                     right_key, "left_anti")


# --- post-join aggregation (two-phase) --------------------------------------

def cents_column(batch: pa.Table, out: str, expr_cols, fn) -> pa.Table:
    """Append an exact int64 money column: ``fn(*cols)`` must produce the
    scaled double; the half-up rounding (floor(x + 0.5)) matches the SQL
    ``CAST(FLOOR(x + 0.5) AS BIGINT)`` bit-for-bit (same IEEE ops in the
    same order — no round-half-even divergence)."""
    arrs = [batch.column(c).to_numpy(zero_copy_only=False) for c in expr_cols]
    x = fn(*arrs)
    return batch.append_column(out, pa.array(np.floor(x + 0.5).astype(np.int64)))


def _strip_schema_metadata(b: pa.Table) -> pa.Table:
    # pandas-born schema metadata confuses Ray's shuffle schema dedup;
    # drop it (zero-copy).
    return b.replace_schema_metadata(None) if b.schema.metadata else b


def grouped_agg(ds, keys, sum_cols, count_name: str = "n"):
    """Two-phase grouped count+sums: per-block pyarrow ``group_by``
    partials (the combiner — only |groups|-sized partials shuffle), then
    one ``groupby().aggregate`` over the partials."""
    from ray.data.aggregate import Sum

    keys = list(keys)
    sum_cols = list(sum_cols)

    def _partial(b: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols] + [([], "count_all")]
        g = b.group_by(keys).aggregate(aggs)
        names = keys + [f"{c}_sum" for c in sum_cols] + ["count_all"]
        g = g.select(names)
        return _strip_schema_metadata(
            g.rename_columns(keys + sum_cols + [count_name]))

    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
    return partials.groupby(keys).aggregate(
        *[Sum(c, alias_name=c) for c in sum_cols],
        Sum(count_name, alias_name=count_name),
    )


# --- bucketed (co-located) joins --------------------------------------------

_BUCKET_META = "_bucket_meta.json"


def _bucket_of(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Deterministic bucket id for int64 keys: splitmix64 finisher then
    mod — never Python ``hash`` (PYTHONHASHSEED varies per worker)."""
    from ..functions.hashing import mix64

    z = mix64(keys.astype(np.uint64))
    return (z % np.uint64(n_buckets)).astype(np.int32)


def bucketed_write(ds, path: str, key: str, n_buckets: int):
    """Write ``ds`` as Hive-partitioned parquet bucketed by
    hash(key) % n_buckets, recording the bucketing in a manifest.

    The point: pay the partition-by-key cost ONCE at ingest; every
    later join on the same key reads matching bucket pairs co-located
    and never shuffles (see :func:`bucketed_join`) — the 'pick one
    partitioning key and reuse it' pattern."""
    import json
    import os

    def _tag(b: pa.Table) -> pa.Table:
        k = b.column(key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column("bucket", pa.array(_bucket_of(k, n_buckets)))

    ds.map_batches(_tag, batch_format="pyarrow", batch_size=None) \
        .write_parquet(path, partition_cols=["bucket"])
    with open(os.path.join(path, _BUCKET_META), "w") as f:
        json.dump({"key": key, "n_buckets": n_buckets}, f)


def bucketed_join(left_path: str, right_path: str, on: str,
                  right_on: str | None = None, join_type: str = "inner"):
    """Shuffle-free join of two bucket-compatible stores: for each
    bucket i, the left bucket streams as a Dataset while the right
    bucket (1/n_buckets of the right side) is joined against it by
    :func:`hash_join`'s broadcast tier (:func:`_broadcast_join`) — the
    union of the per-bucket joins is the full join,
    because equal keys always land in equal buckets.  Raises if the two
    stores were bucketed differently (a silent mismatch would drop
    rows)."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data

    right_on = right_on or on
    with open(os.path.join(left_path, _BUCKET_META)) as f:
        lm = json.load(f)
    with open(os.path.join(right_path, _BUCKET_META)) as f:
        rm = json.load(f)
    if lm["n_buckets"] != rm["n_buckets"]:
        raise ValueError(
            f"bucket count mismatch: {lm['n_buckets']} vs {rm['n_buckets']}")
    if lm["key"] != on or rm["key"] != right_on:
        raise ValueError(
            f"stores bucketed on {lm['key']}/{rm['key']}, join on "
            f"{on}/{right_on}")
    parts = []
    for i in range(lm["n_buckets"]):
        ldir = os.path.join(left_path, f"bucket={i}")
        rdir = os.path.join(right_path, f"bucket={i}")
        if not os.path.isdir(ldir) or not os.path.isdir(rdir):
            if join_type == "inner":
                continue
            raise ValueError(f"missing bucket {i} for {join_type} join")
        parts.append(_broadcast_join(ray.data.read_parquet(ldir),
                                     pq.read_table(rdir), (on,),
                                     (right_on,), join_type))
    if not parts:
        raise ValueError("no overlapping buckets")
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def union_by_name(ds_list):
    """Schema-drift tolerant UNION ALL (``UNION ALL BY NAME``): aligns
    inputs by column NAME — a column missing from one input is
    null-filled at that input's declared type elsewhere, every input is
    cast/reordered to one canonical schema, then plain ``Dataset.union``
    concatenates block lists (no shuffle, no materialization).

    The heterogeneous-shard reality at corpus scale: shards written
    before a column existed union with current data without a rewrite
    pass.  Canonical schema = first-seen name order, first-seen type
    (later inputs cast; an uncastable drift should fail loudly here,
    not silently coerce)."""
    import functools

    import ray.data

    fields: dict[str, pa.DataType] = {}
    for ds in ds_list:
        sch = ds.schema().base_schema
        for name, typ in zip(sch.names, sch.types):
            fields.setdefault(name, typ)

    def _align(sch_names):
        def f(b: pa.Table) -> pa.Table:
            cols = {}
            for name, typ in fields.items():
                if name in sch_names:
                    cols[name] = b.column(name).cast(typ)
                else:
                    cols[name] = pa.nulls(len(b), typ)
            return pa.table(cols)
        return f

    aligned = [
        ds.map_batches(_align(set(ds.schema().base_schema.names)),
                       batch_format="pyarrow", batch_size=None)
        for ds in ds_list
    ]
    return functools.reduce(ray.data.Dataset.union, aligned)


# --- set operations ---------------------------------------------------------

def _distinct_rows(ds, cols):
    """DISTINCT over ``cols`` — hash aggregate, composite-key exchange
    of the projected columns only.  The count column is dropped in a
    map, not with ``select_columns``, which can leave an aggregate's
    0-row blocks unprojected (an empty result would then carry it)."""
    from ray.data.aggregate import Count

    def _project(b: pa.Table) -> pa.Table:
        return b.select(list(cols))

    proj = ds.map_batches(_project, batch_format="pyarrow", batch_size=None)
    return proj.groupby(list(cols)).aggregate(
        Count(alias_name="_c")).map_batches(_project, batch_format="pyarrow",
                                            batch_size=None)


def intersect_distinct(a_ds, b_ds, cols):
    """``SELECT DISTINCT cols FROM a INTERSECT SELECT ... FROM b`` —
    distinct both sides, then a left_semi hash join on the full column
    tuple (set semantics: output rows are unique)."""
    cols = [cols] if isinstance(cols, str) else list(cols)
    return hash_join(_distinct_rows(a_ds, cols), _distinct_rows(b_ds, cols),
                     on=tuple(cols), join_type="left_semi")


def except_distinct(a_ds, b_ds, cols):
    """``... EXCEPT ...`` — distinct A rows with no exact match in B
    (left_anti on the full column tuple)."""
    cols = [cols] if isinstance(cols, str) else list(cols)
    return hash_join(_distinct_rows(a_ds, cols), _distinct_rows(b_ds, cols),
                     on=tuple(cols), join_type="left_anti")

