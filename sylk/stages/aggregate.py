"""Aggregate stages: per-sink counts and histograms, shuffle-light.

Scale design: a bare ``groupby(keys).count()`` shuffles every row.  All
aggregates here are TWO-PHASE — a vectorized per-batch partial count
(pyarrow ``Table.group_by``) runs inside ``map_batches``, so the
all-to-all exchange moves at most (distinct keys per batch) rows per
block, then a small ``groupby().sum`` finalizes.  Hot keys (conversation
skew, one hot facility) are absorbed at the partial stage: a key that
dominates a block still contributes ONE partial row per block.

For group-aggregates whose reducer state is large (not just a count),
``salted_group_counts`` shows the salt pattern: spread one hot key over
``salt`` sub-keys, reduce twice.  Null key values are represented as ""
(unambiguous: parsed terms have min length 1, parser.rs:353-362).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from .collect import collect


def _partial_counts_gen(batch: pa.Table, keys, ok_filter: bool | None):
    """Generator wrapper: ``groupby`` aggregates and ``map_groups``
    upstream can emit ZERO-COLUMN empty blocks for partitions that
    received no rows; yield nothing for those instead of raising
    FieldRef-not-found in the keyed group_by."""
    if batch.num_columns:
        yield _partial_counts(batch, keys, ok_filter)


def _partial_counts(batch: pa.Table, keys, ok_filter: bool | None) -> pa.Table:
    if ok_filter is True:
        batch = batch.filter(batch.column("ok"))
    elif ok_filter is False:
        batch = batch.filter(pc.invert(batch.column("ok")))
    cols = {}
    for k in keys:
        col = batch.column(k)
        if pa.types.is_string(col.type):
            col = pc.fill_null(col, "")
        cols[k] = col
    t = pa.table(cols)
    out = t.group_by(keys).aggregate([([], "count_all")])
    return out.rename_columns(list(keys) + ["n"])


def grouped_counts(parsed_ds, keys, ok_filter: bool | None = None):
    """Two-phase distributed count by ``keys`` -> Dataset[keys..., n]."""
    partials = parsed_ds.map_batches(
        lambda b: _partial_counts_gen(b, keys, ok_filter),
        batch_format="pyarrow",
        batch_size=None,
    )
    return partials.groupby(list(keys)).aggregate(Sum("n", alias_name="n"))


def grouped_counts_local(parsed_ds, keys, ok_filter: bool | None = None):
    """Same two-phase count, but the final merge runs on the driver with
    pyarrow's multithreaded group_by -> pyarrow Table.  Use when the
    global key cardinality fits one machine (counters, histograms);
    Ray's sort-based groupby costs seconds even on tiny partial tables,
    so this is the default for the query/metric rollups."""
    partials = parsed_ds.map_batches(
        lambda b: _partial_counts_gen(b, keys, ok_filter),
        batch_format="pyarrow",
        batch_size=None,
    )
    _, tbl = collect(partials)
    if not tbl.num_columns:  # fully-empty input: callers rebuild schema (_table)
        return tbl
    merged = tbl.group_by(list(keys)).aggregate([("n", "sum")])
    return merged.rename_columns(list(keys) + ["n"])


def sink_counts(parsed_ds):
    """Per-(facility, severity) routed message counts (ok rows)."""
    return grouped_counts(parsed_ds, ["facility", "severity"], ok_filter=True)


def reject_counts(parsed_ds):
    """Per-error-variant reject counts (failed rows)."""
    return grouped_counts(parsed_ds, ["error"], ok_filter=False)


def host_app_histogram(parsed_ds):
    """Per-(hostname, appname) histogram over parsed rows; nil terms -> ""."""
    return grouped_counts(parsed_ds, ["hostname", "appname"], ok_filter=True)


# ``combined_counts``: ONE parse pass feeds all three north-rule rollups
# (per-sink counts, reject counts, host/app histogram).  Each block emits
# TWO narrow partial tables stacked in one schema — (ok, facility,
# severity, error) and (ok, hostname, appname) — NOT one crossed
# composite key: the cross product (sinks x hosts x apps) barely
# compresses per block, which made partial volume scale linearly with
# input and turned the final merge into the Amdahl bottleneck (measured:
# 8->32 cpu efficiency 0.46 crossed vs >=0.8 stacked).
_COMBINED_KEYS = ["kind", "ok", "facility", "severity", "error", "hostname", "appname"]
_SINK_PART = ["ok", "facility", "severity", "error"]
_HOST_PART = ["ok", "hostname", "appname"]
# up to this many per-block partial rows the final merge runs on the
# driver; above it, a Ray groupby finalizes
_COMBINED_DRIVER_LIMIT = 5_000_000


def _clean_key(col):
    if pa.types.is_boolean(col.type):
        return col.cast(pa.int8())  # groupby-friendly key
    if pa.types.is_string(col.type):
        return pc.fill_null(col, "")
    return pc.fill_null(col, -1)  # facility/severity are never negative


def _partial_combined(batch: pa.Table) -> pa.Table:
    cols = {k: _clean_key(batch.column(k)) for k in _COMBINED_KEYS[1:]}
    t = pa.table(cols)
    sink = t.group_by(_SINK_PART).aggregate([([], "count_all")])
    host = t.group_by(_HOST_PART).aggregate([([], "count_all")])
    n = {"sink": sink.column("count_all"), "host": host.column("count_all")}
    stacked = {
        "kind": pa.concat_arrays(
            [pa.array([0] * len(sink), pa.int8()), pa.array([1] * len(host), pa.int8())]
        )
    }
    for k in _COMBINED_KEYS[1:]:
        parts = []
        for which, tbl_part in (("sink", sink), ("host", host)):
            if k in tbl_part.column_names:
                parts.append(tbl_part.column(k).combine_chunks())
            else:
                typ = t.schema.field(k).type
                parts.append(pa.nulls(len(tbl_part), typ))
        stacked[k] = pa.concat_arrays(
            [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts]
        )
    stacked["n"] = pa.concat_arrays(
        [n["sink"].combine_chunks(), n["host"].combine_chunks()]
    )
    return pa.table(stacked)


def combined_counts(parsed_ds):
    """Single-execution partial+final count feeding all three rollups ->
    pandas DataFrame (columns ``kind ok facility severity error hostname
    appname n``).  Use :func:`rollups_from_combined` on the result.

    Final merge strategy: per-block partials are O(key cardinality) rows
    — a few hundred per block — so up to ``_COMBINED_DRIVER_LIMIT``
    partial rows they collect to the driver and merge with pyarrow's
    multithreaded C++ ``group_by`` (a tree-reduce whose root is small).
    Above it (host/app histograms over millions of hosts) a Ray groupby
    shuffle finalizes instead.
    """
    partials = parsed_ds.map_batches(
        _partial_combined, batch_format="pyarrow", batch_size=None
    )
    partials, tbl = collect(partials, _COMBINED_DRIVER_LIMIT)
    if tbl is None:
        final = partials.groupby(_COMBINED_KEYS).aggregate(Sum("n", alias_name="n"))
        return final.to_pandas()
    merged = tbl.group_by(_COMBINED_KEYS).aggregate([("n", "sum")])
    return merged.rename_columns(_COMBINED_KEYS + ["n"]).to_pandas()


def rollups_from_combined(pdf):
    """(sink, reject, host_app) pandas rollups from a combined_counts
    result — each with the same columns the dedicated aggregates emit."""
    s = pdf[pdf.kind == 0]
    h = pdf[pdf.kind == 1]
    ok = s[s.ok == 1]
    # pandas promotes int8-with-null to float64 across the stacked frame;
    # ok rows always carry facility/severity, so restore integer keys
    ok = ok.assign(
        facility=ok.facility.astype("int64"), severity=ok.severity.astype("int64")
    )
    sink = ok.groupby(["facility", "severity"], as_index=False).n.sum()
    rej = s[s.ok == 0].groupby(["error"], as_index=False).n.sum()
    hostapp = h[h.ok == 1].groupby(["hostname", "appname"], as_index=False).n.sum()
    return sink, rej, hostapp


def _salt_batch(batch: pa.Table, salt: int) -> pa.Table:
    # the salt must vary WITHIN one key's rows (it spreads a hot key over
    # sub-keys), so it is row-positional, not a function of the key value
    import numpy as np

    return batch.append_column(
        "_salt", pa.array((np.arange(len(batch)) % salt).astype(np.int32))
    )


def salted_group_counts(parsed_ds, key: str, salt: int = 16):
    """Two-round salted aggregate for a skewed key: round 1 reduces
    (key, salt) partials, round 2 merges salts per key.  With count
    partials this is belt-and-suspenders (the batch partial already
    absorbs skew); the pattern matters for heavy reducer state."""
    partials = parsed_ds.map_batches(
        lambda b: _partial_counts(_salt_batch(b, salt), [key, "_salt"], True),
        batch_format="pyarrow",
        batch_size=None,
    )
    round1 = partials.groupby([key, "_salt"]).aggregate(Sum("n", alias_name="n"))
    return round1.groupby(key).aggregate(Sum("n", alias_name="n"))


def topk_per_group(counts_ds, group_keys, order_col: str, k: int,
                   tie_cols=None):
    """Top-k rows per group from a (already reduced) counts Dataset,
    ordered by ``order_col`` DESC with deterministic ascending
    tie-break on ``tie_cols`` — matches SQL
    ``row_number() OVER (PARTITION BY keys ORDER BY n DESC, ties)``.

    Scale: runs AFTER the two-phase reduce, so one group's rows =
    distinct secondary values for that key (bounded, e.g. apps per
    host), never raw corpus rows."""
    import pandas as pd

    group_keys = list(group_keys)
    tie_cols = list(tie_cols or [])

    def _top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([order_col] + tie_cols,
                          ascending=[False] + [True] * len(tie_cols),
                          kind="mergesort")
        out = g.head(k).copy()
        out["rank"] = range(1, len(out) + 1)
        return out

    return counts_ds.groupby(group_keys).map_groups(_top, batch_format="pandas")


def grouped_quantiles(ds, key: str, value_col: str, qs, out_names,
                      pre_grouped: bool = False, cont: bool = False):
    """EXACT distributed discrete quantiles per group over a
    bounded-domain value column, as a two-phase histogram: per-block
    pyarrow ``group_by(key, value)`` count partials (the only shuffle
    payload is |distinct (key, value)| rows per block), a
    ``groupby().sum`` merge, then a per-key cumulative walk.

    Rank convention = SQL ``percentile_disc`` / DuckDB
    ``quantile_disc``: the value at 1-indexed rank max(1, ceil(q * n)).
    Exact because the histogram holds full counts — no sampling, no
    sketch; the domain bound (e.g. message length <= a few KiB) keeps
    the state tiny.  ``pre_grouped=True`` skips the partial phase when
    ``ds`` is already (key, value, n) rows."""
    import math

    import numpy as np
    import pandas as pd

    qs = list(qs)
    out_names = list(out_names)

    if pre_grouped:
        hist = ds
    else:
        def _partial(b: pa.Table) -> pa.Table:
            g = b.group_by([key, value_col]).aggregate([([], "count_all")])
            return g.select([key, value_col, "count_all"]).rename_columns(
                [key, value_col, "n"])

        partials = ds.map_batches(_partial, batch_format="pyarrow",
                                  batch_size=None, zero_copy_batch=True)
        hist = partials.groupby([key, value_col]).aggregate(
            Sum("n", alias_name="n"))

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, kind="mergesort")
        c = g["n"].to_numpy().cumsum()
        total = int(c[-1])
        vals = g[value_col].to_numpy()
        row = {key: g[key].iloc[0]}
        for q, name in zip(qs, out_names):
            if cont:
                # percentile_cont: h = q*(n-1), lerp v1*(1-f) + v2*f —
                # DuckDB's Interpolate op order (probe-verified in
                # selection.distributed_quantiles_cont)
                h = q * (total - 1)
                lo = int(math.floor(h))
                frac = h - lo
                v1 = vals[int(np.searchsorted(c, lo + 1, side="left"))]
                v2 = vals[int(np.searchsorted(c, min(lo + 2, total),
                                              side="left"))]
                row[name] = float(v1) * (1 - frac) + float(v2) * frac
            else:
                rank = max(1, math.ceil(q * total))
                row[name] = vals[int(np.searchsorted(c, rank, side="left"))]
        return pd.DataFrame([row])

    return hist.groupby(key).map_groups(_q, batch_format="pandas")


def latest_per_key(ds, key: str, order_cols, payload_cols=None):
    """CDC-style compaction: the single latest row per key, latest =
    max (order_cols) tuple (include a unique tiebreaker for a total
    order).  Two-phase argmax: each block keeps one candidate row per
    key it sees (the combiner — a hot key contributes one row per
    block, never its raw rows), then a per-key max over the candidates."""
    import pandas as pd

    order_cols = list(order_cols)
    cols = None if payload_cols is None else ([key] + order_cols
                                              + list(payload_cols))

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if cols is not None:
            df = df[cols]
        if len(df) == 0:
            return df
        df = df.sort_values(order_cols, kind="mergesort")
        return df.groupby(key, sort=False).tail(1)

    partials = ds.map_batches(_partial, batch_format="pandas",
                              batch_size=None)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(order_cols, kind="mergesort").tail(1)

    return partials.groupby(key).map_groups(_final, batch_format="pandas")


def exact_distinct_count(ds, key: str):
    """Exact COUNT(DISTINCT key): per-block unique partial (combiner)
    then a hash-partitioned distinct — the shuffle moves only distinct
    values per block, and the final count is one number per partition
    summed driver-side.  The exact companion to the HLL sketch."""
    def _uniq(b: pa.Table) -> pa.Table:
        return b.select([key]).group_by([key]).aggregate([])

    parts = ds.map_batches(_uniq, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True)
    return parts.groupby(key).count().count()


def grouped_distinct_count(ds, key, val: str,
                           distinct_alias: str = "n_distinct",
                           total_alias: str = "n_rows"):
    """Exact per-group COUNT(DISTINCT val) + COUNT(*) (e.g. daily
    active users): per-block distinct (key, val) pair partials carrying
    their local row counts (the combiner — the first shuffle moves
    distinct pairs per block, not events), one keyed reduce to global
    distinct pairs, then a second keyed reduce over the pair table
    (already ≤ distinct-pair-sized) folds pairs into
    (key, n_distinct, n_rows).  No sketch error, no per-key driver
    state.  ``key`` may be one column name or a list (composite
    group)."""
    from ray.data.aggregate import Count

    keys = [key] if isinstance(key, str) else list(key)

    def _pairs(b: pa.Table) -> pa.Table:
        t = pa.table({**{k: b.column(k) for k in keys},
                      val: b.column(val)})
        out = t.group_by(keys + [val]).aggregate([([], "count_all")])
        return out.rename_columns(keys + [val, "_c"])

    parts = ds.map_batches(_pairs, batch_format="pyarrow",
                           batch_size=None)
    pairs = parts.groupby(keys + [val]).aggregate(
        Sum("_c", alias_name="_c"))
    return pairs.groupby(keys).aggregate(
        Count(alias_name=distinct_alias),
        Sum("_c", alias_name=total_alias))


def sliding_window_counts(ds, t_col: str, keys, window: int, slide: int):
    """Sliding-window grouped counts: every row lands in
    ``window // slide`` overlapping windows (epoch-aligned starts).

    Scale shape: the explode multiplies rows by the overlap factor
    BEFORE the combiner, but the per-block pyarrow partial immediately
    collapses them to distinct (w_start, keys) rows, so the exchange
    payload is |windows x keys per block|, not raw rows x overlap.
    Floor division (numpy ``floor_divide``) matches SQL ``//`` for
    pre-epoch timestamps too."""
    import numpy as np

    keys = list(keys)
    if window % slide != 0:
        raise ValueError("window must be a multiple of slide")
    reps = window // slide

    def _explode_partial(b: pa.Table) -> pa.Table:
        t = b.column(t_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(t)
        base = np.floor_divide(t, slide) * slide
        w = (np.repeat(base, reps)
             - np.tile(np.arange(reps, dtype=np.int64) * slide, n))
        idx = np.repeat(np.arange(n), reps)
        cols = {"w_start": pa.array(w, pa.int64())}
        for k in keys:
            cols[k] = b.column(k).take(pa.array(idx))
        g = pa.table(cols).group_by(["w_start"] + keys).aggregate(
            [([], "count_all")])
        return g.select(["w_start"] + keys + ["count_all"]).rename_columns(
            ["w_start"] + keys + ["n"])

    partials = ds.map_batches(_explode_partial, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
    return partials.groupby(["w_start"] + keys).aggregate(
        Sum("n", alias_name="n"))


def rollup_counts(parsed_ds, keys, ok_filter: bool | None = True):
    """GROUP BY ROLLUP(keys): every prefix level of ``keys`` plus the
    grand total, with rolled-up columns null — computed from ONE partial
    pass (the per-block combiner runs once; each coarser level reduces
    the previous level's already-tiny output, never the corpus)."""
    import ray.data

    keys = list(keys)
    partials = parsed_ds.map_batches(
        lambda b: _partial_counts_gen(b, keys, ok_filter),
        batch_format="pyarrow", batch_size=None)

    def _cast_level(level_keys):
        def _c(b: pa.Table) -> pa.Table:
            n = len(b)
            cols = {}
            for k in keys:
                if k in level_keys:
                    cols[k] = b.column(k).cast(pa.int64())
                else:
                    cols[k] = pa.nulls(n, pa.int64())
            cols["n"] = b.column("n").cast(pa.int64())
            return pa.table(cols)
        return _c

    levels = []
    cur = partials.groupby(keys).aggregate(Sum("n", alias_name="n"))
    levels.append(cur.map_batches(_cast_level(keys), batch_format="pyarrow"))
    for i in range(len(keys) - 1, 0, -1):
        cur = cur.groupby(keys[:i]).aggregate(Sum("n", alias_name="n"))
        levels.append(cur.map_batches(_cast_level(keys[:i]),
                                      batch_format="pyarrow"))
    # empty input: Sum over no rows is None, but SQL ROLLUP still emits
    # the () grouping-set row with COUNT 0
    total = cur.aggregate(Sum("n", alias_name="n"))["n"] or 0
    grand = ray.data.from_arrow(pa.table(
        {**{k: pa.nulls(1, pa.int64()) for k in keys},
         "n": pa.array([total], pa.int64())}))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out.union(grand)


def cube_counts(parsed_ds, keys, ok_filter: bool | None = True):
    """GROUP BY CUBE(keys): counts for EVERY subset of ``keys`` (2^k
    grouping sets), absent columns null — same one-partial-pass shape
    as :func:`rollup_counts`, every coarser set reduced from the finest
    already-tiny level, never from the corpus."""
    import itertools

    import ray.data

    keys = list(keys)
    partials = parsed_ds.map_batches(
        lambda b: _partial_counts_gen(b, keys, ok_filter),
        batch_format="pyarrow", batch_size=None)

    def _cast_level(level_keys):
        def _c(b: pa.Table) -> pa.Table:
            n = len(b)
            cols = {}
            for k in keys:
                if k in level_keys:
                    cols[k] = b.column(k).cast(pa.int64())
                else:
                    cols[k] = pa.nulls(n, pa.int64())
            cols["n"] = b.column("n").cast(pa.int64())
            return pa.table(cols)
        return _c

    finest = (partials.groupby(keys).aggregate(Sum("n", alias_name="n"))
              .materialize())
    out = finest.map_batches(_cast_level(keys), batch_format="pyarrow")
    for r in range(len(keys) - 1, 0, -1):
        for subset in itertools.combinations(keys, r):
            lv = finest.groupby(list(subset)).aggregate(
                Sum("n", alias_name="n"))
            out = out.union(lv.map_batches(_cast_level(set(subset)),
                                           batch_format="pyarrow"))
    total = finest.aggregate(Sum("n", alias_name="n"))["n"] or 0
    grand = ray.data.from_arrow(pa.table(
        {**{k: pa.nulls(1, pa.int64()) for k in keys},
         "n": pa.array([total], pa.int64())}))
    return out.union(grand)


def collect_sorted(ds, key: str, value_col: str, sep: str = ","):
    """Per-key sorted DISTINCT value list — the collect_list /
    ``string_agg(DISTINCT v, sep ORDER BY v)`` surface.

    -> Dataset[(key, n_vals, values)].

    Skew-safe sessionize shape (sylk/stages/sessionize.py): distinct
    (key, value) pairs via the two-phase count (per-block pyarrow
    group_by partials, so the exchange moves distinct pairs only), one
    range-partitioned sort on (key, value), a per-BLOCK segmented
    concat (each key's run inside a block collapses to ONE chunk row),
    then a chunk merge keyed by the first value — a hot key contributes
    at most #blocks-it-spans chunk rows, never its raw values.  The
    final row is O(output string), the inherent floor for a list-agg.
    """
    import pandas as pd

    pairs = grouped_counts(ds, [key, value_col]).sort([key, value_col])

    def _chunks(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype="object"),
                                 "n_vals": pd.Series([], dtype="int64"),
                                 "_first": pd.Series([], dtype="object"),
                                 "_chunk": pd.Series([], dtype="object")})
        g = df.groupby(key, sort=False)
        out = g.agg(n_vals=(value_col, "size"),
                    _first=(value_col, "min"),
                    _chunk=(value_col, lambda s: sep.join(s))).reset_index()
        return out.astype({"n_vals": "int64"})

    chunks = pairs.map_batches(_chunks, batch_format="pandas",
                               batch_size=None)

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_first", kind="mergesort")
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "n_vals": [int(g["n_vals"].sum())],
                             "values": [sep.join(g["_chunk"])]})

    return chunks.groupby(key).map_groups(_merge, batch_format="pandas")
