"""Log-analytics operators over the syslog stream: template mining
(digit-masked message signatures — the vocabulary step of the
Drain/Spell template-mining family) and per-host rate-spike detection.

Both are two-phase aggregates: per-block partials collapse the stream to
(key -> partial) rows before any exchange, so the shuffle moves
O(blocks x distinct templates / host-hours), never raw rows — at 100 TB
the exchange is bounded by key cardinality, not data size.

Reference anchor: templates are computed over the same constructed
RFC 5424 lines the parse family consumes (sylk/sources/transcripts.py),
so the DuckDB oracle replays the masking with ``regexp_replace`` —
both engines run RE2 on the identical ``[0-9]+`` pattern, making the
masked strings bit-identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Min, Sum

from .collect import collect

# ASCII digit runs only ([0-9]+, not \d+): RE2's \d is ASCII-only but
# Python re's \d is unicode — the explicit class is the parity-safe
# spelling on both engines.
_DIGIT_RUN = "[0-9]+"
_MASK = "#"


def mask_templates_batch(tbl: pa.Table, text_col: str = "text",
                         out_col: str = "template") -> pa.Table:
    """Append the digit-masked template of ``text_col`` (vectorized RE2
    replace; capture-free pattern keeps the DFA fast path)."""
    masked = pc.replace_substring_regex(
        tbl.column(text_col), pattern=_DIGIT_RUN, replacement=_MASK)
    return tbl.append_column(out_col, masked)


def log_templates(ds, text_col: str = "text", order_col: str = "turn_idx"):
    """Template mining: mask digit runs, then count occurrences and
    record the earliest ``order_col`` per template.

    -> Dataset[(template, n, first_turn)].  Two-phase: each block
    collapses to its distinct templates (pyarrow C++ group_by) before
    the keyed exchange, so the shuffle is O(blocks x templates).
    """

    def _partial(b: pa.Table) -> pa.Table:
        b = mask_templates_batch(b, text_col)
        g = (b.select(["template", order_col])
              .group_by("template")
              .aggregate([(order_col, "min"), (order_col, "count")]))
        return g.rename_columns(["template", "first_turn", "n"])

    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
    return partials.groupby("template").aggregate(
        Sum(on="n", alias_name="n"),
        Min(on="first_turn", alias_name="first_turn"),
    )


def log_templates_local(ds, text_col: str = "text",
                        order_col: str = "turn_idx") -> pa.Table:
    """:func:`log_templates` with the final merge on the driver via
    pyarrow's multithreaded C++ group_by -> pyarrow Table.  Template
    vocabularies fit one machine even on template-heavy corpora (the
    sf0.1 synth corpus mines 434k templates; Ray's sort-based groupby
    over those string keys costs ~9s where the driver merge is
    sub-second — the grouped_counts_local precedent).  Use the
    distributed variant only when templates outgrow driver memory."""

    def _partial(b: pa.Table) -> pa.Table:
        b = mask_templates_batch(b, text_col)
        g = (b.select(["template", order_col])
              .group_by("template")
              .aggregate([(order_col, "min"), (order_col, "count")]))
        return g.rename_columns(["template", "first_turn", "n"])

    _, tbl = collect(ds.map_batches(_partial, batch_format="pyarrow",
                                    batch_size=None, zero_copy_batch=True))
    merged = tbl.group_by("template").aggregate(
        [("n", "sum"), ("first_turn", "min")])
    merged = merged.rename_columns(["template", "n", "first_turn"])
    return merged.select(["template", "n", "first_turn"]).set_column(
        1, "n", merged.column("n").cast(pa.int64())).set_column(
        2, "first_turn", merged.column("first_turn").cast(pa.int64()))


def rate_spikes(ds, key: str = "hostname", window_col: str = "hour",
                factor: int = 2):
    """Flag (key, window) buckets whose count exceeds ``factor`` x the
    key's mean bucket count — integer-exact (``n * n_windows >
    factor * total``, no float rate), so the SQL oracle is bit-identical.

    -> Dataset[(key, window, n, key_total, key_windows)] (spikes only).

    Shape: one two-phase count to the (key, window) grain, a second
    keyed aggregate over those reduced rows for per-key totals, then a
    hash join of the two reduced tables.  The exchanges and the join
    move reduced rows only, never raw stream rows (``join.hash_join``
    joins them in the driver while they fit its row limit).
    """
    from .aggregate import grouped_counts
    from .join import hash_join

    # per_window feeds TWO consumers (totals + join left side); without a
    # pin Ray re-executes the full raw-stream count once per consumer
    # (CLAUDE.md shared-lineage rule).  Key-cardinality-bounded: safe.
    per_window = grouped_counts(ds, [key, window_col]).materialize()
    totals = per_window.groupby(key).aggregate(
        Sum(on="n", alias_name="key_total"),
        Count(alias_name="key_windows"),
    )
    joined = hash_join(per_window, totals, on=key)

    def _flag(b: pa.Table) -> pa.Table:
        n = pc.cast(b.column("n"), pa.int64())
        lhs = pc.multiply(n, pc.cast(b.column("key_windows"), pa.int64()))
        rhs = pc.multiply(pa.scalar(factor, pa.int64()),
                          pc.cast(b.column("key_total"), pa.int64()))
        return b.filter(pc.greater(lhs, rhs))

    return joined.map_batches(_flag, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)


def trend_numerators(ds, key: str = "hostname", window_col: str = "hour"):
    """Per-key linear trend of bucket counts, integer-exact: emit the
    least-squares slope NUMERATOR and DENOMINATOR (and the raw sums)
    instead of the float slope, so the SQL oracle is bit-identical —
    slope = slope_num / slope_den with
    slope_num = n*Sum(x*y) - Sum(x)*Sum(y),
    slope_den = n*Sum(x*x) - Sum(x)^2, x = window - min(window), y = n.

    -> Dataset[(key, n_windows, sum_x, sum_y, sum_xy, sum_xx,
    slope_num, slope_den)].

    Shape: one two-phase count to the (key, window) grain; the global
    min window is a scalar broadcast; the per-key sums are additive
    partials over the reduced rows (per-block pyarrow group_by, then
    one keyed reduce).  Shifting x to window-min keeps every product
    within int64 even when windows are hours-since-epoch and counts
    are 100-TB-scale (x spans the observed range only).
    """
    from .aggregate import grouped_counts

    # two consumers (min scalar + partial sums): pin the reduced table —
    # key-cardinality-bounded, so materializing is safe and avoids Ray
    # re-running the raw count once per consumer (CLAUDE.md shared-lineage
    # rule)
    hh = grouped_counts(ds, [key, window_col]).materialize()
    x0 = hh.min(window_col)

    def _partial(b: pa.Table) -> pa.Table:
        x = pc.cast(pc.subtract(b.column(window_col),
                                pa.scalar(x0, pa.int64())), pa.int64())
        y = pc.cast(b.column("n"), pa.int64())
        t = pa.table({
            key: b.column(key),
            "_w": pa.array(np.ones(len(b), np.int64)),
            "_x": x, "_y": y,
            "_xy": pc.multiply(x, y),
            "_xx": pc.multiply(x, x),
        })
        g = t.group_by(key).aggregate(
            [("_w", "sum"), ("_x", "sum"), ("_y", "sum"),
             ("_xy", "sum"), ("_xx", "sum")])
        return g.rename_columns([key, "_w", "_x", "_y", "_xy", "_xx"])

    parts = hh.map_batches(_partial, batch_format="pyarrow",
                           batch_size=None)
    sums = parts.groupby(key).aggregate(
        Sum("_w", alias_name="n_windows"),
        Sum("_x", alias_name="sum_x"),
        Sum("_y", alias_name="sum_y"),
        Sum("_xy", alias_name="sum_xy"),
        Sum("_xx", alias_name="sum_xx"),
    )

    def _slope(b: pa.Table) -> pa.Table:
        n = pc.cast(b.column("n_windows"), pa.int64())
        sx = pc.cast(b.column("sum_x"), pa.int64())
        sy = pc.cast(b.column("sum_y"), pa.int64())
        sxy = pc.cast(b.column("sum_xy"), pa.int64())
        sxx = pc.cast(b.column("sum_xx"), pa.int64())
        num = pc.subtract(pc.multiply(n, sxy), pc.multiply(sx, sy))
        den = pc.subtract(pc.multiply(n, sxx), pc.multiply(sx, sx))
        return pa.table({key: b.column(key), "n_windows": n,
                         "sum_x": sx, "sum_y": sy, "sum_xy": sxy,
                         "sum_xx": sxx, "slope_num": num,
                         "slope_den": den})

    return sums.map_batches(_slope, batch_format="pyarrow",
                            batch_size=None)


def cooccurrence_counts(ds, basket_cols, item_col: str):
    """Market-basket co-occurrence mining: for every unordered pair of
    DISTINCT items sharing a basket, the number of baskets containing
    both.  -> Dataset[(type_a, type_b, n)], type_a < type_b.

    Shape (one shuffle total, no Dataset.join):
    1. item vocabulary: per-block unique partials, driver merge —
       bounded by item cardinality (event types / SKUs; document the
       bound if items are high-cardinality and switch to a hash join).
    2. per-block LOCAL distinct of (basket..., code) rows (pyarrow C++
       group_by) — shrinks the exchange to near the distinct grain.
    3. ONE hash exchange on mix64(basket) into coarse groups sized from
       the row count: a basket never splits, so each coarse group holds
       whole baskets (dedup._coarse_grouped_pairs — never per-basket
       groups).
    4. per-group pairs from the one pair kernel
       (functions.pairs.run_pairs) keyed by the REAL basket columns
       (exactness never depends on the hash); cross-block duplicate
       (basket, item) rows collapse there.
    5. driver merge of the (a, b, n) partials — bounded by
       items^2 x coarse groups.
    """
    import ray
    import ray.data

    from .dedup import _coarse_grouped_pairs, _column, _keyed_pairs

    basket_cols = list(basket_cols)

    def _vocab_partial(b: pa.Table) -> pa.Table:
        u = pc.unique(b.column(item_col))
        return pa.table({item_col: u})

    _, vtbl = collect(ds.map_batches(_vocab_partial, batch_format="pyarrow",
                                     batch_size=None))
    vocab = sorted(set(_column(vtbl, item_col).tolist()))
    empty = pa.table({"type_a": pa.array([], pa.string()),
                      "type_b": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    if len(vocab) < 2:  # no pair of distinct items (or no rows at all)
        return ray.data.from_arrow(empty)
    code_of = {v: i for i, v in enumerate(vocab)}
    vocab_ref = ray.put(code_of)

    from ..functions.hashing import mix64

    def _local_distinct(b: pa.Table) -> pa.Table:
        cmap = ray.get(vocab_ref)
        items = b.column(item_col).to_pylist()
        codes = np.fromiter((cmap[v] for v in items), dtype=np.int64,
                            count=len(items))
        t = pa.table({**{c: b.column(c).cast(pa.int64())
                         for c in basket_cols},
                      "_code": pa.array(codes)})
        return t.group_by(basket_cols + ["_code"]).aggregate([])

    def _basket_key(t: pa.Table) -> np.ndarray:
        h = np.zeros(len(t), np.uint64)
        for c in basket_cols:
            col = t.column(c).to_numpy(zero_copy_only=False)
            h = mix64(h ^ col.astype(np.int64).view(np.uint64))
        return h

    rows = ds.map_batches(_local_distinct, batch_format="pyarrow",
                          batch_size=None).materialize()
    _, tbl = collect(_coarse_grouped_pairs(
        rows, _basket_key,
        lambda g: _keyed_pairs(g, basket_cols, id_col="_code")))
    if not len(tbl):
        return ray.data.from_arrow(empty)
    merged = tbl.group_by(["a", "b"]).aggregate([("n", "sum")])
    a = merged.column("a").to_numpy(zero_copy_only=False)
    b = merged.column("b").to_numpy(zero_copy_only=False)
    varr = np.asarray(vocab, dtype=object)
    out = pa.table({
        "type_a": pa.array(varr[a].astype(str)),
        "type_b": pa.array(varr[b].astype(str)),
        "n": merged.column("n_sum").cast(pa.int64()),
    })
    return ray.data.from_arrow(out)


def corr_numerators(ds, key: str, x_col: str, y_col: str):
    """Per-key Pearson correlation, integer-exact: emit the covariance
    numerator and the two variance denominators instead of the float r —
    r = corr_num / sqrt(var_x * var_y) with
    corr_num = n*Sum(xy) - Sum(x)*Sum(y),
    var_x = n*Sum(xx) - Sum(x)^2, var_y = n*Sum(yy) - Sum(y)^2.

    -> Dataset[(key, n, sum_x, sum_y, sum_xy, sum_xx, sum_yy,
    corr_num, var_x, var_y)].  All int64: callers pass integer-scaled
    columns (cents, counts).  int64 bound: n * max(x)^2 * ~1 must stay
    below 2^63 — at ~10^9 rows with 4-digit cents shift x/y toward
    their means (the trend_numerators min-shift pattern) or move to
    float; the bound is the documented trade for bit-exact oracles.

    Additive 6-sum partials per block (pyarrow C++ group_by), one keyed
    reduce — the shuffle moves |keys| rows per block.
    """

    def _partial(b: pa.Table) -> pa.Table:
        x = pc.cast(b.column(x_col), pa.int64())
        y = pc.cast(b.column(y_col), pa.int64())
        t = pa.table({
            key: b.column(key),
            "_n": pa.array(np.ones(len(b), np.int64)),
            "_x": x, "_y": y,
            "_xy": pc.multiply(x, y),
            "_xx": pc.multiply(x, x),
            "_yy": pc.multiply(y, y),
        })
        g = t.group_by(key).aggregate(
            [("_n", "sum"), ("_x", "sum"), ("_y", "sum"),
             ("_xy", "sum"), ("_xx", "sum"), ("_yy", "sum")])
        return g.rename_columns([key, "_n", "_x", "_y", "_xy", "_xx",
                                 "_yy"])

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           batch_size=None)
    sums = parts.groupby(key).aggregate(
        Sum("_n", alias_name="n"),
        Sum("_x", alias_name="sum_x"),
        Sum("_y", alias_name="sum_y"),
        Sum("_xy", alias_name="sum_xy"),
        Sum("_xx", alias_name="sum_xx"),
        Sum("_yy", alias_name="sum_yy"),
    )

    def _finish(b: pa.Table) -> pa.Table:
        n = pc.cast(b.column("n"), pa.int64())
        sx = pc.cast(b.column("sum_x"), pa.int64())
        sy = pc.cast(b.column("sum_y"), pa.int64())
        sxy = pc.cast(b.column("sum_xy"), pa.int64())
        sxx = pc.cast(b.column("sum_xx"), pa.int64())
        syy = pc.cast(b.column("sum_yy"), pa.int64())
        return pa.table({
            key: b.column(key), "n": n, "sum_x": sx, "sum_y": sy,
            "sum_xy": sxy, "sum_xx": sxx, "sum_yy": syy,
            "corr_num": pc.subtract(pc.multiply(n, sxy),
                                    pc.multiply(sx, sy)),
            "var_x": pc.subtract(pc.multiply(n, sxx),
                                 pc.multiply(sx, sx)),
            "var_y": pc.subtract(pc.multiply(n, syy),
                                 pc.multiply(sy, sy)),
        })

    return sums.map_batches(_finish, batch_format="pyarrow",
                            batch_size=None)
