"""Fill-forward (as-of) and running-total operators: carry per-key state
forward within each key's ordered stream — the streaming equivalents of
``last_value(... IGNORE NULLS) OVER (PARTITION BY key ORDER BY order
ROWS UNBOUNDED PRECEDING)`` and the analogous ``SUM OVER``.

Skew-safe two-pass shape (a hot key never occupies one task's heap):

1. ``sort((key, *order))`` + ``materialize()`` — the sort is the one
   all-to-all; materializing pins the block boundaries so both passes
   see IDENTICAL key-runs (blocks live in the object store and spill,
   they are not driver memory).
2. pass A (``map_batches``): per block emit one STATE row per key-run —
   (key, first order tuple, run summary: last non-null value / sum).
   O(keys per block) rows total.
3. seed computation: each run's SEED is derived from the SAME key's
   EARLIER runs (shift+ffill for fill-forward, exclusive prefix-sum for
   running totals).  Two tiers:

   * **broadcast** (while the state rows fit the driver budget,
     ``collect(ds, tiered=True)``): the driver orders the state rows
     and broadcasts one seed dict (``ray.put`` once) — O(#blocks +
     #keys) driver memory.
   * **distributed** (above the budget): state rows hash into coarse
     co-located groups by key (a key never splits), the per-run seeds
     come from VECTORIZED pandas groupby-shift/cumsum inside each
     coarse group (C kernels, never a per-key Python group), and the
     seeds reach the data through a hash-join on (key,
     run-first-order) — one extra exchange of the full dataset, the
     same trade the dedup edge-join makes.  Driver memory is O(1).

4. pass B (``map_batches``): in-block vectorized ffill/cumsum per
   key-run; the run's seed completes the prefix.  On the distributed
   tier the in-block part is computed BEFORE the join (it only needs
   block-local order), so the join output needs no re-sort — the seed
   applies row-wise.

Determinism: the order columns must be a total order per key (include a
unique tiebreaker column, e.g. event_id) — the same requirement the SQL
window needs to be deterministic.  Distributed-tier output row ORDER is
join-dependent (callers that need a presentation order sort the final,
small result).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .collect import collect

_SEED_GROUP_ROWS = 2_000_000


def _run_key(df: pd.DataFrame, key: str, order_cols) -> pd.DataFrame:
    """First order-tuple per key-run in this (sorted) block."""
    firsts = df.groupby(key, sort=False)[order_cols].first().reset_index()
    return firsts


def _rf_cols(order_cols) -> list[str]:
    return [f"_rf_{c}" for c in order_cols]


def _coarse_seeds(states_ds, key: str, order_cols, seed_fn):
    """State rows -> (key, *order_cols, _seed) rows, fully distributed.

    Coarse hash-grouping by key keeps every key's runs in ONE pandas
    frame where ``seed_fn`` computes all seeds with vectorized groupby
    kernels — the asof sibling of dedup's coarse candidate expansion."""
    import pyarrow as pa

    n = states_ds.count()
    n_groups = max(8, min(512, n // _SEED_GROUP_ROWS + 1))

    def _add_pkey(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(df[key].to_numpy(), categorize=False)
        return df.assign(_pkey=(h % np.uint64(n_groups)).astype("int64"))

    def _group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key] + order_cols, kind="mergesort")
        out = seed_fn(df)
        return out[[key] + order_cols + ["_seed"]]

    return (states_ds.map_batches(_add_pkey, batch_format="pandas",
                                  batch_size=None)
            .groupby("_pkey").map_groups(_group, batch_format="pandas"))


def _carry(ds, key: str, order_cols, value_col: str, out_col: str,
           state_fn, seed_fn, block_fn, finish_fn):
    """Shared two-pass carry driver for fill_forward / running_total.

    ``state_fn(df)`` -> per-run state rows (key, *order, summary col);
    ``seed_fn(states_sorted)`` -> states + ``_seed`` (vectorized);
    ``block_fn(df)`` -> df + in-block partial column(s);
    ``finish_fn(df, seeds)`` -> df + ``out_col`` from partials + seed.
    """
    import ray

    order_cols = list(order_cols)
    sorted_ds = ds.sort([key] + order_cols).materialize()
    # the tier is decided from block metadata, never by collecting first
    states_ds, tbl = collect(sorted_ds.map_batches(
        state_fn, batch_format="pandas", batch_size=None), tiered=True)
    if tbl is None:
        return _carry_join(sorted_ds, states_ds, key, order_cols,
                           out_col, seed_fn, block_fn, finish_fn)

    seed = {}
    if tbl.num_rows:  # no state rows (no input rows) leaves no seed
        states = tbl.to_pandas().sort_values([key] + order_cols,
                                             kind="mergesort")
        states = seed_fn(states)
        cols = [key] + order_cols
        seed = dict(zip(map(tuple, states[cols].to_numpy()), states["_seed"]))
    seed_ref = ray.put(seed)

    def _fill(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.assign(**{out_col: pd.Series([], dtype="float64")})
        lookup = ray.get(seed_ref)
        df = block_fn(df)
        firsts = _run_key(df, key, order_cols)
        run_seed = {k: lookup.get(tuple(row))
                    for k, row in zip(firsts[key],
                                      firsts[[key] + order_cols].to_numpy())}
        seeds = df[key].map(run_seed)
        return finish_fn(df, seeds)

    return sorted_ds.map_batches(_fill, batch_format="pandas",
                                 batch_size=None)


def _carry_join(sorted_ds, states_ds, key: str, order_cols, out_col: str,
                seed_fn, block_fn, finish_fn):
    """The O(1)-driver tier: stamp each row with its run's first order
    tuple, compute the in-block partial up front, hash-join the seeds
    on (key, run-first-order), apply row-wise."""
    from .join import hash_join

    rf = _rf_cols(order_cols)

    def _stamp(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return block_fn(df).assign(
                **{c: pd.Series([], dtype="int64") for c in rf})
        df = block_fn(df)
        g = df.groupby(key, sort=False)
        for c, r in zip(order_cols, rf):
            df[r] = g[c].transform("first")
        return df

    stamped = sorted_ds.map_batches(_stamp, batch_format="pandas",
                                    batch_size=None)
    seeds = _coarse_seeds(states_ds, key, order_cols, seed_fn)

    srf = ["_s" + c for c in rf]

    def _ren(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns=dict(zip(order_cols, srf))) \
                 .rename(columns={key: "_sk"})

    seeds = seeds.map_batches(_ren, batch_format="pandas", batch_size=None)
    joined = hash_join(stamped, seeds, on=tuple([key] + rf),
                       right_on=tuple(["_sk"] + srf))

    def _apply(df: pd.DataFrame) -> pd.DataFrame:
        out = finish_fn(df, df["_seed"])
        drop = [c for c in rf + srf + ["_sk", "_seed"] if c in out.columns]
        return out.drop(columns=drop)

    return joined.map_batches(_apply, batch_format="pandas", batch_size=None)


# --- fill-forward -----------------------------------------------------------

def fill_forward(ds, key: str, order_cols, value_col: str, out_col: str):
    """Dataset -> same rows + ``out_col`` = last non-null ``value_col``
    at or before each row in (key, order) order, as float64."""
    order_cols = list(order_cols)

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_last": pd.Series([], dtype="float64")})
        firsts = _run_key(df, key, order_cols)
        # last non-null value per key, vectorized: positional last row of
        # the non-null subset (a Python lambda agg here was measured at
        # ~10x the cost of every Arrow<->pandas conversion combined)
        nn = df[df[value_col].notna()].drop_duplicates(
            subset=[key], keep="last")
        firsts["_last"] = firsts[key].map(
            nn.set_index(key)[value_col]).astype("float64")
        return firsts

    def _seed(states: pd.DataFrame) -> pd.DataFrame:
        # seed = last non-null _last among the key's EARLIER runs —
        # groupby shift + ffill are pandas C kernels (no per-key Python)
        g = states.groupby(key, sort=False)
        states = states.assign(_seed=g["_last"].shift())
        states["_seed"] = states.groupby(key, sort=False)["_seed"].ffill()
        return states

    def _block(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_filled=df.groupby(key, sort=False)[value_col].ffill())

    def _finish(df: pd.DataFrame, seeds) -> pd.DataFrame:
        # float64 up front: an all-null block arrives as object dtype,
        # and fillna's implicit object downcast is deprecated in pandas
        out = df.assign(**{out_col: df["_filled"].astype("float64").fillna(
            pd.Series(np.asarray(seeds, dtype="float64"), index=df.index))})
        return out.drop(columns=["_filled"])

    return _carry(ds, key, order_cols, value_col, out_col,
                  _state, _seed, _block, _finish)


# --- running total ----------------------------------------------------------

def running_total(ds, key: str, order_cols, value_col: str, out_col: str):
    """Per-key running total in (key, order) order — ``SUM(value) OVER
    (PARTITION BY key ORDER BY order ROWS UNBOUNDED PRECEDING)``.

    Same skew-safe two-pass carry as :func:`fill_forward`, with an
    ADDITIVE seed: exclusive prefix-sum of the key's earlier run sums."""
    order_cols = list(order_cols)

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_sum": pd.Series([], dtype="float64")})
        firsts = _run_key(df, key, order_cols)
        sums = df.groupby(key, sort=False)[value_col].sum()
        firsts["_sum"] = firsts[key].map(sums)
        return firsts

    def _seed(states: pd.DataFrame) -> pd.DataFrame:
        g = states.groupby(key, sort=False)["_sum"]
        # exclusive prefix sum: cumsum - own run sum (C kernels)
        return states.assign(_seed=(g.cumsum() - states["_sum"]))

    def _block(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_cum=df.groupby(key, sort=False)[value_col].cumsum())

    def _finish(df: pd.DataFrame, seeds) -> pd.DataFrame:
        s = pd.Series(np.asarray(seeds, dtype="float64"),
                      index=df.index).fillna(0.0)
        return df.assign(**{out_col: df["_cum"] + s}).drop(columns=["_cum"])

    return _carry(ds, key, order_cols, value_col, out_col,
                  _state, _seed, _block, _finish)


def running_max(ds, key: str, order_cols, value_col: str, out_col: str):
    """Per-key running maximum in (key, order) order — ``MAX(value)
    OVER (PARTITION BY key ORDER BY order ROWS UNBOUNDED PRECEDING)``.

    The carry framework's NON-additive monoid instance (op = max,
    identity = -inf, realized as a NaN seed + ``np.fmax``): the seed is
    the exclusive prefix-MAX of the key's earlier run maxima, and —
    unlike lag — it applies to every row of the run (max is
    idempotent), so ``_finish`` is one vectorized ``fmax``."""
    order_cols = list(order_cols)

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_max": pd.Series([], dtype="float64")})
        firsts = _run_key(df, key, order_cols)
        maxes = df.groupby(key, sort=False)[value_col].max()
        firsts["_max"] = firsts[key].map(maxes).astype("float64")
        return firsts

    def _seed(states: pd.DataFrame) -> pd.DataFrame:
        # exclusive prefix max: inclusive cummax shifted within the key
        states = states.assign(
            _cm=states.groupby(key, sort=False)["_max"].cummax())
        return states.assign(
            _seed=states.groupby(key, sort=False)["_cm"].shift()
        ).drop(columns=["_cm"])

    def _block(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            _cum=df.groupby(key, sort=False)[value_col].cummax()
                   .astype("float64"))

    def _finish(df: pd.DataFrame, seeds) -> pd.DataFrame:
        s = pd.Series(np.asarray(seeds, dtype="float64"), index=df.index)
        out = np.fmax(df["_cum"].to_numpy(dtype="float64"), s.to_numpy())
        return df.assign(**{out_col: out}).drop(columns=["_cum"])

    return _carry(ds, key, order_cols, value_col, out_col,
                  _state, _seed, _block, _finish)


# --- lag / lead window functions --------------------------------------------

def lag(ds, key: str, order_cols, value_col: str, out_col: str):
    """``LAG(value) OVER (PARTITION BY key ORDER BY order)`` — each
    row's previous-row value within its key (null for the key's first
    row).  Values ride as float64 (ints above 2^53 would round).

    Same two-pass carry as fill_forward, but the seed is the previous
    RUN's last row value verbatim (no ffill — a legitimately null
    previous value stays null), and only each run's FIRST row takes the
    seed; later rows use the in-block vectorized shift."""
    order_cols = list(order_cols)

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_lastval": pd.Series([], dtype="float64")})
        firsts = _run_key(df, key, order_cols)
        # positional last row per key — groupby.last() would SKIP NaN,
        # but lag must carry a null previous value verbatim
        lastrows = df.drop_duplicates(subset=[key], keep="last")
        firsts["_lastval"] = firsts[key].map(
            lastrows.set_index(key)[value_col]).astype("float64")
        return firsts

    def _seed(states: pd.DataFrame) -> pd.DataFrame:
        # previous run's last value, verbatim (no ffill)
        g = states.groupby(key, sort=False)
        return states.assign(_seed=g["_lastval"].shift())

    def _block(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, sort=False)
        return df.assign(
            _lag=g[value_col].shift().astype("float64"),
            _first=~df[key].duplicated())

    def _finish(df: pd.DataFrame, seeds) -> pd.DataFrame:
        s = pd.Series(np.asarray(seeds, dtype="float64"), index=df.index)
        out = df.assign(**{out_col: df["_lag"].where(~df["_first"], s)})
        return out.drop(columns=["_lag", "_first"])

    return _carry(ds, key, order_cols, value_col, out_col,
                  _state, _seed, _block, _finish)


def lead(ds, key: str, order_cols, value_col: str, out_col: str):
    """``LEAD(value) OVER (PARTITION BY key ORDER BY order)`` — lag
    over the NEGATED (numeric) order columns; requires int/float order
    columns (true for the µs-timestamp + id orders this engine uses)."""
    order_cols = list(order_cols)
    neg = [f"_neg_{c}" for c in order_cols]

    def _negate(df: pd.DataFrame) -> pd.DataFrame:
        for c, nc in zip(order_cols, neg):
            df[nc] = -df[c]
        return df

    flipped = ds.map_batches(_negate, batch_format="pandas",
                             batch_size=None)
    out = lag(flipped, key, neg, value_col, out_col)

    def _drop(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop(columns=neg)

    return out.map_batches(_drop, batch_format="pandas", batch_size=None)


# --- rolling window aggregate (ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW) --

def rolling_sum(ds, key: str, order_cols, value_col: str, w: int,
                out_col: str):
    """``SUM(value) OVER (PARTITION BY key ORDER BY order ROWS BETWEEN
    w-1 PRECEDING AND CURRENT ROW)``.

    Same sorted-block two-pass shape as the carries, but the seed is a
    LIST: each key-run's state is its last min(w-1, len) values, the
    driver concatenates every earlier run's tail (keeping the last w-1
    — anything deeper can never reach a later run's window) and
    broadcasts per-run tails; pass B fixes only each run's first w-1
    rows with suffix sums of the tail.  Integer values stay exact (the
    pandas rolling float64 intermediate is exact below 2^53).

    Seed state is O(#runs x w); the distributed alternative is the
    same hash-join tier as `_carry_join` with the tail packed as a
    list column (not yet needed — w is small by definition)."""
    import ray

    order_cols = list(order_cols)
    sorted_ds = ds.sort([key] + order_cols).materialize()

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_tail": pd.Series([], dtype="object")})
        firsts = _run_key(df, key, order_cols)
        tails = df.groupby(key, sort=False)[value_col].agg(
            lambda s: s.to_numpy()[-(w - 1):].astype("float64").tolist()
            if w > 1 else [])
        firsts["_tail"] = firsts[key].map(tails)
        return firsts

    states = (sorted_ds.map_batches(_state, batch_format="pandas",
                                    batch_size=None)
              .to_pandas().sort_values([key] + order_cols, kind="mergesort"))
    seed: dict = {}
    cols = [key] + order_cols
    for k, grp in states.groupby(key, sort=False):
        acc = np.empty(0, dtype=np.float64)
        for row, tail in zip(grp[cols].to_numpy(), grp["_tail"]):
            seed[tuple(row)] = acc[len(acc) - min(len(acc), w - 1):].copy()
            acc = np.concatenate(
                [acc, np.asarray(tail, dtype=np.float64)])[-(max(w - 1, 1)):]
    seed_ref = ray.put(seed)

    def _fill(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.assign(**{out_col: pd.Series([], dtype="float64")})
        lookup = ray.get(seed_ref)
        g = df.groupby(key, sort=False)
        rs = g[value_col].rolling(w, min_periods=1).sum().to_numpy()
        pos = g.cumcount().to_numpy()
        firsts = _run_key(df, key, order_cols)
        out = rs.copy()
        if w > 1:
            for k, row in zip(firsts[key],
                              firsts[[key] + order_cols].to_numpy()):
                tail = lookup.get(tuple(row))
                if tail is None or len(tail) == 0:
                    continue
                # suffix sums: ss[j] = sum of the last j tail values
                ss = np.concatenate(([0.0], np.cumsum(tail[::-1])))
                mask = (df[key] == k).to_numpy()
                p = pos[mask]
                need = np.minimum(np.maximum(w - 1 - p, 0), len(tail))
                out[mask] = out[mask] + ss[need]
        return df.assign(**{out_col: out})

    return sorted_ds.map_batches(_fill, batch_format="pandas",
                                 batch_size=None)


# --- consecutive-duplicate suppression --------------------------------------

def consecutive_dedup(ds, key: str, order_cols, value_col: str):
    """Keep only rows that START a run of equal consecutive
    ``value_col`` values within each key's ordered stream — the syslog
    daemon's "last message repeated k times" suppression, as a dataflow
    operator.  Values may be any comparable dtype (strings included);
    the seed is the previous run's last value verbatim."""
    import ray

    order_cols = list(order_cols)
    sorted_ds = ds.sort([key] + order_cols).materialize()

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_lastval": pd.Series([], dtype="object")})
        firsts = _run_key(df, key, order_cols)
        lastrows = df.drop_duplicates(subset=[key], keep="last")
        firsts["_lastval"] = firsts[key].map(
            lastrows.set_index(key)[value_col])
        return firsts

    states = (sorted_ds.map_batches(_state, batch_format="pandas",
                                    batch_size=None)
              .to_pandas().sort_values([key] + order_cols, kind="mergesort"))
    states["_seed"] = states.groupby(key, sort=False)["_lastval"].shift()
    cols = [key] + order_cols
    seed = dict(zip(map(tuple, states[cols].to_numpy()), states["_seed"]))
    seed_ref = ray.put(seed)

    def _fill(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        lookup = ray.get(seed_ref)
        g = df.groupby(key, sort=False)
        prev = g[value_col].shift()
        first_mask = ~df[key].duplicated()
        firsts = _run_key(df, key, order_cols)
        run_seed = {k: lookup.get(tuple(row))
                    for k, row in zip(firsts[key],
                                      firsts[[key] + order_cols].to_numpy())}
        prev = prev.where(~first_mask, df[key].map(run_seed))
        keep = prev.isna() | (prev != df[value_col])
        return df[keep]

    return sorted_ds.map_batches(_fill, batch_format="pandas",
                                 batch_size=None)


def transitions(ds, key: str, order_cols, value_col: str,
                src_col: str = "src", dst_col: str = "dst"):
    """Consecutive-value transition pairs within each key's ordered
    stream: one output row (prev_value, value) per row whose
    predecessor exists — the edge extraction step for transition-graph
    analytics (``graph.pagerank``).  Values may be any dtype (strings
    included); block seams are healed with the same driver-seed carry
    as :func:`consecutive_dedup` (seed state is O(#block-runs), not
    O(rows))."""
    import ray

    order_cols = list(order_cols)
    sorted_ds = ds.sort([key] + order_cols).materialize()

    def _state(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series([], dtype=df[key].dtype),
                                 **{c: pd.Series([], dtype=df[c].dtype)
                                    for c in order_cols},
                                 "_lastval": pd.Series([], dtype="object")})
        firsts = _run_key(df, key, order_cols)
        lastrows = df.drop_duplicates(subset=[key], keep="last")
        firsts["_lastval"] = firsts[key].map(
            lastrows.set_index(key)[value_col])
        return firsts

    states = (sorted_ds.map_batches(_state, batch_format="pandas",
                                    batch_size=None)
              .to_pandas().sort_values([key] + order_cols, kind="mergesort"))
    states["_seed"] = states.groupby(key, sort=False)["_lastval"].shift()
    cols = [key] + order_cols
    seed = dict(zip(map(tuple, states[cols].to_numpy()), states["_seed"]))
    seed_ref = ray.put(seed)

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({src_col: pd.Series([], dtype="object"),
                                 dst_col: pd.Series([], dtype="object")})
        lookup = ray.get(seed_ref)
        g = df.groupby(key, sort=False)
        prev = g[value_col].shift()
        first_mask = ~df[key].duplicated()
        firsts = _run_key(df, key, order_cols)
        run_seed = {k: lookup.get(tuple(row))
                    for k, row in zip(firsts[key],
                                      firsts[[key] + order_cols].to_numpy())}
        prev = prev.where(~first_mask, df[key].map(run_seed))
        keep = prev.notna()
        return pd.DataFrame({src_col: prev[keep],
                             dst_col: df.loc[keep, value_col]})

    return sorted_ds.map_batches(_pairs, batch_format="pandas",
                                 batch_size=None)
