"""Corpus-curation stages: PII redaction, eval-set decontamination,
repetition quality signals, and dataset profiling.

These are the curation operators a large-scale training-data pipeline
runs between ingest and training (the reference crate has no dataflow
layer; the designs follow the published recipes — C4/Gopher-style
repetition rules, eval-set n-gram decontamination, regex PII scrubbing).

Scale notes
-----------
* Every per-doc operator here is a stateless ``map_batches`` transform:
  the gram machinery is the factorize + sliding-window + lexsort kernel
  (no Python loop over grams), string work happens once per DISTINCT
  gram per block.
* ``decontaminate`` flags corpus shingles with one ``semi_join``
  against the benchmark (eval-set) shingles, so it takes
  ``join.hash_join``'s tiers: the benchmark side is small by definition,
  so above the driver tier it is broadcast to the corpus blocks (no
  shuffle) unless it does not fit the driver budget either, when both
  sides are exchanged on the shingle key.
* All redaction/counting regexes are RE2-compatible so the DuckDB
  oracles (``regexp_replace`` / ``regexp_extract_all``, also RE2)
  recompute them exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --- PII redaction ---------------------------------------------------------

# RE2-safe (no lookaround); identical semantics in pyarrow and DuckDB.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"


def redact_pii_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Scrub emails then IPv4 literals from ``text_col``; emit the
    redacted text plus per-doc match counts.  Order matters (an email's
    host part could contain a dotted quad): emails are counted/replaced
    on the original text, IPs on the email-redacted text — the oracle
    mirrors the same two-step order."""
    t = batch.column(text_col)
    n_emails = pc.cast(pc.count_substring_regex(t, EMAIL_RE), pa.int64())
    r1 = pc.replace_substring_regex(t, EMAIL_RE, "<EMAIL>")
    n_ipv4 = pc.cast(pc.count_substring_regex(r1, IPV4_RE), pa.int64())
    r2 = pc.replace_substring_regex(r1, IPV4_RE, "<IP>")
    return (batch.append_column("n_emails", n_emails)
                 .append_column("n_ipv4", n_ipv4)
                 .append_column("redacted", r2))


# --- word-shingle pair extraction (shared by decontaminate) ----------------

def _shingle_pairs_batch(batch: pa.Table, k: int, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Distinct (doc_id, shingle) pairs per block, where a shingle is a
    space-joined window of ``k`` consecutive whitespace tokens.  Docs
    shorter than ``k`` tokens emit nothing (matches the SQL oracle's
    ``len(t) >= k`` guard).

    Vectorized: factorize tokens once per block, windows as code
    matrices, distinct pairs via lexsort run-compression; shingle
    STRINGS are built once per distinct gram (radix-pack decode when the
    per-block vocabulary allows, object-concat fallback otherwise)."""
    import pandas as pd

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "shingle": pa.array([], pa.string())})
    texts = batch.column(text_col).to_pylist()
    ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
        zero_copy_only=False)
    tok_lists = [(t or "").split() for t in texts]
    lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    all_toks = [w for tl in tok_lists for w in tl]
    if len(all_toks) < k:
        return empty
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    codes = codes.astype(np.int64)
    wins = np.lib.stride_tricks.sliding_window_view(codes, k)
    # window i starts at token i; it belongs to doc d iff it fits inside
    # d's token span — all computed without a per-doc Python loop
    doc_full = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    starts_full = np.repeat(np.concatenate(([0], np.cumsum(lens)))[:-1], lens)
    pos_in_doc = np.arange(len(codes), dtype=np.int64) - starts_full
    wdoc = doc_full[: len(wins)]
    valid = pos_in_doc[: len(wins)] + k <= lens[wdoc]
    wins = wins[valid]
    wdoc = wdoc[valid]
    if len(wins) == 0:
        return empty
    v = int(len(uniques))
    if v ** k < (1 << 62):
        key = wins[:, 0].copy()
        vv = np.int64(v)
        for j in range(1, k):
            key = key * vv + wins[:, j]
        order = np.lexsort((key, wdoc))
        kd, kk = wdoc[order], key[order]
        first = np.ones(len(kk), dtype=bool)
        first[1:] = (kd[1:] != kd[:-1]) | (kk[1:] != kk[:-1])
        kd, kk = kd[first], kk[first]
        # decode only the block-distinct keys to strings, then map
        uk = np.unique(kk)
        parts = []
        rem = uk
        for _ in range(k):
            parts.append(rem % vv)
            rem = rem // vv
        parts.reverse()
        grams = np.asarray([" ".join(uniques[p[i]] for p in parts)
                            for i in range(len(uk))], dtype=object)
        shingles = grams[np.searchsorted(uk, kk)]
    else:
        # vocabulary too large to radix-pack: join strings directly
        uarr = np.asarray(uniques, dtype=object)
        joined = uarr[wins[:, 0]]
        for j in range(1, k):
            joined = joined + " " + uarr[wins[:, j]]
        order = np.lexsort((joined, wdoc))
        kd, kj = wdoc[order], joined[order]
        first = np.ones(len(kj), dtype=bool)
        first[1:] = (kd[1:] != kd[:-1]) | (kj[1:] != kj[:-1])
        kd, shingles = kd[first], kj[first]
    return pa.table({id_col: pa.array(ids[kd], pa.int64()),
                     "shingle": pa.array(shingles, pa.string())})


def decontaminate(docs_ds, bench_ds, k: int = 8,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Eval-set n-gram decontamination: flag every corpus doc sharing at
    least one word ``k``-gram with the benchmark set.  Returns a Dataset
    of (doc_id, n_hit) where ``n_hit`` = number of DISTINCT doc shingles
    found in the benchmark — the doc set a curation pipeline would drop
    (or audit) before training.

    The flag is one :func:`~sylk.stages.join.semi_join` of the doc
    shingles against the benchmark shingles, in whichever tier their
    bytes pick: in the driver while both fit the driver budget, the
    benchmark broadcast to the doc blocks while it alone fits (eval sets
    are megabytes), both sides exchanged above it (all tiers produce
    identical output; see tests/test_curate.py).  An all-empty
    benchmark with no schema is typed as its shingle column."""
    from ray.data.aggregate import Count

    from .join import semi_join

    def _pairs(ds):
        return ds.map_batches(
            lambda b: _shingle_pairs_batch(b, k, text_col, id_col),
            batch_format="pyarrow", batch_size=None)

    hits = semi_join(_pairs(docs_ds), _pairs(bench_ds), on="shingle")
    out = hits.groupby(id_col).aggregate(Count(alias_name="n_hit"))
    return out


# --- repetition quality signals (Gopher-style) -----------------------------

def repetition_scores_batch(batch: pa.Table, text_col: str = "text",
                            id_col: str = "doc_id") -> pa.Table:
    """Per-doc duplicate word-2-gram statistics — the core signal behind
    the published repetition quality filters: total 2-grams, distinct
    2-grams, the modal 2-gram's count, and the duplicate fraction
    ``(n - distinct) / n``.  Docs with < 2 tokens emit zeros.

    Complete per block (a doc's grams never cross blocks), so this is a
    pure map — no shuffle at any scale."""
    import pandas as pd

    texts = batch.column(text_col).to_pylist()
    ids = pc.cast(batch.column(id_col), pa.int64())
    n_docs = len(texts)
    tok_lists = [(t or "").split() for t in texts]
    lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                       count=n_docs)
    n_g = np.maximum(lens - 1, 0)
    d_g = np.zeros(n_docs, dtype=np.int64)
    top = np.zeros(n_docs, dtype=np.int64)
    all_toks = [w for tl in tok_lists for w in tl]
    if len(all_toks) >= 2:
        codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
        codes = codes.astype(np.int64)
        wins = np.lib.stride_tricks.sliding_window_view(codes, 2)
        doc_full = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        starts_full = np.repeat(np.concatenate(([0],
                                                np.cumsum(lens)))[:-1], lens)
        pos_in_doc = np.arange(len(codes), dtype=np.int64) - starts_full
        wdoc = doc_full[: len(wins)]
        valid = pos_in_doc[: len(wins)] + 2 <= lens[wdoc]
        wdoc = wdoc[valid]
        key = wins[valid][:, 0] * np.int64(len(uniques)) + wins[valid][:, 1]
        if len(key):
            order = np.lexsort((key, wdoc))
            kd, kk = wdoc[order], key[order]
            # run starts over the sorted (doc, gram) stream
            first = np.ones(len(kk), dtype=bool)
            first[1:] = (kd[1:] != kd[:-1]) | (kk[1:] != kk[:-1])
            run_starts = np.flatnonzero(first)
            run_lens = np.diff(np.append(run_starts, len(kk)))
            run_doc = kd[run_starts]
            d_g += np.bincount(run_doc, minlength=n_docs)
            np.maximum.at(top, run_doc, run_lens)
    with np.errstate(invalid="ignore"):
        dup_frac = np.where(n_g > 0,
                            (n_g - d_g).astype(np.float64)
                            / np.maximum(n_g, 1).astype(np.float64), 0.0)
    return pa.table({
        "doc_id": ids,
        "n_2grams": pa.array(n_g, pa.int64()),
        "distinct_2grams": pa.array(d_g, pa.int64()),
        "top_2gram_count": pa.array(top, pa.int64()),
        "dup_2gram_frac": pa.array(dup_frac, pa.float64()),
    })


# --- dataset profiler ------------------------------------------------------

def _profile_partial(batch: pa.Table, columns) -> pa.Table:
    """Per-block profiler combiner: for each column, its block-distinct
    non-null values rendered to strings (Arrow ``cast`` — injective,
    vectorized) plus ONE stats row (val=NULL) carrying the block's null
    and row counts.  The exchange therefore moves distinct values, not
    rows."""
    cols_out, vals_out, stat_out, nn_out, nr_out = [], [], [], [], []
    n = batch.num_rows
    for c in columns:
        col = batch.column(c)
        vu = pc.unique(pc.drop_null(pc.cast(col, pa.string())))
        cols_out.append(pa.array([c] * len(vu), pa.string()))
        vals_out.append(vu)
        zero = pa.array(np.zeros(len(vu), dtype=np.int64), pa.int64())
        # stat=0 marks a distinct-value row; stat=1 the per-block stats
        # row (val="" there — the marker keeps the groupby keys non-null
        # and collision-free with a real empty-string value)
        stat_out.append(zero)
        nn_out.append(zero)
        nr_out.append(zero)
        cols_out.append(pa.array([c], pa.string()))
        vals_out.append(pa.array([""], pa.string()))
        stat_out.append(pa.array([1], pa.int64()))
        nn_out.append(pa.array([col.null_count], pa.int64()))
        nr_out.append(pa.array([n], pa.int64()))

    def _cat(parts):
        return pa.concat_arrays([p.combine_chunks() if
                                 isinstance(p, pa.ChunkedArray) else p
                                 for p in parts])

    return pa.table({"col": _cat(cols_out), "stat": _cat(stat_out),
                     "val": _cat(vals_out), "nn": _cat(nn_out),
                     "nr": _cat(nr_out)})


def profile_columns(ds, columns):
    """Column-level dataset profile: (column_name, n_rows, n_null,
    n_distinct) for every listed column, in ONE pass over the data and
    one shuffle of (col, distinct-value) pairs.

    n_distinct counts non-null values (SQL ``COUNT(DISTINCT col)``
    semantics); value rendering is Arrow's string cast, injective per
    column, so the distinct count over strings equals the distinct
    count over native values."""
    from ray.data.aggregate import Sum

    columns = list(columns)
    partials = ds.map_batches(lambda b: _profile_partial(b, columns),
                              batch_format="pyarrow", batch_size=None)
    # first shuffle: global distinct (col, val) pairs + merged stats rows
    pairs = partials.groupby(["col", "stat", "val"]).aggregate(
        Sum("nn", alias_name="nn"), Sum("nr", alias_name="nr"))

    def _indicator(b: pa.Table) -> pa.Table:
        isval = pc.cast(pc.equal(b.column("stat"), 0), pa.int64())
        return pa.table({"col": b.column("col"),
                         "nn": b.column("nn"), "nr": b.column("nr"),
                         "isval": isval})

    # second (tiny) shuffle: per-column rollup of the reduced pair set
    out = (pairs.map_batches(_indicator, batch_format="pyarrow")
                .groupby("col")
                .aggregate(Sum("nr", alias_name="n_rows"),
                           Sum("nn", alias_name="n_null"),
                           Sum("isval", alias_name="n_distinct")))
    return out
