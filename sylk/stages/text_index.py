"""Incremental inverted text index: document increments exploded to
term postings and appended to a term-hash-partitioned store, probed
with QUERY-TERM scan pruning — the text-search side of the ingest-store
family (dedup_store / upsert_store / ann_store), for the "search the
corpus as it arrives" workflow (quality forensics, contamination
lookups, ad-hoc corpus search) a training-data pipeline needs.

Store layout (the :mod:`store_fold` marker-gated contract)::

    store_dir/_index.json             # {n_buckets} metadata
    store_dir/term=<b>/inc<id>.parquet       # term, doc_id, tf, dl,
                                             #   positions (list<int64>)
    store_dir/term=<b>/compact<upto>.parquet # folded increments
    store_dir/term=<n_buckets>/...           # doc-length partition: one
                                             #   (doc_id, dl) row per doc
                                             #   (reserved bucket — term
                                             #   hashes are % n_buckets,
                                             #   so probes never open it)
    store_dir/_deletes/del<id>.parquet       # tombstoned doc_ids
    store_dir/_deletes/_done_del<id>.json    # delete marker + stats delta
    store_dir/_done_inc<id>.json      # marker + {n_docs, n_tokens}
    store_dir/_compact.json           # compaction watermark

Postings are DENORMALIZED — each (term, doc) row carries the doc's
token count ``dl`` — so a BM25 probe is self-contained: it never joins
back to a doc-length sidecar, it reads ONLY the query terms' hash
buckets (``probe_files`` is the testable pruning contract, the
ann_store pattern).  Corpus-level stats (N, total tokens — needed for
idf and avgdl) ride the completeness markers, so they are metadata
reads, not scans.  Term -> bucket routing uses the md5-derived
:func:`sample.content_hash64` — NEVER Python's per-process-randomized
``hash()`` (CLAUDE.md bucketing rule), so every worker and every later
increment agrees on the bucket of a term.

Scale shape: ingest is one postings explode (the vectorized
``term_tf_rows`` factorize kernel) + one partitioned write by bucket
per increment, in one of two tiers picked from the input's in-memory
size (``store_fold._DRIVER_INGEST_LIMIT``, 8 MiB): below it the driver
explodes the collected docs once and writes each bucket's slice of the
sorted postings; above it the explode runs per block and ONE hash
shuffle by bucket hands each bucket to a task that writes its file, so
no driver state scales with the data.  Probes (BM25, AND, phrase and
``index_delete``'s candidate lookup) have two tiers, picked from the
on-disk size of the read set plus the tombstone files alone
(``store_fold._DRIVER_READ_LIMIT``, 64 MiB of Parquet): below it the
driver reads the pruned files with pyarrow
(:func:`store_fold.driver_read`, tombstones already masked) and runs
the block kernels (``_df``, ``_contrib``, ``_hits``, ``_slots``) once
over the one table, so a probe starts no Ray read; above it the same
kernels run per block in a Ray Data plan, with one ``groupby(doc_id)``
over candidate docs only.  Either way the df reduce is bounded by
|query terms| and the answer is a Dataset.

Append-only contract: a doc_id is ingested by exactly ONE increment
(the dedup_ingest store is the upstream that guarantees novelty), so a
term's df is a plain row count and no cross-increment merge of a doc's
postings is ever needed.  Rerun idempotence, crash windows, read sets
(marker-complete increments only, shadowed leftovers never read) and
the compaction watermark are the shared :mod:`store_fold` contract.

Deletion (right-to-be-forgotten): :func:`index_delete` tombstones a
doc_id batch — it resolves the batch against the doc-length partition
(dropping never-ingested and already-deleted ids so stats deltas never
double-count), writes the id list + an exact (n_docs, n_tokens) delta,
and from that moment every probe masks the docs LOGICALLY (an
``is_in`` filter in the driver tier, an anti-join in the exchange
tier) and corrects
N/avgdl/df from the deltas.  :func:`compact_text_index` purges them
PHYSICALLY (the fold's ``reduce`` hook) — compaction is already the
moment every surviving row is rewritten, so the purge is free.
Tombstone files/deltas are retained after the purge (they keep the
marker-summed stats honest and re-masking purged ids is a no-op).  A
tombstoned doc_id is deleted FOREVER: re-ingesting it is a contract
violation (probes would mask its rows while ingest markers count it).

BM25 parity: idf and the per-term contribution reuse the exact IEEE op
order of :func:`text.bm25_scores` (ln((N-df+0.5)/(df+0.5)+1),
tf*(k1+1) / (tf + k1*((1-b) + (b*dl)/avgdl))), and a term repeated in
the query counts once per occurrence, as there; only the cross-term
sum order differs from the SQL left-fold, absorbed by the 6dp rounding
both sides (the BM25/ANN ln-ulp protocol)."""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .collect import collect
from .sample import content_hash64
from .store_fold import (atomic_json, check_as_of, complete_increments,
                         delete_files, driver_read, fold, inc_file, purge,
                         read_marker, read_set, typed_result,
                         write_increment, write_tombstones)


def _term_buckets(terms, n_buckets: int) -> np.ndarray:
    """Stable term -> bucket routing (md5 low bits, process-invariant)."""
    return (content_hash64(list(terms)) % np.uint64(n_buckets)) \
        .astype(np.int64)


def _load_meta(store_dir: str) -> dict:
    with open(os.path.join(store_dir, "_index.json")) as f:
        return json.load(f)


def index_ingest(docs_ds, store_dir: str, inc_id: int,
                 n_buckets: int = 32, text_col: str = "text",
                 id_col: str = "doc_id", positions: bool = True) -> pa.Table:
    """Ingest one document increment (``doc_id``, ``text``) through
    :func:`store_fold.write_increment`.  Eager (files + marker on disk
    on return); returns the per-bucket stats table (bucket, n_rows).

    ONE pass over the increment: the postings explode + one
    partitioned write by bucket (in the driver up to
    ``store_fold._DRIVER_INGEST_LIMIT`` bytes of docs, else one hash
    shuffle).  The marker's (n_docs, n_tokens) corpus stats —
    N counts EMPTY docs too, exactly like ``bm25_scores``'s oracle —
    are summed from the just-written doc-length partition file, not a
    second text scan.

    ``positions=False`` drops the per-posting position lists (~35%
    smaller postings files, measured at sf0.1 x32 — BM25 and AND
    probes are unaffected either way because they column-prune
    positions at the read; only :func:`index_phrase_docs` needs them,
    and it raises a clear error on a positions-less store).  The
    choice is persisted and enforced across increments, like
    ``n_buckets``."""
    os.makedirs(store_dir, exist_ok=True)
    mpath = os.path.join(store_dir, "_index.json")
    if os.path.exists(mpath):
        meta = _load_meta(store_dir)
        if int(meta["n_buckets"]) != n_buckets:
            raise ValueError(
                f"store was created with n_buckets={meta['n_buckets']},"
                f" got {n_buckets}: term routing would diverge between "
                "increments and probes would miss postings.")
        if bool(meta.get("positions", True)) != positions:
            raise ValueError(
                f"store was created with positions="
                f"{meta.get('positions', True)}, got {positions}: "
                "increments would disagree on the postings schema.")
    else:
        atomic_json(mpath, {"n_buckets": int(n_buckets),
                            "positions": bool(positions)})

    def _postings(batch: pa.Table) -> pa.Table:
        # doc-length rows for EVERY doc (empty ones too — they count in
        # N and must be resolvable by index_delete), routed to the
        # reserved bucket n_buckets that no term can hash to
        import pandas as pd

        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = batch.column(text_col).to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        lens = np.fromiter((len(tl) for tl in tok_lists),
                           dtype=np.int64, count=len(tok_lists))
        doclen = pa.table({
            "bucket": pa.array(np.full(len(ids), n_buckets, np.int64)),
            "term": pa.array([None] * len(ids), pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "tf": pa.array(np.zeros(len(ids), np.int64)),
            "dl": pa.array(lens, pa.int64()),
            "positions": pa.array([[]] * len(ids),
                                  pa.list_(pa.int64())),
            # source increment: constant per file (RLE ~free) but it
            # SURVIVES compaction folds, which file names don't —
            # index_delete splits its stats deltas by it so as_of
            # probes subtract only deletes of docs inside the horizon
            "_inc": pa.array(np.full(len(ids), inc_id, np.int64))})
        flat = [w for tl in tok_lists for w in tl]
        if not flat:
            return doclen.drop_columns(["positions"]) \
                if not positions else doclen
        # positional postings (the term_tf_rows factorize kernel plus a
        # per-(doc, term) position list for phrase queries): one stable
        # sort by (doc, term-code) groups each posting's token slots
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object))
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        offs = np.zeros(len(texts), dtype=np.int64)
        if len(texts) > 1:
            np.cumsum(lens[:-1], out=offs[1:])
        pos = np.arange(len(flat), dtype=np.int64) - offs[doc_idx]
        key = doc_idx * np.int64(len(uniques)) + codes
        order = np.argsort(key, kind="stable")
        uk, counts = np.unique(key, return_counts=True)
        list_offs = np.zeros(len(uk) + 1, dtype=np.int64)
        np.cumsum(counts, out=list_offs[1:])
        pos_lists = pa.ListArray.from_arrays(
            pa.array(list_offs, pa.int32()),
            pa.array(pos[order], pa.int64()))
        post_doc = ids[(uk // len(uniques))]
        terms_arr = uniques[uk % len(uniques)]
        post = pa.table({
            "bucket": pa.array(_term_buckets(terms_arr.tolist(),
                                             n_buckets)),
            "term": pa.array(terms_arr, pa.string()),
            "doc_id": pa.array(post_doc.astype(np.int64), pa.int64()),
            "tf": pa.array(counts.astype(np.int64), pa.int64()),
            "dl": pa.array(lens[(uk // len(uniques))], pa.int64()),
            "positions": pos_lists,
            "_inc": pa.array(np.full(len(uk), inc_id, np.int64))})
        out = pa.concat_tables([post, doclen])
        return out.drop_columns(["positions"]) if not positions else out

    def _corpus(stats: pa.Table) -> dict:
        # the increment's corpus stats, summed from its doc-length file
        # (absent for an empty increment): probes read metadata, never
        # a doc-length scan
        path = inc_file(store_dir, "term", n_buckets, inc_id)
        dl = (pq.read_table(path, columns=["dl"]).column("dl")
              if os.path.exists(path) else pa.array([], pa.int64()))
        return {"n_docs": len(dl), "n_tokens": int(pc.sum(dl).as_py() or 0)}

    return write_increment(docs_ds, store_dir, inc_id, "bucket", "term",
                           fn=_postings, reduce=lambda t: t.sort_by("term"),
                           info=_corpus)


def corpus_stats(store_dir: str,
                 as_of: int | None = None) -> tuple[int, int]:
    """(N docs, total tokens) across every marker-complete increment —
    markers survive compaction, so this is exact at any point.
    ``as_of`` restricts to increments <= that horizon."""
    n_docs = n_tokens = 0
    for inc in complete_increments(store_dir):
        if as_of is not None and inc > as_of:
            continue
        m = read_marker(store_dir, inc)
        n_docs += int(m["n_docs"])
        n_tokens += int(m["n_tokens"])
    return n_docs, n_tokens


def _doclen_files(store_dir: str) -> list[str]:
    n_buckets = int(_load_meta(store_dir)["n_buckets"])
    return read_set(store_dir,
                    [os.path.join(store_dir, f"term={n_buckets}")])


def deleted_stats(store_dir: str,
                  as_of: int | None = None) -> tuple[int, int]:
    """(docs, tokens) removed by marker-complete deletes — exact deltas
    computed at delete time, so probes never rescan.  With ``as_of``,
    only the deltas of docs whose SOURCE increment is <= the horizon
    count (the marker's ``by_inc`` breakdown): a tombstoned doc
    ingested after the horizon was never in that snapshot."""
    n_docs = n_tokens = 0
    for f in glob.glob(os.path.join(store_dir, "_deletes",
                                    "_done_del*.json")):
        with open(f) as fh:
            m = json.load(fh)
        if as_of is None:
            n_docs += int(m["n_docs"])
            n_tokens += int(m["n_tokens"])
        else:
            for inc, (nd, nt) in m["by_inc"].items():
                if int(inc) <= as_of:
                    n_docs += int(nd)
                    n_tokens += int(nt)
    return n_docs, n_tokens


def index_delete(store_dir: str, doc_ids, del_id: int) -> dict:
    """Tombstone a batch of doc_ids (right-to-be-forgotten).  Resolves
    the batch against the doc-length partition — never-ingested ids and
    already-tombstoned ids are dropped, so the (n_docs, n_tokens) stats
    delta can never double-count no matter how often an id is
    submitted.  Logical effect is immediate (probes mask the tombstones
    and correct N/avgdl/df from the deltas); the physical purge rides
    the next :func:`compact_text_index`.

    Idempotence: deterministic ``del<id>.parquet`` name written tmp ->
    rename, marker LAST; a crash-recovery rerun recomputes the same
    delta because prior-delete resolution excludes ``del_id`` itself
    and the doc-length rows it resolves against still exist — the
    purge can never have consumed an UNMARKED tombstone
    (:func:`compact_text_index` folds marker-complete deletes only),
    so the rerun window always sees them.
    The resolved id list is collected on the driver — bounded by the
    delete-batch size, which the CALLER controls (split a mass purge
    into several del_ids); below the store's driver read limit the
    doc-length partition is resolved in the driver too
    (:func:`store_fold.driver_read`).  Single-writer, like the other
    stores."""
    import ray
    import ray.data

    ids = None
    if not isinstance(doc_ids, ray.data.Dataset):
        ids = pa.array(sorted(set(int(i) for i in doc_ids)), pa.int64())
    dl_files = _doclen_files(store_dir)
    cols = ["doc_id", "dl", "_inc"]
    eff = pa.table({c: pa.array([], pa.int64()) for c in cols})
    dl = driver_read(store_dir, dl_files, cols, "doc_id",
                     exclude=del_id) if dl_files else None
    if dl is not None:
        if ids is None:
            _, t = collect(doc_ids.select_columns(["doc_id"]))
            ids = (t.column("doc_id").combine_chunks().cast(pa.int64())
                   if t.num_columns else pa.array([], pa.int64()))
        eff = dl.filter(pc.is_in(dl.column("doc_id"), value_set=ids))
    elif dl_files:
        from .join import anti_join, semi_join

        if ids is not None:
            doc_ids = ray.data.from_arrow(pa.table({"doc_id": ids}))
        cand = semi_join(ray.data.read_parquet(dl_files, columns=cols),
                         doc_ids, on="doc_id")
        prior = delete_files(store_dir, exclude=del_id)
        if prior:
            cand = anti_join(cand,
                             ray.data.read_parquet(prior,
                                                   columns=["doc_id"]),
                             on="doc_id")
        _, kept = collect(cand)
        if len(kept):
            eff = kept
    n_docs = eff.num_rows
    n_tokens = int(pc.sum(eff.column("dl")).as_py() or 0)
    # per-source-increment delta breakdown: as_of probes subtract only
    # the deletes of docs INSIDE their horizon (deleted_stats)
    by_inc = {}
    if n_docs:
        grouped = (eff.select(["_inc", "dl"]).append_column(
            "n", pa.array(np.ones(n_docs, np.int64)))
            .group_by("_inc").aggregate([("n", "sum"), ("dl", "sum")]))
        by_inc = {str(int(i)): [int(n), int(d)] for i, n, d in zip(
            grouped.column("_inc").to_pylist(),
            grouped.column("n_sum").to_pylist(),
            grouped.column("dl_sum").to_pylist())}
    write_tombstones(store_dir, del_id,
                     eff.select(["doc_id"]).sort_by("doc_id"),
                     {"n_docs": n_docs, "n_tokens": n_tokens,
                      "by_inc": by_inc})
    return {"requested": doc_ids.count() if ids is None else len(ids),
            "deleted": n_docs, "tokens": n_tokens}


def probe_files(store_dir: str, terms,
                as_of: int | None = None) -> list[str]:
    """A query's read set (:func:`store_fold.read_set`) over the query
    terms' hash buckets ONLY (factored out so the pruning contract is
    directly testable, the ann_store pattern)."""
    n_buckets = int(_load_meta(store_dir)["n_buckets"])
    return read_set(store_dir, [
        os.path.join(store_dir, f"term={b}")
        for b in sorted(set(_term_buckets(list(terms), n_buckets).tolist()))],
        as_of=as_of)


def _pruned_postings(store_dir: str, terms, columns,
                     as_of: int | None = None):
    """Shared probe front end: pruned read of the query terms' buckets
    (inc files cut at ``as_of``), is_in term filter, tombstone mask
    (ALL tombstones, regardless of as_of — a forgotten doc is not
    resurrectable by time travel).  Returns a driver ``pa.Table`` when
    the read set is under the store's driver read limit
    (:func:`store_fold.driver_read`), else a Dataset; None when nothing
    can match."""
    import ray.data

    check_as_of(store_dir, as_of)
    files = probe_files(store_dir, terms, as_of=as_of)
    if not files:
        return None
    term_arr = pa.array(sorted(set(terms)), pa.string())

    def _keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("term"), value_set=term_arr))

    tbl = driver_read(store_dir, files, columns, "doc_id")
    if tbl is not None:
        return _keep(tbl)
    postings = ray.data.read_parquet(files, columns=columns).map_batches(
        _keep, batch_format="pyarrow", batch_size=None)
    del_files = delete_files(store_dir)
    if del_files:
        # logical delete mask: tombstoned docs leave df, scores and the
        # candidate set immediately (broadcast/hash-tiered anti-join);
        # physically purged ids make this a no-op, which is fine
        from .join import anti_join

        postings = anti_join(
            postings,
            ray.data.read_parquet(del_files, columns=["doc_id"]),
            on="doc_id")
    return postings


def _df(t: pa.Table) -> pa.Table:
    """Per-term posting counts of one block: under the append-only
    contract a (term, doc) posting is one row store-wide, so summed
    over blocks this is df."""
    g = t.group_by("term").aggregate([("doc_id", "count")])
    return pa.table({"term": g.column("term"),
                     "df": g.column("doc_id_count")})


def _contrib(t: pa.Table, term_arr: pa.Array, idf: np.ndarray,
             mult: np.ndarray, k1: float, b: float,
             avgdl: float) -> pa.Table:
    """One block's per-doc BM25 partial sums: each posting row scores
    ``mult * idf * tf-part`` of its query term (``mult`` = the term's
    multiplicity in the query, which text.bm25_scores sums once per
    occurrence), combined per doc inside the block."""
    i = pc.index_in(t.column("term"), value_set=term_arr) \
        .to_numpy(zero_copy_only=False)
    tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    dl = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
    # the exact per-term expression of text.bm25_scores._score
    denom_base = k1 * ((1.0 - b) + (b * dl) / avgdl)
    part = mult[i] * (idf[i] * ((tf * (k1 + 1)) / (tf + denom_base)))
    # block-local combine (aggregate.py shape): the exchange tier's
    # shuffle carries one row per (block, doc), not per posting
    doc = t.column("doc_id").to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(doc, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(acc, inv, part)
    return pa.table({"doc_id": pa.array(uniq.astype(np.int64), pa.int64()),
                     "part": pa.array(acc, pa.float64())})


def _bm25(t: pa.Table, round_to: int | None) -> pa.Table:
    s = t.column("part").to_numpy(zero_copy_only=False)
    if round_to is not None:
        s = np.round(s, round_to)
    return pa.table({"doc_id": t.column("doc_id"),
                     "bm25": pa.array(s, pa.float64())})


def _hits(t: pa.Table) -> pa.Table:
    """One block's per-doc posting counts (the _contrib combine)."""
    doc = t.column("doc_id").to_numpy(zero_copy_only=False)
    uniq, counts = np.unique(doc, return_counts=True)
    return pa.table({"doc_id": pa.array(uniq.astype(np.int64), pa.int64()),
                     "hits": pa.array(counts.astype(np.int64))})


def _slots(t: pa.Table, phrase: list) -> pa.Table:
    """One block's phrase start candidates: slot ``i`` emits
    (doc_id, p = pos - i) for every position of term_i."""
    docs_out, p_out = [], []
    # an emptied exchange block may carry no columns at all
    for i, ti in enumerate(phrase if t.num_rows else []):
        sub = t.filter(pc.equal(t.column("term"), ti))
        if sub.num_rows == 0:
            continue
        plist = sub.column("positions").combine_chunks()
        flat = pc.list_flatten(plist).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(plist) \
            .to_numpy(zero_copy_only=False)
        doc = sub.column("doc_id").to_numpy(zero_copy_only=False)
        docs_out.append(doc[parent])
        p_out.append(flat - i)
    if not docs_out:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "p": pa.array([], pa.int64())})
    return pa.table({
        "doc_id": pa.array(np.concatenate(docs_out).astype(np.int64),
                           pa.int64()),
        "p": pa.array(np.concatenate(p_out), pa.int64())})


def index_query_bm25(store_dir: str, terms, k1: float = 1.2,
                     b: float = 0.75, round_to: int | None = 6,
                     k: int | None = None, as_of: int | None = None):
    """Okapi BM25 over the accumulated store for a bag-of-words query:
    open ONLY the query terms' buckets, df-reduce the pruned postings
    (bounded by |terms|), score per posting row and sum per doc.  A
    term repeated in the query counts once per occurrence, as in
    :func:`text.bm25_scores`.  Returns Dataset[(doc_id, bm25)] over
    docs containing >= 1 query term (zero-tf terms contribute exactly
    0.0, so absent docs are exactly the score-0 ones); ``k`` adds a
    descending top-k cut (ties broken by doc_id asc).

    ``as_of`` = snapshot read at an ingest horizon: only increments <=
    as_of are scanned and N/avgdl/df come from that horizon's markers
    (refused below the compaction watermark — folded snapshots no
    longer exist).  Tombstones still apply in full: right-to-be-
    forgotten wins over time travel, and the per-increment deltas the
    delete markers carry keep the stats exact (a tombstoned doc
    ingested AFTER the horizon subtracts nothing)."""
    import ray
    import ray.data

    terms = list(terms)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "bm25": pa.array([], pa.float64())})
    n_docs, n_tokens = corpus_stats(store_dir, as_of=as_of)
    n_del, tok_del = deleted_stats(store_dir, as_of=as_of)
    n_docs, n_tokens = n_docs - n_del, n_tokens - tok_del
    postings = _pruned_postings(store_dir, terms,
                                ["term", "doc_id", "tf", "dl"],
                                as_of=as_of)
    if postings is None or n_docs <= 0:
        return ray.data.from_arrow(empty)
    driver = isinstance(postings, pa.Table)
    if driver:
        parts = _df(postings)
    else:
        _, parts = collect(postings.map_batches(_df, batch_format="pyarrow",
                                                batch_size=None))
        if not len(parts):  # no query term occurs anywhere in the store
            return ray.data.from_arrow(empty)
    merged = parts.group_by("term").aggregate([("df", "sum")])
    dfs = dict(zip(merged.column("term").to_pylist(),
                   merged.column("df_sum").to_pylist()))
    qterms = sorted(set(terms))
    kw = {"term_arr": pa.array(qterms, pa.string()),
          "idf": np.array([math.log(((n_docs - dfs.get(t, 0)) + 0.5)
                                    / (dfs.get(t, 0) + 0.5) + 1.0)
                           for t in qterms], dtype=np.float64),
          "mult": np.array([terms.count(t) for t in qterms],
                           dtype=np.float64),
          "k1": k1, "b": b, "avgdl": float(n_tokens) / float(n_docs)}

    if driver:
        out = _bm25(_contrib(postings, **kw), round_to)
        if k is not None:
            out = out.sort_by([("bm25", "descending"),
                               ("doc_id", "ascending")]).slice(0, k)
        return ray.data.from_arrow(out)

    from ray.data.aggregate import Sum

    out = (postings
           .map_batches(_contrib, fn_kwargs=kw, batch_format="pyarrow",
                        batch_size=None)
           .groupby("doc_id")
           .aggregate(Sum("part", alias_name="part"))
           .map_batches(_bm25, fn_kwargs={"round_to": round_to},
                        batch_format="pyarrow", batch_size=None))
    if k is not None:
        out = out.sort(["bm25", "doc_id"],
                       descending=[True, False]).limit(k)
    return typed_result(out, empty)


def index_match_docs(store_dir: str, terms, as_of: int | None = None):
    """Boolean AND retrieval over the store: doc_ids containing EVERY
    query term.  Same pruned read as the BM25 probe (only the query
    terms' buckets open, tombstones masked, same ``as_of`` snapshot
    semantics); a doc qualifies when its distinct-term posting count
    equals |terms| — postings are unique per (term, doc) in a read set
    (append-only contract; shadowed crash leftovers are never read), so
    a per-doc row count after the term filter is the distinct-term
    count.  Returns Dataset[(doc_id,)]."""
    import ray.data

    terms = sorted(set(terms))
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    postings = _pruned_postings(store_dir, terms, ["term", "doc_id"],
                                as_of=as_of)
    if postings is None:
        return ray.data.from_arrow(empty)
    need = len(terms)

    def _all_terms(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("hits"),
                                 need)).select(["doc_id"])

    if isinstance(postings, pa.Table):
        return ray.data.from_arrow(_all_terms(_hits(postings)))

    from ray.data.aggregate import Sum

    return typed_result(
        postings.map_batches(_hits, batch_format="pyarrow", batch_size=None)
        .groupby("doc_id")
        .aggregate(Sum("hits", alias_name="hits"))
        .map_batches(_all_terms, batch_format="pyarrow", batch_size=None),
        empty)


def index_phrase_docs(store_dir: str, phrase, as_of: int | None = None):
    """Exact phrase retrieval over the store: doc_ids containing the
    consecutive token sequence ``phrase``.  Positional postings make
    this pruned like every other probe (only the phrase terms' buckets
    open, tombstones masked, same ``as_of`` snapshot semantics).

    Vectorized slot-shift shape — no per-doc Python verification: slot
    ``i`` explodes term_i's position lists (Arrow ``list_flatten`` +
    ``list_parent_indices``) and emits (doc_id, p = pos - i); a phrase
    instance starting at p contributes one row from EVERY slot, so a
    (doc, p) group with exactly |phrase| rows is a hit (positions are
    unique per (term, doc), so no slot can double-emit — repeated
    phrase words are separate slots and still count once each; a
    (doc, p) short of slot 0 can never reach |phrase| rows, so
    negative/stale starts die in the HAVING).  The exchange tier's
    volume is the phrase terms' total position count —
    term-frequency-bounded, like the BM25 probe.  Returns
    Dataset[(doc_id,)]."""
    import ray.data
    from ray.data.aggregate import Count

    phrase = list(phrase)
    k = len(phrase)
    if not _load_meta(store_dir).get("positions", True):
        raise ValueError(
            "this store was ingested with positions=False (35% smaller "
            "postings); phrase retrieval needs position lists — rebuild "
            "the store with positions=True.")
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    postings = _pruned_postings(store_dir, set(phrase),
                                ["term", "doc_id", "positions"],
                                as_of=as_of)
    if postings is None or k == 0:
        return ray.data.from_arrow(empty)

    def _starts(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t.column("n"), k))
                .select(["doc_id"]))

    if isinstance(postings, pa.Table):
        g = (_slots(postings, phrase).group_by(["doc_id", "p"])
             .aggregate([([], "count_all")]))
        starts = pa.table({"doc_id": g.column("doc_id"),
                           "n": g.column("count_all")})
        hit = pc.unique(_starts(starts).column("doc_id")).sort()
        return ray.data.from_arrow(pa.table({"doc_id": hit}))

    # distinct doc_ids (a doc may hold several phrase instances)
    return typed_result(
        postings.map_batches(_slots, fn_kwargs={"phrase": phrase},
                             batch_format="pyarrow", batch_size=None)
        .groupby(["doc_id", "p"])
        .aggregate(Count(alias_name="n"))
        .map_batches(_starts, batch_format="pyarrow", batch_size=None)
        .groupby("doc_id")
        .aggregate(Count(alias_name="_c"))
        .map_batches(lambda t: t.select(["doc_id"]),
                     batch_format="pyarrow", batch_size=None),
        empty)


def compact_text_index(store_dir: str) -> dict:
    """Bound the per-bucket file count — :func:`store_fold.fold` over
    the ``term=`` dirs (the doc-length partition folds with them),
    purging tombstoned doc_ids from every rewritten file: the PHYSICAL
    right-to-be-forgotten purge, free because compaction rewrites every
    surviving row anyway.  Tombstone files + deltas are retained: the
    ingest markers still count the deleted docs, so the deltas must
    keep correcting probe-time stats forever."""
    return fold(store_dir, "term=*", reduce=purge(store_dir, "doc_id"))
