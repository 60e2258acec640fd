"""Deduplication operators over the ``documents`` table.

Five families, each expressed Ray-Data-first:

* exact: content-hash -> hash-partitioned groupby, keep lowest doc_id.
* MinHash + LSH: shingle -> minhash signature -> banded bucket groupby ->
  candidate pairs -> exact-Jaccard verification.
* SimHash: 64-bit signatures -> chunk-banded buckets -> Hamming verify.
* n-gram Jaccard: exact similarity on candidate pairs.
* embedding cosine: multi-band random-hyperplane LSH (OR-amplified)
  -> cosine verify.

Shared machinery and partitioning assumptions (documented per
north-rule):

* Candidate generation shuffles only (doc_id, band, band_hash) triples —
  tiny vs the corpus.  While the triples fit the driver budget the
  driver runs the pair kernel (``functions.pairs.run_pairs``) over the
  collected triples; above it the buckets go through a hash-partitioned
  ``groupby`` into coarse groups, each expanded by the same kernel (the
  corpus-scale path — triples are the ONLY payload shuffled).
* Every candidate generator returns a Dataset of distinct int64
  (a, b) rows in both tiers (the exchange tier collapses a pair found
  in several groups in one hash aggregate).  Pair verification
  (:func:`_verify_pairs`) attaches the source values (text / vector
  sketch) to each pair with two ``join.hash_join`` calls, source on
  the left, a-side then b-side: while the pairs fit the budget they
  are each join's broadcast side and the corpus never moves.

Every tiered operator here picks its tier from input size alone: the
bytes of its materialized input against the one driver budget
(``collect(ds, tiered=True)``, ``collect.fits``).  Tests reach the
exchange tier by lowering that budget.

All hashing is explicit (blake2b / seeded numpy / splitmix64), never
Python ``hash`` (PYTHONHASHSEED varies across Ray workers).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.pairs import run_pairs
from .collect import collect, to_dataset

_N_PERM = 64
_BANDS = 16  # 16 bands x 4 rows


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


# splitmix64 finalizer — a cheap uniform permutation family (the
# minhash estimate only needs per-seed pseudo-random orderings); shared
# constants live in functions.hashing
from ..functions.vectors import list_column_matrix
from ..functions.hashing import mix64 as _mix64  # noqa: E402


# --- shingle hashing (vectorized) ------------------------------------------

# Per-worker token-hash cache: corpora repeat tokens heavily, so blake2b
# runs once per DISTINCT token per worker; shingle combination is then
# pure numpy.  Bounded: cleared wholesale at the cap (simple, rare).
_TOKEN_CACHE: dict[str, int] = {}
_TOKEN_CACHE_MAX = 1 << 22

_SHINGLE_BASE = np.uint64(0x9E3779B97F4A7C15)  # odd => bijective per position


def _token_hashes(toks: list[str]) -> np.ndarray:
    cache = _TOKEN_CACHE
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            if len(cache) >= _TOKEN_CACHE_MAX:
                cache.clear()
            h = cache[t] = _hash64(t.encode("utf-8"))
        out[i] = h
    return out


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Word k-gram shingle -> unique uint64 hash array (deterministic).

    Vectorized: one blake2b per distinct token (cached), then a rolling
    positional-polynomial combine over token hashes + splitmix64 finish
    (same pattern as :func:`winnow_fingerprints`).  Texts shorter than k
    tokens produce one whole-text shingle."""
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = _token_hashes(toks)
    kk = min(k, len(th))
    with np.errstate(over="ignore"):
        powers = _SHINGLE_BASE ** np.arange(kk - 1, -1, -1, dtype=np.uint64)
        wins = np.lib.stride_tricks.sliding_window_view(th, kk)
        combined = (wins * powers).sum(axis=1, dtype=np.uint64)
    return np.unique(_mix64(combined))


_PERM_SEEDS = np.random.default_rng(42).integers(
    0, np.iinfo(np.uint64).max, size=_N_PERM, dtype=np.uint64
)


def minhash_signature(text: str) -> np.ndarray:
    """64-permutation minhash signature (uint64[64]) — per-doc reference
    implementation; the hot path is :func:`minhash_signatures` (batched,
    differential-tested against this)."""
    hs = _shingle_hashes(text)
    if len(hs) == 0:
        return np.zeros(_N_PERM, dtype=np.uint64)
    return _mix64(hs[None, :] ^ _PERM_SEEDS[:, None]).min(axis=1)


def _shingle_hash_segments(texts: list, k: int = 3,
                           whole_doc_short: bool = True):
    """Block-batched shingle hashing: concatenated (non-unique) shingle
    hashes for every doc + int64 segment offsets (len n_docs+1).

    Duplicates are NOT removed — the minhash min is invariant under
    duplicates, and skipping the per-doc ``np.unique`` keeps this one
    pass fully batched.  Tokens are hashed once per DISTINCT token in
    the block (pandas factorize + blake2b over the vocabulary), window
    combination is a single positional-polynomial pass over the
    concatenated token-hash array with document boundaries masked out.

    ``whole_doc_short=True`` (the minhash/Jaccard convention here) maps
    a doc with 0 < tokens < k to ONE whole-doc shingle; ``False`` maps
    it to zero shingles — the strict sliding-window count
    (len-k+1), which is what positional gram census oracles expect.
    """
    n = len(texts)
    tok_lists = [(t or "").split() for t in texts]
    lens = np.zeros(n, dtype=np.int64)
    for i, tl in enumerate(tok_lists):
        lens[i] = len(tl)
    all_toks = [w for tl in tok_lists for w in tl]
    if not all_toks:
        return np.empty(0, dtype=np.uint64), np.zeros(n + 1, dtype=np.int64)
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    uh = np.fromiter(
        (_hash64(u.encode("utf-8")) for u in uniques),
        dtype=np.uint64, count=len(uniques),
    )
    th = uh[codes]
    doc_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=doc_start[1:])

    # one shingle count per doc: lens-k+1 full-k windows, or one
    # whole-doc shingle when 0 < lens < k (zero when short and
    # whole_doc_short is off), or zero when empty
    short_sh = 1 if whole_doc_short else 0
    n_sh = np.where(lens >= k, lens - k + 1,
                    np.where(lens > 0, short_sh, 0))
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_sh, out=offs[1:])
    out = np.empty(offs[-1], dtype=np.uint64)

    with np.errstate(over="ignore"):
        if len(th) >= k:
            powers = _SHINGLE_BASE ** np.arange(k - 1, -1, -1, dtype=np.uint64)
            conv = th[: len(th) - k + 1] * powers[0]
            for j in range(1, k):
                conv = conv + th[j : len(th) - k + 1 + j] * powers[j]
            # valid window starts: inside one doc (start..start+lens-k)
            valid = np.zeros(len(conv), dtype=bool)
            for d in np.flatnonzero(lens >= k):
                valid[doc_start[d] : doc_start[d] + lens[d] - k + 1] = True
            full = _mix64(conv[valid])
        else:
            full = np.empty(0, dtype=np.uint64)
        # scatter: docs with lens>=k take runs of `full` in order; short
        # docs get their single whole-doc shingle
        fpos = 0
        for d in range(n):
            if lens[d] >= k:
                cnt = lens[d] - k + 1
                out[offs[d] : offs[d + 1]] = full[fpos : fpos + cnt]
                fpos += cnt
            elif lens[d] > 0 and whole_doc_short:
                kk = int(lens[d])
                pw = _SHINGLE_BASE ** np.arange(kk - 1, -1, -1, dtype=np.uint64)
                acc = (th[doc_start[d] : doc_start[d] + kk] * pw).sum(
                    dtype=np.uint64
                )
                out[offs[d]] = _mix64(np.array([acc], dtype=np.uint64))[0]
    return out, offs


def minhash_signatures(texts: list) -> np.ndarray:
    """Batched signatures: (n_docs, _N_PERM).

    Shingle hashing and the permutation-min both run block-batched (see
    :func:`_shingle_hash_segments`); the mix+min pass is chunked so the
    (n_perm, n_shingles) intermediate stays cache-resident — measured
    ~3x the per-doc kernel on the sf corpus.  Docs with no shingles
    keep the all-zeros signature (same as :func:`minhash_signature`)."""
    n = len(texts)
    sigs = np.zeros((n, _N_PERM), dtype=np.uint64)
    if n == 0:
        return sigs
    cat, offs = _shingle_hash_segments(texts)
    if len(cat) == 0:
        return sigs
    seg_len = np.diff(offs)
    chunk_shingles = 2048  # (64, 2048) uint64 = 1 MiB: L2-resident
    start = 0
    while start < n:
        end = start
        tot = 0
        while end < n and (tot == 0 or tot + seg_len[end] <= chunk_shingles):
            tot += seg_len[end]
            end += 1
        nonempty = np.flatnonzero(seg_len[start:end]) + start
        if len(nonempty):
            lo, hi = offs[start], offs[end]
            mixed = _mix64(cat[None, lo:hi] ^ _PERM_SEEDS[:, None])
            sub_offs = (offs[nonempty] - lo).astype(np.int64)
            sigs[nonempty] = np.minimum.reduceat(mixed, sub_offs, axis=1).T
        start = end
    return sigs


_BAND_SALT = np.uint64(0xD6E8FEB86659FD93)


def _band_hashes(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_perm) signatures -> (n_docs, n_bands) band hashes.
    Positional polynomial over each band's rows, band index salted in so
    equal chunks in different bands never collide, splitmix64 finish —
    all numpy, no per-chunk digests."""
    n, width = sigs.shape
    rows = width // n_bands
    chunks = sigs.reshape(n, n_bands, rows)
    with np.errstate(over="ignore"):
        powers = _SHINGLE_BASE ** np.arange(rows, dtype=np.uint64)
        mixed = (chunks * powers).sum(axis=2, dtype=np.uint64)
        salt = np.arange(n_bands, dtype=np.uint64) * _BAND_SALT
        return _mix64(mixed ^ salt[None, :])


def minhash_bands_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Explode each doc into (doc_id, band, band_hash) rows — the ONLY
    payload that enters the LSH shuffle."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    sigs = minhash_signatures(texts)
    bh = _band_hashes(sigs, _BANDS)
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, _BANDS), pa.int64()),
            "band": pa.array(np.tile(np.arange(_BANDS, dtype=np.int32), len(texts))),
            "band_hash": pa.array(bh.reshape(-1)),
        }
    )


@functools.lru_cache(maxsize=65536)
def _shingle_hashes_cached(text: str, k: int) -> np.ndarray:
    """Per-worker memo for pair verification: a doc in c candidate
    pairs is shingled once, not c times (read-only use downstream).
    Measured: ngram_jaccard_prefix at sf0.1 went 91s -> seconds."""
    return _shingle_hashes(text, k)


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    ha = _shingle_hashes_cached(text_a, k)
    hb = _shingle_hashes_cached(text_b, k)
    if len(ha) == 0 and len(hb) == 0:
        return 1.0
    inter = np.intersect1d(ha, hb, assume_unique=True).size
    union = len(ha) + len(hb) - inter
    return inter / union if union else 0.0


# --- candidate generation ---------------------------------------------------

def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                         "b": pd.Series([], dtype="int64")})


def _column(tbl: pa.Table, name: str) -> np.ndarray:
    """One column as numpy; the column-less table ``collect`` returns
    for 0 rows reads as an empty int64 column, so the pair paths give
    their typed empty without a branch."""
    if tbl.num_columns == 0:
        return np.empty(0, np.int64)
    return tbl.column(name).to_numpy(zero_copy_only=False)


def _keyed_pairs(tbl: pa.Table, keys, weight: str | None = None,
                 id_col: str = "doc_id") -> pd.DataFrame:
    """:func:`~sylk.functions.pairs.run_pairs` over a table's columns:
    (a, b, n), or (a, b, dot) with ``weight``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    a, b, v = run_pairs([_column(tbl, k) for k in keys], _column(tbl, id_col),
                        None if weight is None else _column(tbl, weight))
    return pd.DataFrame({"a": a, "b": b, "n" if weight is None else "dot": v})


_COARSE_GROUP_ROWS = 2_000_000


def _coarse_group_count(n: int) -> int:
    """Coarse hash groups for ``n`` exchanged rows: ~2M rows a group.
    The cap bounds the shuffle's partition count; beyond it per-group
    rows grow linearly with the corpus (a group is held in one worker
    heap — at 2M rows a group the cap supports ~8x10^9 rows)."""
    return max(32, min(4096, n // _COARSE_GROUP_ROWS + 1))


def _coarse_grouped_pairs(rows_ds, key_fn, pairs_fn):
    """Distributed candidate expansion WITHOUT per-bucket pandas groups:
    hash each row's bucket key into ~rows/2M coarse partitions (a bucket
    never splits — co-location by hash), then run the vectorized pair
    kernel (:func:`_keyed_pairs`) over each whole partition.  One
    pandas/pyarrow call per coarse group instead of one per bucket — the
    difference between minutes and seconds on template-heavy corpora.

    ``rows_ds`` must be materialized (count() is then metadata-cheap);
    ``key_fn(table) -> uint64[n]`` computes the bucket key per row;
    ``pairs_fn(table) -> DataFrame`` expands one coarse group, and its
    column dtypes are kept (int64 ids, a float ``dot``).  The many small
    group outputs are compacted to ``n_groups // 16`` blocks: the next
    step is a keyed exchange, whose fixed cost scales with blocks x
    partitions.  Cross-group duplicate pairs (same pair via different
    bands) remain; the caller's aggregate collapses them."""
    n_groups = _coarse_group_count(rows_ds.count())

    def _add_pkey(b: pa.Table) -> pa.Table:
        key = key_fn(b)
        pkey = (_mix64(key) % np.uint64(n_groups)).astype(np.int64)
        return b.append_column("pkey", pa.array(pkey, pa.int64()))

    def _group_pairs(g: pa.Table) -> pa.Table:
        df = pairs_fn(g)
        return pa.table({c: df[c].to_numpy() for c in df.columns})

    keyed = rows_ds.map_batches(_add_pkey, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True)
    return keyed.groupby("pkey").map_groups(
        _group_pairs, batch_format="pyarrow").repartition(
            max(2, n_groups // 16))


def _candidate_pairs(triples_ds):
    """(doc_id, band, band_hash) Dataset -> Dataset of distinct (a, b)
    candidate pairs: the pair kernel over the collected triples while
    they fit the driver budget, else over coarse hash-co-located groups,
    whose cross-group duplicates (a pair colliding in several bands)
    collapse in one hash aggregate."""
    from .join import _distinct_rows

    def _pairs(t: pa.Table) -> pd.DataFrame:
        return _keyed_pairs(t, ["band", "band_hash"])[["a", "b"]]

    triples_ds, tbl = collect(triples_ds, tiered=True)
    if tbl is not None:
        return to_dataset(pa.Table.from_pandas(_pairs(tbl),
                                               preserve_index=False))

    def _bucket_key(b: pa.Table) -> np.ndarray:
        band = b.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
        bh = b.column("band_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        return (band << np.uint64(48)) ^ bh

    return _distinct_rows(
        _coarse_grouped_pairs(triples_ds, _bucket_key, _pairs), ["a", "b"])


# --- pair verification ------------------------------------------------------

def _no_verified_pairs(out_col: str):
    return to_dataset(pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
        out_col: pa.array([], pa.float64())}))


def _verify_pairs(pairs_ds, source_ds, id_col: str, val_col: str,
                  pair_fn: Callable, out_col: str):
    """The one pair verifier: ``pairs_ds`` holds distinct (a, b) rows;
    the source is joined twice with :func:`join.hash_join`, source on
    the left, on ``a`` and then on ``b``, so both payloads land on the
    SAME row, and one map calls ``pair_fn(va, vb)`` per pair (a pair
    with a member missing from the source is dropped by the inner
    joins).  While the pairs fit the driver budget they are the
    broadcast side of each join and the corpus never moves; while
    everything fits, both joins run in the driver and keep the larger
    side's block count, so the map stays parallel.  No per-pair pandas
    group ever materializes."""
    from .join import hash_join

    # materialize FIRST — candidate-sized — so a zero-candidate corpus
    # skips both joins with a typed empty
    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() == 0:
        return _no_verified_pairs(out_col)
    src = source_ds.select_columns([id_col, val_col]).materialize()
    # (id=a, val=va, b) on the first join; the second join's right
    # columns of the same names come out as <name>_r
    j = hash_join(src, hash_join(src, pairs_ds, on=id_col, right_on="a"),
                  on=id_col, right_on="b")

    def _verify_batch(t: pa.Table) -> pa.Table:
        oa, ob, ov = [], [], []
        for x, y, va, vb in zip(t.column(f"{id_col}_r").to_pylist(),
                                t.column(id_col).to_pylist(),
                                t.column(f"{val_col}_r").to_pylist(),
                                t.column(val_col).to_pylist()):
            r = pair_fn(va, vb)
            if r is not None:
                oa.append(x)
                ob.append(y)
                ov.append(r)
        return pa.table({"a": pa.array(oa, pa.int64()),
                         "b": pa.array(ob, pa.int64()),
                         out_col: pa.array(ov, pa.float64())})

    return j.map_batches(_verify_batch, batch_format="pyarrow")


# --- MinHash-LSH near-dup ---------------------------------------------------

def minhash_dup_pairs(docs_ds, threshold: float = 0.8, text_col: str = "text"):
    """MinHash-LSH near-duplicate pairs, Jaccard-verified.

    Returns Dataset[(a, b, jaccard)] with a < b, jaccard >= threshold.
    Above the driver budget in band triples the groupby candidate
    path and the edge-join verification run (the corpus-scale shape)."""
    bands = docs_ds.map_batches(
        lambda b: minhash_bands_batch(b, text_col), batch_format="pyarrow",
        batch_size=None,
    )
    cand = _candidate_pairs(bands)

    def _jac(ta, tb):
        j = ngram_jaccard(ta or "", tb or "")
        return j if j >= threshold else None

    return _verify_pairs(cand, docs_ds, "doc_id", text_col, _jac, "jaccard")


# --- exact n-gram Jaccard (inverted shingle index) --------------------------

def ngram_shingle_rows(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id", k: int = 3) -> pa.Table:
    """Explode each doc into (doc_id, sh, n_sh) rows: DISTINCT shingle
    hashes plus the doc's distinct-shingle count carried on every row
    (constant per doc), so pair assembly needs no second sizes join.

    Built on :func:`_shingle_hash_segments` (block-batched) with a
    vectorized per-segment unique (lexsort + neighbor-diff).  Docs with
    no tokens emit nothing — the inverted index can never pair them,
    matching the oracle semantics."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    cat, offs = _shingle_hash_segments(texts, k)
    if len(cat) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "sh": pa.array([], pa.uint64()),
                         "n_sh": pa.array([], pa.int64())})
    seg = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(offs))
    order = np.lexsort((cat, seg))
    seg_s, cat_s = seg[order], cat[order]
    keep = np.ones(len(cat_s), dtype=bool)
    keep[1:] = (seg_s[1:] != seg_s[:-1]) | (cat_s[1:] != cat_s[:-1])
    seg_u, cat_u = seg_s[keep], cat_s[keep]
    counts = np.bincount(seg_u, minlength=len(texts))
    return pa.table({
        "doc_id": pa.array(ids[seg_u].astype(np.int64), pa.int64()),
        "sh": pa.array(cat_u, pa.uint64()),
        "n_sh": pa.array(counts[seg_u].astype(np.int64), pa.int64()),
    })


def _gram_census_driver(tbl: pa.Table) -> pa.Table:
    """Driver-tier census over collected (doc_id, g, cnt) gram rows:
    per-g row count IS the document frequency (rows are distinct per
    doc-gram), one bincount each for the per-doc totals and the df>=2
    positional sum.  Output sorted by doc_id (np.unique order)."""
    if tbl.num_columns == 0 or tbl.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_grams": pa.array([], pa.int64()),
                         "n_dup_grams": pa.array([], pa.int64())})
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    g = tbl.column("g").to_numpy(zero_copy_only=False)
    cnt = tbl.column("cnt").to_numpy(zero_copy_only=False)
    udoc, dinv = np.unique(doc, return_inverse=True)
    n_grams = np.bincount(dinv, weights=cnt).astype(np.int64)
    _, ginv, gc = np.unique(g, return_inverse=True, return_counts=True)
    dup_cnt = np.where(gc[ginv] >= 2, cnt, 0)
    n_dup = np.bincount(dinv, weights=dup_cnt).astype(np.int64)
    return pa.table({"doc_id": pa.array(udoc, pa.int64()),
                     "n_grams": pa.array(n_grams, pa.int64()),
                     "n_dup_grams": pa.array(n_dup, pa.int64())})


def positional_gram_count_rows(batch: pa.Table, text_col: str = "text",
                               id_col: str = "doc_id",
                               k: int = 8) -> pa.Table:
    """Explode each doc into (doc_id, g, cnt) rows: ``g`` = word k-gram
    hash (bit-reinterpreted to int64 — uint64 > 2^63 overflows in Ray's
    shuffle rebuild), ``cnt`` = how many POSITIONS in the doc start that
    gram (within-doc repeats are counted, unlike the distinct-set
    :func:`ngram_shingle_rows`).  Docs with fewer than k tokens emit
    nothing (``whole_doc_short=False``) — the strict sliding-window
    semantics the SQL oracle's generate_series(1, len-k+1) produces."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    cat, offs = _shingle_hash_segments(texts, k, whole_doc_short=False)
    if len(cat) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "g": pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64())})
    seg = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(offs))
    order = np.lexsort((cat, seg))
    seg_s, cat_s = seg[order], cat[order]
    starts = np.ones(len(cat_s), dtype=bool)
    starts[1:] = (seg_s[1:] != seg_s[:-1]) | (cat_s[1:] != cat_s[:-1])
    idx = np.flatnonzero(starts)
    run_len = np.diff(np.append(idx, len(cat_s)))
    return pa.table({
        "doc_id": pa.array(ids[seg_s[idx]].astype(np.int64), pa.int64()),
        "g": pa.array(cat_s[idx].view(np.int64), pa.int64()),
        "cnt": pa.array(run_len.astype(np.int64), pa.int64()),
    })


def dup_ngram_spans(docs_ds, k: int = 8, text_col: str = "text",
                    id_col: str = "doc_id"):
    """Cross-document duplicated k-gram span census — the exact-substring
    dedup signal of Lee et al. 2022 ("Deduplicating Training Data Makes
    Language Models Better"): for every doc with >= k tokens, how many
    of its token positions start a word k-gram that ALSO occurs in at
    least one other document.

    Returns Dataset[(doc_id, n_grams, n_dup_grams)] with n_grams =
    tokens-k+1 (the position count) and n_dup_grams = positions whose
    gram's document frequency >= 2; n_dup_grams/n_grams is the doc's
    duplicated-span fraction, the usual removal/score signal.

    Tiers: while the gram rows (24 B each) fit the driver budget (a
    bounded DECISION via collect) the census is one numpy pass on the
    driver; above it the distributed plan runs three keyed exchanges,
    all on compact rows: (1) the per-(doc, gram) combiner partials (<=
    tokens rows/doc) into a grouped doc-frequency count, (2) a semi-join
    of the gram rows against the df>=2 gram set (auto broadcast tier
    when the dup-gram set is driver-small, hash join otherwise), (3) ONE
    per-doc sum over the union of dup counts and totals (join-free:
    totals cover every doc, so no outer join is needed).  No step
    materializes pairs or full texts; the totals side is a separate
    cheap Arrow-kernel scan (count_substring_regex) rather than a second
    gram explode, and the auto tier's over-budget fall-through reuses
    the already-materialized gram rows.
    """
    from functools import partial

    from .join import grouped_agg, semi_join

    rows = docs_ds.map_batches(
        partial(positional_gram_count_rows, text_col=text_col,
                id_col=id_col, k=k),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)

    # bounded driver tier: gram rows are 24 B each, so small corpora
    # census in one numpy pass instead of paying three keyed exchanges
    # of fixed shuffle cost; the tier DECISION materializes rows into
    # the object store first, so an over-budget fall-through reuses
    # those blocks (no re-explode) for the distributed path.
    rows, tbl = collect(rows, tiered=True)
    if tbl is not None:
        return to_dataset(_gram_census_driver(tbl))

    # gram document-frequency (rows are distinct per (doc, gram), so
    # count-per-gram == doc frequency); two-phase so only per-block
    # distinct grams shuffle; semi_join materializes the dup-gram set
    # (DISTINCT duplicated grams, 8 B keys) once for both its tiers.
    df = grouped_agg(rows.select_columns(["g"]), ["g"], [], count_name="df")

    # filter and project in one map: select_columns after the aggregate
    # leaves its 0-row blocks unprojected, a second schema downstream
    def _dup_g(b: pa.Table) -> pa.Table:
        if not b.num_columns:  # empty groupbys emit schemaless blocks
            return b
        return b.filter(pc.greater_equal(b.column("df"), 2)).select(["g"])

    dup_grams = df.map_batches(_dup_g, batch_format="pyarrow",
                               batch_size=None)

    # shuffle fixed cost scales with blocks x partitions: the semi-join
    # survivors and the union below are tiny rows spread over every
    # input block — compact them to a block count that scales with the
    # input's read granularity before the keyed aggregates (the
    # measured 16s -> 2.6s repartition pattern).
    try:
        n_in = docs_ds.num_blocks() or 64
    except Exception:
        n_in = 64
    nparts = max(4, n_in // 8)

    dup_rows = semi_join(rows, dup_grams, on="g")
    dup_counts = grouped_agg(
        dup_rows.select_columns(["doc_id", "cnt"]).repartition(nparts),
        ["doc_id"], ["cnt"], count_name="_nr")

    # merge with the per-doc totals by UNION + sum rather than an outer
    # join: every doc appears on the totals side, so no join is needed.
    def _as_dup(b: pa.Table):
        if b.num_columns:  # empty groupbys emit schemaless blocks
            zero = pa.array(np.zeros(b.num_rows, np.int64), pa.int64())
            yield pa.table({"doc_id": b.column("doc_id"),
                            "n_grams": zero,
                            "n_dup_grams": b.column("cnt")})

    dup_counts = dup_counts.map_batches(_as_dup, batch_format="pyarrow",
                                        batch_size=None)

    def _totals(b: pa.Table) -> pa.Table:
        nt = pc.count_substring_regex(b.column(text_col), r"\S+")
        ng = pc.max_element_wise(
            pc.subtract(pc.cast(nt, pa.int64()), pa.scalar(k - 1, pa.int64())),
            pa.scalar(0, pa.int64()))
        t = pa.table({"doc_id": pc.cast(b.column(id_col), pa.int64()),
                      "n_grams": ng,
                      "n_dup_grams": pa.array(
                          np.zeros(len(ng), np.int64), pa.int64())})
        return t.filter(pc.greater(t.column("n_grams"), 0))

    totals = docs_ds.map_batches(_totals, batch_format="pyarrow",
                                 batch_size=None, zero_copy_batch=True)

    from ray.data.aggregate import Sum

    out = (totals.union(dup_counts).repartition(nparts)
           .groupby("doc_id").aggregate(
               Sum("n_grams", alias_name="n_grams"),
               Sum("n_dup_grams", alias_name="n_dup_grams")))
    return out.sort("doc_id")


def _pair_score_jaccard(c, na, nb):
    """|A∩B| / |A∪B| — symmetric set similarity (numpy-vectorizable)."""
    return c / (na + nb - c)


def _pair_score_containment(c, na, nb):
    """|A∩B| / min(|A|, |B|) — max-containment: near-SUBSET detection
    (a short doc quoted whole inside a long one scores 1.0 here but low
    Jaccard)."""
    return c / np.minimum(na, nb)


def ngram_jaccard_dup_pairs(docs_ds, threshold: float = 0.6, k: int = 3,
                            text_col: str = "text",
                            score=_pair_score_jaccard,
                            out_col: str = "jaccard"):
    """EXACT all-pairs n-gram Jaccard near-dup pairs via an inverted
    shingle index — the textbook set-similarity join: only docs sharing
    at least one shingle ever pair, so no candidate can be missed (unlike
    the banded MinHash estimate).

    Returns Dataset[(a, b, jaccard)] with a < b, jaccard >= threshold.

    Scale shape: the shuffle payload is (doc_id, shingle_hash64, n_sh)
    triples (24 B/row, ~|tokens| rows/doc); shared-shingle counting is a
    groupby(sh) pair emission + groupby(a, b) count — the same exchange
    DuckDB's plan does for the oracle SQL.  Skew note: a shingle present
    in m docs emits m(m-1)/2 pairs; natural-language 3-gram buckets are
    heavy-tailed but bounded (stopword 3-grams repeat within, not
    across, docs after the per-doc distinct); the 100-TB mitigation is
    prefix filtering — implemented as
    :func:`ngram_jaccard_dup_pairs_prefix`, which produces the
    identical exact answer with a prefix-only index.

    Jaccard over 64-bit shingle hashes equals Jaccard over the shingle
    strings unless blake2b+splitmix64 collide (P ~ n_shingles^2 / 2^64;
    ~1e-10 at sf0.1) — the oracle gate would catch a collision."""
    from ray.data.aggregate import Max, Sum

    rows = docs_ds.map_batches(
        lambda b: ngram_shingle_rows(b, text_col, k=k),
        batch_format="pyarrow", batch_size=None,
    )
    def _shared(t: pa.Table) -> pd.DataFrame:
        # shared-shingle counts for the table's buckets (partial in a
        # coarse group, whole in the driver tier), with each member's
        # distinct-shingle size looked up vectorized (constant per doc,
        # carried on every index row)
        df = _keyed_pairs(t, "sh").rename(columns={"n": "shared"})
        uids, first = np.unique(_column(t, "doc_id"), return_index=True)
        sizes = _column(t, "n_sh")[first]
        df["na"] = sizes[np.searchsorted(uids, df["a"].to_numpy())]
        df["nb"] = sizes[np.searchsorted(uids, df["b"].to_numpy())]
        return df

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 out_col: pd.Series([], dtype="float64")})
        sc = score(df["shared"].to_numpy(dtype="float64"),
                   df["na"].to_numpy(dtype="float64"),
                   df["nb"].to_numpy(dtype="float64"))
        out = pd.DataFrame({"a": df["a"].astype("int64"),
                            "b": df["b"].astype("int64"), out_col: sc})
        return out[out[out_col] >= threshold]

    rows, tbl = collect(rows, tiered=True)
    if tbl is not None:
        return to_dataset(pa.Table.from_pandas(_finish(_shared(tbl)),
                                               preserve_index=False))

    def _sh_key(b: pa.Table) -> np.ndarray:
        return b.column("sh").to_numpy(zero_copy_only=False).astype(np.uint64)

    pairs = _coarse_grouped_pairs(rows, _sh_key, _shared)
    agg = pairs.groupby(["a", "b"]).aggregate(
        Sum("shared", alias_name="shared"),
        Max("na", alias_name="na"), Max("nb", alias_name="nb"),
    )
    return agg.map_batches(_finish, batch_format="pandas", batch_size=None)


def ngram_prefix_rows(batch: pa.Table, text_col: str = "text",
                      k: int = 3, threshold: float = 0.6) -> pa.Table:
    """PPJoin prefix filter: per doc, keep only the
    p = n - ceil(t*n) + 1 smallest shingle hashes (hash value = the
    global total order).  Theorem (prefix filtering): two sets with
    Jaccard >= t MUST share at least one prefix element under any
    agreed total order, so candidate generation over prefixes alone has
    full recall — the index shrinks by the factor t/(1+t)-ish while the
    answer stays exact after verification."""
    import math

    t = ngram_shingle_rows(batch, text_col, k=k)
    if len(t) == 0:
        return t
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    sh = t.column("sh").to_numpy(zero_copy_only=False)
    n_sh = t.column("n_sh").to_numpy(zero_copy_only=False)
    order = np.lexsort((sh, ids))
    ids_s = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids_s[1:] != ids_s[:-1])))
    run_id = np.cumsum(np.concatenate(([0], (ids_s[1:] != ids_s[:-1])
                                       .astype(np.int64))))
    rank = np.arange(len(ids_s)) - starts[run_id]
    n_run = n_sh[order]
    p = n_run - np.ceil(threshold * n_run).astype(np.int64) + 1
    keep = order[rank < p]
    return t.take(pa.array(np.sort(keep)))


def ngram_containment_pairs(docs_ds, threshold: float = 0.75, k: int = 3,
                            text_col: str = "text"):
    """Asymmetric near-SUBSET detection: max-containment
    C(a,b) = |A∩B| / min(|A|,|B|) over distinct k-gram shingles — the
    dedup lens Jaccard misses (a short doc quoted verbatim inside a
    long one has low Jaccard but containment 1.0; standard in web-
    corpus curation for quote/boilerplate inclusion).  Same inverted-
    index exchange as :func:`ngram_jaccard_dup_pairs` — only the final
    vectorized score differs."""
    return ngram_jaccard_dup_pairs(docs_ds, threshold, k, text_col,
                                   score=_pair_score_containment,
                                   out_col="containment")


def sorted_neighborhood_pairs(docs_ds, window: int = 2, key_chars: int = 30,
                              threshold: float = 0.6, k: int = 3,
                              text_col: str = "text"):
    """Sorted-neighborhood (SNM) blocking dedup — the SORT-based
    blocking paradigm next to the hash (exact/normalized) and
    LSH/inverted-index families: rank every doc by a domain sort key
    (its first ``key_chars`` characters, doc_id tiebreak), take as
    candidates exactly the pairs within ``window`` ranks of each other,
    and verify exact k-gram Jaccard.

    Scale shape: ONE global range-partitioned sort (the exchange
    ``Dataset.sort`` already does) + a candidate set that is ≤
    window x n rows by construction — linear and skew-FREE regardless
    of key distribution (a hot prefix just occupies a contiguous rank
    range; it never explodes a bucket the way a hot shingle does).
    Recall depends on the sort key placing near-dups adjacently — the
    standard SNM trade (documented; prefix-edited dups need the
    multi-key extension).

    Candidate generation without a self-join: each rank-r doc emits
    band rows (j = r + i, i) for i in 0..window; within a j-group the
    i = 0 member (rank j) pairs with every other member (ranks
    j-window..j-1).  A pair (r1 < r2) forms ONLY in group j = r2, so
    pairs are unique by construction — no cross-group dedup pass."""
    from .asof import running_total

    def _prep(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "sk": pc.utf8_slice_codeunits(b.column(text_col), 0, key_chars),
            "g": pa.array(np.zeros(n, np.int64)),
            "one": pa.array(np.ones(n, np.int64)),
        })

    slim = docs_ds.map_batches(_prep, batch_format="pyarrow",
                               batch_size=None)
    ranked = running_total(slim, "g", ["sk", "doc_id"], "one", "r")

    def _band(df: pd.DataFrame) -> pa.Table:
        r = df["r"].to_numpy(dtype=np.int64)
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        j = np.concatenate([r + i for i in range(window + 1)])
        ii = np.repeat(np.arange(window + 1, dtype=np.int64), len(r))
        dd = np.tile(ids, window + 1)
        return pa.table({"j": pa.array(j, pa.int64()),
                         "i": pa.array(ii, pa.int64()),
                         "doc_id": pa.array(dd, pa.int64())})

    rows = ranked.map_batches(_band, batch_format="pandas",
                              batch_size=None)

    def _pairs(t: pa.Table) -> pd.DataFrame:
        j, i, d = (_column(t, c) for c in ("j", "i", "doc_id"))
        order = np.lexsort((i, j))
        j_s, i_s, d_s = j[order], i[order], d[order]
        start_mask = np.ones(len(j_s), dtype=bool)
        start_mask[1:] = j_s[1:] != j_s[:-1]
        run_id = np.cumsum(start_mask) - 1
        starts = np.flatnonzero(start_mask)
        head_ok = i_s[starts] == 0          # group has its rank-j member
        heads = d_s[starts]
        tail = ~start_mask & head_ok[run_id]
        if not tail.any():
            return _empty_pairs()
        x = heads[run_id[tail]]
        y = d_s[tail]
        return pd.DataFrame({"a": np.minimum(x, y).astype(np.int64),
                             "b": np.maximum(x, y).astype(np.int64)})

    def _jac(ta, tb):
        jc = ngram_jaccard(ta or "", tb or "", k)
        return jc if jc >= threshold else None

    rows, tbl = collect(rows, tiered=True)
    if tbl is not None:
        cand = to_dataset(pa.Table.from_pandas(_pairs(tbl),
                                               preserve_index=False))
    else:
        def _j_key(b: pa.Table) -> np.ndarray:
            return b.column("j").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)

        cand = _coarse_grouped_pairs(rows, _j_key, _pairs)
    return _verify_pairs(cand, docs_ds, "doc_id", text_col, _jac, "jaccard")


def ngram_jaccard_dup_pairs_prefix(docs_ds, threshold: float = 0.6,
                                   k: int = 3, text_col: str = "text"):
    """The 100-TB shape of :func:`ngram_jaccard_dup_pairs`: PPJoin
    prefix-filtered candidate generation (full recall by the prefix
    theorem) + exact per-pair Jaccard verification through the shared
    verifier (:func:`_verify_pairs`).  Same exact answer, but the inverted
    index holds only each doc's (1-t)-ish prefix, so hot-shingle buckets
    shrink quadratically.  Ordering the universe by hash value (uniform)
    needs no global frequency pass; rarity-first ordering would prune
    harder at the cost of one extra count pass."""
    from .join import _distinct_rows

    rows = docs_ds.map_batches(
        lambda b: ngram_prefix_rows(b, text_col, k, threshold),
        batch_format="pyarrow", batch_size=None,
    )

    def _jac(ta, tb):
        j = ngram_jaccard(ta or "", tb or "", k)
        return j if j >= threshold else None

    def _pairs(t: pa.Table) -> pd.DataFrame:
        return _keyed_pairs(t, "sh")[["a", "b"]]

    rows, tbl = collect(rows, tiered=True)
    if tbl is not None:
        pairs = to_dataset(pa.Table.from_pandas(_pairs(tbl),
                                                preserve_index=False))
    else:
        def _sh_key(b: pa.Table) -> np.ndarray:
            return b.column("sh").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)

        pairs = _distinct_rows(_coarse_grouped_pairs(rows, _sh_key, _pairs),
                               ["a", "b"])
    return _verify_pairs(pairs, docs_ds, "doc_id", text_col, _jac,
                         "jaccard")


# --- exact dedup -----------------------------------------------------------

def exact_dedup_groups(docs_ds, text_col: str = "text"):
    """Hash-partitioned exact dedup summary:
    Dataset[(content_md5, keep_doc_id, n_dupes)] — keep = lowest doc_id."""
    from ray.data.aggregate import Count, Min

    from .text import fingerprint_batch

    hashed = docs_ds.map_batches(
        lambda b: fingerprint_batch(b, text_col), batch_format="pyarrow"
    )
    return hashed.groupby("content_md5").aggregate(
        Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="n_dupes")
    )


def normalized_dedup_groups(docs_ds, text_col: str = "text"):
    """Case/whitespace-insensitive exact dedup (the RefinedWeb-style
    normalize-then-hash pass): ASCII-fold + collapse whitespace runs +
    trim, md5 the canonical form, then the same hash-partitioned
    groupby as :func:`exact_dedup_groups`.

    Folding is ASCII-ONLY (``pc.ascii_lower``) by design — the fp16
    precedent (text.fingerprint_batch): Unicode case tables vary by
    library, so the SQL oracle mirrors with an explicit A-Z
    ``translate`` rather than locale-dependent ``lower()``.  The
    whitespace collapse is RE2 ``\\s+`` on both engines."""
    import hashlib

    from ray.data.aggregate import Count, Min

    def _norm(b: pa.Table) -> pa.Table:
        s = pc.ascii_lower(b.column(text_col))
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim(s, " ")
        texts = s.cast(pa.binary()).to_pylist()
        md5s = [None if t is None else hashlib.md5(t).hexdigest()
                for t in texts]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "norm_md5": pa.array(md5s, pa.string()),
        })

    hashed = docs_ds.map_batches(_norm, batch_format="pyarrow",
                                 batch_size=None)
    return hashed.groupby("norm_md5").aggregate(
        Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="n_dupes")
    )


def exact_dedup(docs_ds, text_col: str = "text"):
    """Deduplicated dataset: one row (lowest doc_id) per content hash.
    Shuffle key = content hash (uniform — no skew by construction).

    Two-phase: a groupby MIN aggregate picks the keeper id per hash,
    then a semi-join keeps those rows — no per-group Python (a
    map_groups here also emits schema-less empty blocks that poison
    downstream hash joins; see test_curate_corpus_end_to_end_planted)."""
    from ray.data.aggregate import Min

    from .join import semi_join
    from .text import fingerprint_batch

    hashed = docs_ds.map_batches(
        lambda b: fingerprint_batch(b, text_col), batch_format="pyarrow"
    )
    keep = hashed.groupby("content_md5").aggregate(
        Min("doc_id", alias_name="keep_id"))
    return semi_join(hashed, keep, on="doc_id", right_key="keep_id")


def dedup_turns(transcripts_ds):
    """Exact dedup on the transcript key (conv_id, turn_idx) — the
    resume-idempotence helper (SURVEY.md §2.3): re-ingesting an already
    processed shard cannot double rows downstream.  First row per key
    wins (rows with the same key are identical by construction).

    Two-phase: an in-block dedup shrinks each block first and is
    materialized once.  While the surviving rows fit the driver budget
    (their bytes, so wide turns take the exchange early) they merge on
    the driver (pandas drop_duplicates); above it the driver holds none
    of them and the materialized rows go through the
    hash-partition groupby shuffle (the corpus-scale path)."""

    compact, tbl = collect(transcripts_ds.map_batches(
        lambda df: df.drop_duplicates(["conv_id", "turn_idx"]),
        batch_format="pandas",
        batch_size=None,
    ), tiered=True)
    if tbl is not None:
        pdf = tbl.to_pandas().drop_duplicates(["conv_id", "turn_idx"])
        return to_dataset(pa.Table.from_pandas(pdf, preserve_index=False))

    def _first(g: pd.DataFrame) -> pd.DataFrame:
        return g.head(1)

    return compact.groupby(["conv_id", "turn_idx"]).map_groups(
        _first, batch_format="pandas"
    )


# --- SimHash ---------------------------------------------------------------

_TOKEN_CACHE_MD5: dict[str, int] = {}


def _token_hashes_md5(toks: list[str]) -> np.ndarray:
    """Per-token md5 digest bytes [8:16] little-endian — bit-identical
    to DuckDB ``md5_number_lower``, so the simhash signature (and hence
    the exact pair oracle) is SQL-replayable.  Same per-worker
    distinct-token cache as :func:`_token_hashes`."""
    cache = _TOKEN_CACHE_MD5
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            if len(cache) >= _TOKEN_CACHE_MAX:
                cache.clear()
            h = cache[t] = int.from_bytes(
                hashlib.md5(t.encode("utf-8")).digest()[8:16], "little")
        out[i] = h
    return out


def simhash64(text: str) -> int:
    toks = text.split()
    if not toks:
        return 0
    hs = _token_hashes_md5(toks)
    bits = np.unpackbits(hs.view(np.uint8)).reshape(len(hs), 64)
    # +1 for set bits, -1 for unset — SIGNED: the uint64 sum would wrap
    # on 2c < n and turn "minority" into "set" (caught by the oracle:
    # a single-token simhash must equal the token hash)
    votes = bits.sum(axis=0).astype(np.int64) * 2 - len(hs)
    out = np.packbits((votes > 0).astype(np.uint8))
    return int.from_bytes(out.tobytes(), "little")


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    vals = [simhash64(t or "") for t in batch.column(text_col).to_pylist()]
    return batch.append_column("simhash", pa.array(np.array(vals, dtype=np.uint64)))


def simhash_dup_pairs(docs_ds, max_hamming: int = 3, text_col: str = "text"):
    """SimHash near-dups: 4x16-bit chunk banding, Hamming-verified.
    Returns Dataset[(a, b, hamming)].  Verification attaches the 64-bit
    signatures (not the text) to each candidate — the cheapest possible
    join payload.

    Exactness: for max_hamming < 4, recall is 1 by pigeonhole (k
    differing bits touch at most k of the 4 chunks, so at least one
    16-bit band matches exactly) and the signature uses md5 token
    hashes — the full output set is therefore SQL-expressible and the
    `simhash_dup_pairs` oracle recomputes it end-to-end."""

    # ONE signature pass: the per-doc simhash loop is this operator's
    # dominant cost, so materialize the (doc_id, simhash) table and
    # derive BOTH the banding keys and the verification source from it
    sig_ds = docs_ds.map_batches(
        simhash_batch, batch_format="pyarrow", batch_size=None
    ).select_columns(["doc_id", "simhash"]).materialize()

    def _chunks(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sigs = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
        keys = (sigs[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "band": pa.array(np.tile(np.arange(4, dtype=np.int32), len(ids))),
                "band_hash": pa.array(keys.reshape(-1).astype(np.int64)),
            }
        )

    chunks = sig_ds.map_batches(_chunks, batch_format="pyarrow", batch_size=None)
    cand = _candidate_pairs(chunks)

    # VECTORIZED verification: a simhash is 8 bytes, so the full
    # (doc_id -> signature) map is bounded by #docs (not #pairs) — 16 GB
    # at 10^9 docs; broadcast it once and popcount whole candidate
    # batches with numpy.  On template-heavy corpora the candidate set
    # grows quadratically (~6M pairs at sf0.1) and the generic per-pair
    # verification (Python loop / per-group assemble) became the
    # bottleneck; this path is linear vectorized in |candidates|.
    import ray

    _, sig_tbl = collect(sig_ds)
    ids_arr = sig_tbl.column("doc_id").to_numpy(zero_copy_only=False)
    sig_arr = sig_tbl.column("simhash").to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    order = np.argsort(ids_arr, kind="stable")
    sig_ref = ray.put((ids_arr[order], sig_arr[order]))

    def _popcount64(x: np.ndarray) -> np.ndarray:
        return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8) \
            .sum(axis=1).astype(np.int64)

    def _verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        ids_s, sig_s = ray.get(sig_ref)
        a = df["a"].to_numpy().astype(np.int64)
        b = df["b"].to_numpy().astype(np.int64)
        sa = sig_s[np.searchsorted(ids_s, a)]
        sb = sig_s[np.searchsorted(ids_s, b)]
        ham = _popcount64(sa ^ sb)
        keep = ham <= max_hamming
        return pd.DataFrame({"a": a[keep], "b": b[keep],
                             "hamming": ham[keep]})

    return cand.map_batches(_verify, batch_format="pandas", batch_size=None)


# --- winnowing (rolling-hash document fingerprints) ------------------------

_WIN_BASE = np.uint64(1000003)


def winnow_fingerprints(text: str, k: int = 8, w: int = 16) -> np.ndarray:
    """Winnowing fingerprints (Schleimer/Wilkerson/Aiken): rolling
    polynomial hash over byte k-grams, keep the minimum of each
    w-window (rightmost on ties), dedupe consecutive picks.  Guarantee:
    two documents sharing any substring of length >= w + k - 1 share at
    least one fingerprint.  Fully vectorized (sliding_window_view)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(b) < k:
        return np.unique(_mix64(np.frombuffer(
            hashlib.blake2b(bytes(b), digest_size=8).digest(), dtype=np.uint64)))
    with np.errstate(over="ignore"):
        powers = _WIN_BASE ** np.arange(k - 1, -1, -1, dtype=np.uint64)
        grams = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
        hashes = _mix64((grams * powers).sum(axis=1, dtype=np.uint64))
    if len(hashes) <= w:
        return np.unique(hashes[[int(hashes.argmin())]])
    wins = np.lib.stride_tricks.sliding_window_view(hashes, w)
    # rightmost minimum per window: argmin on the reversed window
    rev_arg = wins[:, ::-1].argmin(axis=1)
    pick = np.arange(len(wins)) + (w - 1 - rev_arg)
    return np.unique(hashes[np.unique(pick)])


def _winnow_explode(batch: pa.Table, text_col: str, k: int, w: int) -> pa.Table:
    ids, fps = [], []
    for i, t in zip(batch["doc_id"].to_pylist(), batch[text_col].to_pylist()):
        for fp in winnow_fingerprints(t or "", k=k, w=w):
            ids.append(i)
            fps.append(fp)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "fp": pa.array(np.array(fps, dtype=np.uint64))})


def winnow_dup_pairs(docs_ds, min_shared: int = 3, k: int = 8, w: int = 16,
                     text_col: str = "text"):
    """Fingerprint-overlap near-dup pairs: docs sharing >= ``min_shared``
    winnowing fingerprints.  Shuffle payload = (doc_id, fingerprint)
    pairs only.  Counting shared fingerprints per candidate pair runs on
    the collected triples while they fit the driver budget; above it the
    scale path runs: hash-partition by fingerprint, emit the per-bucket
    pairs, count per (a, b) with a two-phase groupby — no driver
    materialization anywhere.  The driver tier returns int64
    (a, b, shared_fps) also when no pair qualifies."""

    exploded = docs_ds.map_batches(
        lambda b: _winnow_explode(b, text_col, k, w),
        batch_format="pyarrow", batch_size=None,
    )

    exploded, tbl = collect(exploded, tiered=True)
    if tbl is not None:
        counts = _keyed_pairs(tbl, "fp")
        kept = counts[counts["n"] >= min_shared].reset_index(drop=True)
        return to_dataset(pa.Table.from_pandas(
            kept.rename(columns={"n": "shared_fps"}).astype("int64"),
            preserve_index=False))
    from ray.data.aggregate import Sum

    def _fp_key(b: pa.Table) -> np.ndarray:
        return b.column("fp").to_numpy(zero_copy_only=False).astype(np.uint64)

    # coarse co-located groups emit PARTIAL shared-fp counts (a pair's
    # co-occurrences in every bucket of the group sum locally); the hash
    # aggregate finishes the count — never a per-bucket pandas group
    pairs = _coarse_grouped_pairs(exploded, _fp_key,
                                  lambda t: _keyed_pairs(t, "fp"))
    counts = pairs.groupby(["a", "b"]).aggregate(Sum("n", alias_name="shared_fps"))
    out = counts.filter(expr=f"shared_fps >= {min_shared}")
    return out.map_batches(
        lambda df: df[["a", "b", "shared_fps"]].astype(
            {"a": "int64", "b": "int64", "shared_fps": "int64"}),
        batch_format="pandas",
    )


# --- embedding cosine near-dup --------------------------------------------

def _pair_cosine(va, vb) -> float | None:
    """dot / sqrt(|a|^2 * |b|^2) — same op order as the ANN operator
    (bit-compatible with DuckDB's list_cosine_similarity)."""
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    denom = np.sqrt((va * va).sum() * (vb * vb).sum())
    if denom == 0:
        return None
    return float(va @ vb / denom)


def embedding_dup_pairs(emb_ds, threshold: float = 0.98, n_bands: int = 16,
                        bits_per_band: int = 8, seed: int = 42,
                        round_to: int | None = 6):
    """Multi-band random-hyperplane LSH over an embedding column ->
    bucket pairs -> exact cosine verify.  Returns Dataset[(a, b, cosine)]
    with a < b, unrounded cosine >= threshold (output rounded to
    ``round_to`` to match the SQL oracle).

    Recall is governed by OR-amplification across ``n_bands``
    independent bands of ``bits_per_band`` hyperplane sign bits each
    (ADVICE r1: a single band of 16 bits had ~18% recall at cosine
    0.95).  With the 16x8 default, a pair at cosine c collides in one
    band with p = (1 - arccos(c)/pi)^8, so miss probability is
    (1-p)^16: ~1.9e-4 at c=0.95, ~1e-12 at c=0.99.  False-positive
    candidates (c~0) survive a band with p=2^-8 and are discarded by the
    exact cosine verification."""
    first = emb_ds.take(1)[0]
    dim = len(first["embedding"])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_bands * bits_per_band))
    import ray

    planes_ref = ray.put(planes)
    weights = (np.uint64(1) << np.arange(bits_per_band, dtype=np.uint64))

    def _bands(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        vecs = list_column_matrix(batch["embedding"])
        bits = (vecs @ pl) > 0  # (n, n_bands*bits_per_band)
        keys = (bits.reshape(len(vecs), n_bands, bits_per_band).astype(np.uint64)
                * weights).sum(axis=2)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), len(ids))),
                "band_hash": pa.array(keys.reshape(-1)),
            }
        )

    buckets = emb_ds.map_batches(_bands, batch_format="pyarrow", batch_size=None)
    cand = _candidate_pairs(buckets)

    def _cos(va, vb):
        if va is None or vb is None:
            return None
        c = _pair_cosine(va, vb)
        if c is None or c < threshold:
            return None
        return round(c, round_to) if round_to is not None else c

    # TWO-STAGE verify (VERDICT r4 #4 — a one-stage join shipped
    # candidates x 2 full float64 vectors, ~1 GiB at sf0.1 because the
    # bands are loose by design).  Stage 1 verifies candidates against
    # int16 QUANTIZED sketches (8-byte scale header + d x int16: ~3.8x
    # smaller at d=64) and prunes with an EXACT angular error bound —
    # a pair survives iff quantized cosine + bound >= threshold, so no
    # true pair can be pruned (each vector's quantization radius r
    # deviates its direction by at most arcsin(r/|q|)).  Stage 2
    # verifies the survivors exactly against the FULL vectors; the
    # verifier joins the source on the left, so the survivor pairs are
    # the broadcast side while they fit and the corpus stays in place.
    # (acero's hash join rejects list-typed payloads, hence the binary
    # blobs.)
    def _pack_q(b: pa.Table) -> pa.Table:
        vecs = list_column_matrix(b["embedding"])
        s = np.abs(vecs).max(axis=1)
        s[s == 0] = 1.0
        step = (s / 32767.0).astype(np.float64)
        q = np.round(vecs / step[:, None]).astype(np.int16)
        return pa.table({
            "vec_id": b["vec_id"],
            "qvb": pa.array([st.tobytes() + x.tobytes()
                             for st, x in zip(step, q)], pa.binary()),
        })

    def _cos_q_gate(ba, bb):
        if ba is None or bb is None:
            return None
        sa = np.frombuffer(ba, np.float64, count=1)[0]
        qa = np.frombuffer(ba, np.int16, offset=8).astype(np.float64) * sa
        sb = np.frombuffer(bb, np.float64, count=1)[0]
        qb = np.frombuffer(bb, np.int16, offset=8).astype(np.float64) * sb
        na = np.sqrt((qa * qa).sum())
        nb = np.sqrt((qb * qb).sum())
        if na == 0.0 or nb == 0.0:
            return 1.0  # degenerate: defer to the exact stage
        d = len(qa)
        ra = sa * 0.5 * np.sqrt(d)
        rb = sb * 0.5 * np.sqrt(d)
        if ra >= na or rb >= nb:
            return 1.0
        bound = float(np.arcsin(ra / na) + np.arcsin(rb / nb))
        c = float(qa @ qb / (na * nb))
        return c if c + bound >= threshold else None

    def _pack(b: pa.Table) -> pa.Table:
        vecs = list_column_matrix(b["embedding"])
        return pa.table({
            "vec_id": b["vec_id"],
            "vecb": pa.array([v.tobytes() for v in vecs], pa.binary()),
        })

    def _cos_packed(ba, bb):
        if ba is None or bb is None:
            return None
        return _cos(np.frombuffer(ba, dtype=np.float64),
                    np.frombuffer(bb, dtype=np.float64))

    packed_q = emb_ds.map_batches(_pack_q, batch_format="pyarrow",
                                  batch_size=None)
    surv = _verify_pairs(cand, packed_q, "vec_id", "qvb", _cos_q_gate,
                         "qcos")
    packed = emb_ds.map_batches(_pack, batch_format="pyarrow",
                                batch_size=None)
    return _verify_pairs(surv, packed, "vec_id", "vecb", _cos_packed,
                         "cosine")


def semantic_dedup(emb_ds, threshold: float = 0.95, k: int = 8,
                   iterations: int = 2, id_col: str = "vec_id",
                   emb_col: str = "embedding"):
    """SemDeDup-style cluster-scoped semantic dedup (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication"): cluster the embedding space with the fixed-point
    k-means (``similarity.kmeans_assign`` — bit-exact vs the unrolled
    SQL), then inside each cluster drop every vector that has a
    SMALLER-id cluster-mate at exact cosine >= ``threshold``.  Returns
    Dataset[(id_col, cluster)] of the KEPT rows, sorted by id.

    Semantics are deliberately non-transitive (the paper's rule:
    compare against all cluster members, not only survivors): v drops
    iff EXISTS u, cluster(u) == cluster(v), u.id < v.id,
    cosine(u, v) >= threshold.  Cluster scoping is what makes the op
    cheap at scale — candidate generation reuses the full-recall LSH +
    two-stage verify of :func:`embedding_dup_pairs` (recall argument
    there), and pair volume is near-dup-bounded, so the only
    corpus-sized exchanges are the label pass (shuffle-free) and the
    final anti-join.

    Tiers: while the pairs and the label map (16 B a row) each fit the
    driver budget they collect and the census is one numpy pass; above
    it pairs join their
    endpoint labels (pairs side is small), same-cluster survivors feed
    a distributed anti-join on the label Dataset.
    """
    from .join import anti_join, hash_join
    from .similarity import kmeans_assign

    # materialize: consumed twice (pair labelling + final anti-join);
    # unmaterialized, Ray re-runs the Lloyd train per consumer
    assign = kmeans_assign(emb_ds, k=k, iterations=iterations,
                           id_col=id_col, emb_col=emb_col).materialize()
    pairs = embedding_dup_pairs(emb_ds, threshold=threshold)
    mpairs, ptbl = collect(pairs, tiered=True)
    assign, atbl = collect(assign, tiered=True)
    if atbl is not None and ptbl is not None:
        ids = atbl.column(id_col).to_numpy(zero_copy_only=False)
        cl = atbl.column("cluster").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, cl = ids[order], cl[order]
        if ptbl.num_rows and ptbl.num_columns:
            a = ptbl.column("a").to_numpy(zero_copy_only=False)
            b = ptbl.column("b").to_numpy(zero_copy_only=False)
            same = (cl[np.searchsorted(ids, a)]
                    == cl[np.searchsorted(ids, b)])
            keep_mask = ~np.isin(ids, np.unique(b[same]))
        else:
            keep_mask = np.ones(len(ids), bool)
        return to_dataset(pa.table({
            id_col: pa.array(ids[keep_mask], pa.int64()),
            "cluster": pa.array(cl[keep_mask], pa.int64())}))

    # distributed tier: label both pair endpoints (pairs side is the
    # small one), keep same-cluster pairs, anti-join the drop ids.
    # no pairs, nothing to drop (count() is metadata-cheap on the
    # already-materialized pairs)
    if mpairs.count() == 0:
        return assign.sort(id_col)

    def _as_a(t: pa.Table) -> pa.Table:
        return pa.table({"a": t.column(id_col), "ca": t.column("cluster")})

    def _as_b(t: pa.Table) -> pa.Table:
        return pa.table({"b": t.column(id_col), "cb": t.column("cluster")})

    def _ab(t: pa.Table) -> pa.Table:
        return t.select(["a", "b"])

    lab_a = assign.map_batches(_as_a, batch_format="pyarrow",
                               batch_size=None, zero_copy_batch=True)
    lab_b = assign.map_batches(_as_b, batch_format="pyarrow",
                               batch_size=None, zero_copy_batch=True)
    j = hash_join(mpairs.map_batches(_ab, batch_format="pyarrow",
                                     batch_size=None), lab_a, on="a")
    j = hash_join(j, lab_b, on="b")

    def _same(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t.column("ca"), t.column("cb")))
                .select(["b"]))

    drops = j.map_batches(_same, batch_format="pyarrow", batch_size=None)
    kept = anti_join(assign, drops, on=id_col, right_key="b")
    return kept.sort(id_col)


# --- dup-cluster resolution (connected components) --------------------------

def connected_components(nodes_ds, edges_ds, node_col: str = "doc_id",
                         max_iter: int = 50):
    """Resolve near-dup PAIRS into canonical clusters: every node gets
    ``cluster_id`` = the smallest node id reachable through the edge
    set (singletons keep their own id).  This is the step that turns a
    dup-pair list into "keep one document per cluster".

    Iterative min-label propagation, Ray-Data-first: per round, one
    hash join (edge dst -> current labels), one groupby-min (smallest
    neighbor label per src), one left join back, until no label
    changes.  Rounds = graph diameter — near-dup clusters are
    near-cliques (diameter 1-2); for adversarial long chains the
    classic large-star/small-star doubling would cut rounds to
    O(log d) (documented, not needed for dup graphs).  The driver
    holds only the per-round changed-row count; edges and labels stay
    in the object store (edge table is candidate-sized, labels are
    O(nodes x 16B))."""
    import ray
    from ray.data.aggregate import Min, Sum

    from .join import hash_join

    def _undir(b: pa.Table) -> pa.Table:
        a = b.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"src": pa.array(np.concatenate([a, bb]), pa.int64()),
                         "dst": pa.array(np.concatenate([bb, a]), pa.int64())})

    seed_e = to_dataset(pa.table({"src": pa.array([], pa.int64()),
                                  "dst": pa.array([], pa.int64())}))
    edges = seed_e.union(
        edges_ds.map_batches(_undir, batch_format="pyarrow",
                             batch_size=None)).materialize()

    def _init(b: pa.Table) -> pa.Table:
        n = b.column(node_col).cast(pa.int64())
        return pa.table({"node": n, "label": n})

    labels = nodes_ds.map_batches(_init, batch_format="pyarrow",
                                  batch_size=None).materialize()
    if edges.count() == 0:
        return labels.map_batches(
            lambda b: pa.table({node_col: b.column("node"),
                                "cluster_id": b.column("label")}),
            batch_format="pyarrow", batch_size=None)

    # driver tier: each distributed round below costs seconds of fixed
    # exchange overhead, which dwarfs the near-clique dup graphs this
    # resolves (measured 15.5 s for 68 edges).  While the edges fit the
    # driver budget the min-labels come from a vectorized numpy relax +
    # pointer-jump over the collected EDGE list only — nodes are never
    # collected; labels broadcast once and apply per node block.  Above
    # the budget the exchange path below runs.
    edges, etbl = collect(edges, tiered=True)
    if etbl is not None and etbl.num_rows:
        src = etbl.column("src").to_numpy(zero_copy_only=False)
        dst = etbl.column("dst").to_numpy(zero_copy_only=False)
        uids, inv = np.unique(np.concatenate([src, dst]),
                              return_inverse=True)
        lab = np.arange(len(uids), dtype=np.int64)
        si, di = inv[: len(src)], inv[len(src):]
        for _ in range(max_iter):
            new = lab.copy()
            np.minimum.at(new, si, lab[di])
            while True:  # pointer jumping: chase labels to roots
                nn = new[new]
                if np.array_equal(nn, new):
                    break
                new = nn
            if np.array_equal(new, lab):
                break
            lab = new
        # uids ascend, so the min label INDEX is the min node id
        final = uids[lab]
        ref = ray.put((uids, final))

        def _apply(b: pa.Table) -> pa.Table:
            u, f = ray.get(ref)
            n = b.column("node").to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(u, n), len(u) - 1)
            inb = u[pos] == n
            out = np.where(inb, f[pos], n)
            return pa.table({node_col: pa.array(n, pa.int64()),
                             "cluster_id": pa.array(out, pa.int64())})

        return labels.map_batches(_apply, batch_format="pyarrow",
                                  batch_size=None)

    for _ in range(max_iter):
        # smallest neighbor label per src (neighbor = edge dst)
        nbr = hash_join(edges, labels, on=("dst",), right_on=("node",))
        mins = nbr.groupby("src").aggregate(Min("label", alias_name="minlab"))
        joined = hash_join(labels, mins, on=("node",), right_on=("src",),
                           join_type="left_outer")

        def _update(b: pa.Table) -> pa.Table:
            lab = b.column("label")
            # singletons (no neighbor) keep their label; pyarrow kernels
            new = pc.min_element_wise(lab, pc.coalesce(b.column("minlab"),
                                                       lab))
            return pa.table({"node": b.column("node"), "label": new,
                             "_changed": pc.cast(pc.not_equal(new, lab),
                                                 pa.int64())})

        updated = joined.map_batches(_update, batch_format="pyarrow",
                                     batch_size=None).materialize()
        n_changed = updated.map_batches(
            lambda b: pa.table({"c": pa.array(
                [int(pc.sum(b.column("_changed")).as_py() or 0)], pa.int64())}),
            batch_format="pyarrow", batch_size=None).to_pandas()["c"].sum()
        labels = updated.select_columns(["node", "label"]).materialize()
        if n_changed == 0:
            break

    return labels.map_batches(
        lambda b: pa.table({node_col: b.column("node"),
                            "cluster_id": b.column("label")}),
        batch_format="pyarrow", batch_size=None)


# --- TF-IDF weighted cosine similarity join ---------------------------------

def tfidf_token_rows(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Explode each doc into (doc_id, th, tf) rows: word-token hash64 +
    in-doc term frequency.  Tokenization is the shingle rule at k=1
    (whitespace split, empties dropped), so the SQL oracle replays it
    with ``regexp_split_to_array(text, '\\s+')``.  Docs with no tokens
    emit nothing (they cannot pair)."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    cat, offs = _shingle_hash_segments(texts, 1)
    if len(cat) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "th": pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64())})
    seg = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(offs))
    order = np.lexsort((cat, seg))
    seg_s, cat_s = seg[order], cat[order]
    new = np.ones(len(cat_s), dtype=bool)
    new[1:] = (seg_s[1:] != seg_s[:-1]) | (cat_s[1:] != cat_s[:-1])
    starts = np.flatnonzero(new)
    tf = np.diff(np.concatenate((starts, [len(cat_s)])))
    # hash rides BIT-REINTERPRETED as int64: Ray's groupby/join shuffle
    # round-trips uint64 > 2^63 through Python ints and overflows the
    # rebuilt int64 column; the view keeps the 1:1 token mapping
    return pa.table({
        "doc_id": pa.array(ids[seg_s[starts]].astype(np.int64), pa.int64()),
        "th": pa.array(cat_s[starts].view(np.int64), pa.int64()),
        "tf": pa.array(tf.astype(np.int64), pa.int64()),
    })


def tfidf_cosine_pairs(docs_ds, threshold: float = 0.5,
                       max_df_frac: float = 0.5, text_col: str = "text"):
    """All-pairs TF-IDF weighted cosine similarity join: pairs (a, b,
    cosine) with a < b and cosine >= threshold, where each doc is the
    sparse vector w(d, t) = tf(d, t) * ln(N / df(t)) over whitespace
    word tokens, N = docs with >= 1 token.  The WEIGHTED counterpart of
    the n-gram Jaccard join: shared rare terms dominate, boilerplate
    stopwords are damped by idf and the df cap.

    Tokens with df > max_df_frac * N are dropped (the standard stopword
    cap) — also the SKEW BOUND: a token in m docs emits m(m-1)/2
    partial products, so the cap bounds the hottest bucket; the
    threshold then prunes the aggregate.  The comparison runs UNROUNDED
    on both sides (same protocol as embedding_dup_pairs — valid when no
    pair sits within float noise of the threshold); output cosine is
    rounded to 6dp (ln/sum-order last-ulp protocol).

    Scale shape: one token-row exchange for df (vocab-bounded result,
    broadcast while it fits the driver budget, hash-join above), one
    doc-keyed exchange for norms, one token-keyed coarse-grouped pair
    expansion (co-located buckets, vectorized products, never a
    per-pair Python loop), one (a, b) aggregate of reduced rows."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    rows = docs_ds.map_batches(
        lambda b: tfidf_token_rows(b, text_col),
        batch_format="pyarrow", batch_size=None)

    def _local(tbl: pa.Table) -> pd.DataFrame:
        ids, th = _column(tbl, "doc_id"), _column(tbl, "th")
        tf = _column(tbl, "tf").astype(np.float64)
        n_docs = len(np.unique(ids))
        uth, inv, df = np.unique(th, return_inverse=True, return_counts=True)
        keep = df[inv] <= max_df_frac * n_docs
        ids, th, tf, inv = ids[keep], th[keep], tf[keep], inv[keep]
        w = tf * np.log(n_docs / df[inv])
        uid, dinv = np.unique(ids, return_inverse=True)
        norm2 = np.zeros(len(uid))
        np.add.at(norm2, dinv, w * w)
        a, b, dot = run_pairs(th, ids, w / np.sqrt(norm2)[dinv])
        keep = dot >= threshold
        return pd.DataFrame({"a": a[keep], "b": b[keep],
                             "cosine": np.round(dot[keep], 6)})

    rows, tbl = collect(rows, tiered=True)
    if tbl is not None:
        return to_dataset(pa.Table.from_pandas(_local(tbl),
                                               preserve_index=False))

    # ---- distributed tier ----
    # N: token rows are generated per block, so a doc's rows never span
    # blocks — per-block distinct doc counts sum exactly
    n_docs = int(sum(
        r["nd"] for r in rows.map_batches(
            lambda b: pa.table({"nd": pa.array(
                [len(np.unique(b.column("doc_id").to_numpy(
                    zero_copy_only=False)))], pa.int64())}),
            batch_format="pyarrow", batch_size=None).take_all()))
    df_ds = rows.groupby("th").count()

    df_ds, df_tbl = collect(df_ds, tiered=True)
    cap = max_df_frac * n_docs
    if df_tbl is not None:
        dth = df_tbl.column("th").to_numpy(zero_copy_only=False)
        dcnt = df_tbl.column("count()").to_numpy(zero_copy_only=False)
        o = np.argsort(dth)
        dth, dcnt = dth[o], dcnt[o]
        ref = ray.put((dth, dcnt))

        def _weight(b: pa.Table) -> pa.Table:
            vth, vdf = ray.get(ref)
            th = b.column("th").to_numpy(zero_copy_only=False)
            tf = b.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
            dfv = vdf[np.searchsorted(vth, th)]
            keep = dfv <= cap
            w = tf[keep] * np.log(n_docs / dfv[keep])
            return pa.table({"doc_id": b.column("doc_id").filter(
                                 pa.array(keep)),
                             "th": b.column("th").filter(pa.array(keep)),
                             "w": pa.array(w, pa.float64())})

        w_rows = rows.map_batches(_weight, batch_format="pyarrow",
                                  batch_size=None)
    else:
        from .join import hash_join

        def _idf(b: pa.Table) -> pa.Table:
            cnt = b.column("count()").to_numpy(zero_copy_only=False)
            keep = cnt <= cap
            return pa.table({
                "_jth": b.column("th").filter(pa.array(keep)),
                "idf": pa.array(np.log(n_docs / cnt[keep]), pa.float64())})

        idf_ds = df_ds.map_batches(_idf, batch_format="pyarrow",
                                   batch_size=None)
        joined = hash_join(rows, idf_ds, on="th", right_on="_jth")

        def _mul(b: pa.Table) -> pa.Table:
            tf = b.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
            idf = b.column("idf").to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": b.column("doc_id"),
                             "th": b.column("th"),
                             "w": pa.array(tf * idf, pa.float64())})

        w_rows = joined.map_batches(_mul, batch_format="pyarrow",
                                    batch_size=None)

    w_rows = w_rows.materialize()

    def _n2(b: pa.Table) -> pa.Table:
        w = b.column("w").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b.column("doc_id"),
                         "w2": pa.array(w * w, pa.float64())})

    norms = w_rows.map_batches(_n2, batch_format="pyarrow",
                               batch_size=None) \
        .groupby("doc_id").aggregate(Sum(on="w2", alias_name="n2")) \
        .map_batches(lambda b: pa.table({
            "_jdoc": b.column("doc_id"),
            "norm": pa.array(np.sqrt(
                b.column("n2").to_numpy(zero_copy_only=False)),
                pa.float64())}),
            batch_format="pyarrow", batch_size=None)

    from .join import hash_join as _hj

    nw_rows = _hj(w_rows, norms, on="doc_id", right_on="_jdoc")

    def _norm(b: pa.Table) -> pa.Table:
        w = b.column("w").to_numpy(zero_copy_only=False)
        nm = b.column("norm").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b.column("doc_id"),
                         "th": b.column("th"),
                         "nw": pa.array(w / nm, pa.float64())})

    nw_rows = nw_rows.map_batches(_norm, batch_format="pyarrow",
                                  batch_size=None).materialize()

    # coarse-grouped weighted pair expansion (a th bucket never splits)
    partial = _coarse_grouped_pairs(
        nw_rows,
        lambda b: b.column("th").to_numpy(zero_copy_only=False)
        .astype(np.uint64),
        lambda t: _keyed_pairs(t, "th", "nw"))
    summed = partial.groupby(["a", "b"]).aggregate(
        Sum(on="dot", alias_name="cos"))

    def _fin(b: pa.Table) -> pa.Table:
        cos = b.column("cos").to_numpy(zero_copy_only=False)
        keep = cos >= threshold
        return pa.table({
            "a": b.column("a").filter(pa.array(keep)),
            "b": b.column("b").filter(pa.array(keep)),
            "cosine": pa.array(np.round(cos[keep], 6), pa.float64())})

    return summed.map_batches(_fin, batch_format="pyarrow",
                              batch_size=None)
