"""Text-analysis stages over the ``documents`` table.

Vectorized ``map_batches`` operators for a large-scale training-data
pipeline: token counting, quality scoring, language ID, document
fingerprinting.  Each is a pure batch function (no state), Arrow in/out,
using pyarrow.compute regex kernels — no Python loop in the hot path.

The token / quality / fingerprint definitions are deliberately
SQL-expressible so DuckDB oracles can recompute them exactly (see
``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .collect import collect, to_dataset

# \S+ runs == str.split() token count on non-degenerate text
_TOKEN_RE = r"\S+"
_PUNCT_RE = r"[!-/:-@\[-`{-~]"
_DIGIT_RE = r"[0-9]"
_UPPER_RE = r"[A-Z]"

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": ("the", "and", "of", "to", "a", "in", "is", "it", "that", "for"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "ein", "mit", "zu"),
    "fr": ("le", "la", "et", "les", "des", "un", "une", "est", "pour"),
    "es": ("el", "la", "de", "que", "y", "en", "un", "es", "por", "los"),
}


# GPT-2-style pre-tokenizer classes, RE2-compatible (no lookarounds):
# contraction suffixes, space-prefixed letter/digit/punct runs, whitespace
# runs.  Counts approximate BPE pre-token counts for budgeting.
_BPE_RE = (r"'(?:s|t|re|ve|m|ll|d)"
           r"| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+")


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_tokens`` (whitespace tokens) and ``n_bpe_tokens``
    (GPT-2-ish pre-tokenizer segments — the budgeting proxy a training
    pipeline uses before real BPE)."""
    col = batch.column(text_col)
    n = pc.count_substring_regex(col, _TOKEN_RE)
    nb = pc.count_substring_regex(col, _BPE_RE)
    batch = batch.append_column("n_tokens", pc.cast(n, pa.int64()))
    return batch.append_column("n_bpe_tokens", pc.cast(nb, pa.int64()))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append quality features + a composite score.

    All components are closed-form over counts so the oracle can recompute
    them: len_chars, n_tokens, punct_ratio, digit_ratio, upper_ratio,
    avg_token_len, quality_score (all ratios double).
    """
    text = batch.column(text_col)
    chars = pc.cast(pc.utf8_length(text), pa.float64())
    toks = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.float64())
    punct = pc.cast(pc.count_substring_regex(text, _PUNCT_RE), pa.float64())
    digit = pc.cast(pc.count_substring_regex(text, _DIGIT_RE), pa.float64())
    upper = pc.cast(pc.count_substring_regex(text, _UPPER_RE), pa.float64())
    safe_chars = pc.max_element_wise(chars, 1.0)
    safe_toks = pc.max_element_wise(toks, 1.0)
    punct_ratio = pc.divide(punct, safe_chars)
    digit_ratio = pc.divide(digit, safe_chars)
    upper_ratio = pc.divide(upper, safe_chars)
    avg_tok = pc.divide(chars, safe_toks)
    # higher = cleaner prose: penalize punctuation/digit noise and
    # degenerate token lengths
    score = pc.subtract(
        pc.subtract(1.0, pc.multiply(2.0, punct_ratio)),
        pc.multiply(1.0, digit_ratio),
    )
    batch = batch.append_column("len_chars", pc.cast(chars, pa.int64()))
    batch = batch.append_column("n_tokens", pc.cast(toks, pa.int64()))
    batch = batch.append_column("punct_ratio", punct_ratio)
    batch = batch.append_column("digit_ratio", digit_ratio)
    batch = batch.append_column("upper_ratio", upper_ratio)
    batch = batch.append_column("avg_token_len", avg_tok)
    return batch.append_column("quality_score", score)


_GOPHER_STOPWORD_RE = r"(?i)\b(?:the|be|to|of|and|that|have|with|it|is)\b"
_ALPHA_WORD_RE = r"\S*[A-Za-z]\S*"  # one match per alpha-bearing token


def gopher_flags_batch(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id",
                       min_words: int = 50, max_words: int = 100_000,
                       min_mean_len: float = 3.0, max_mean_len: float = 10.0,
                       max_symbol_ratio: float = 0.1,
                       min_alpha_frac: float = 0.8,
                       min_stopwords: int = 2) -> pa.Table:
    """Gopher quality rules (Rae et al. 2021 §A1.1, the gate set Dolma /
    RefinedWeb reuse) as one vectorized pass: word-count bounds, mean
    word length bounds, symbol-to-word ratio (# and ...), fraction of
    words containing an alphabetic char, and stopword presence.

    Every rule is closed-form over RE2 match counts, and DuckDB's regex
    engine IS RE2 — so each flag is bit-reproducible by the oracle
    (ratio compares multiply through by the word count on BOTH sides
    instead of dividing, keeping one IEEE op order).  Flags are int64
    0/1; ``passed`` is their conjunction.
    """
    text = batch.column(text_col)
    nt = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64())
    # chars inside words = total chars - whitespace chars (each \s match
    # is exactly one char)
    nc = pc.subtract(
        pc.cast(pc.utf8_length(text), pa.int64()),
        pc.cast(pc.count_substring_regex(text, r"\s"), pa.int64()))
    nsym = pc.add(
        pc.cast(pc.count_substring(text, "#"), pa.int64()),
        pc.cast(pc.count_substring(text, "..."), pa.int64()))
    na = pc.cast(pc.count_substring_regex(text, _ALPHA_WORD_RE), pa.int64())
    ns = pc.cast(pc.count_substring_regex(text, _GOPHER_STOPWORD_RE),
                 pa.int64())

    ntf = pc.cast(nt, pa.float64())
    mean_len = pc.divide(
        pc.cast(nc, pa.float64()),
        pc.cast(pc.max_element_wise(nt, pa.scalar(1, pa.int64())),
                pa.float64()))

    def _flag(mask):
        return pc.cast(mask, pa.int64())

    f_wc = pc.and_(pc.greater_equal(nt, min_words),
                   pc.less_equal(nt, max_words))
    f_ml = pc.and_(pc.greater_equal(mean_len, min_mean_len),
                   pc.less_equal(mean_len, max_mean_len))
    f_sym = pc.less_equal(pc.cast(nsym, pa.float64()),
                          pc.multiply(max_symbol_ratio, ntf))
    f_al = pc.greater_equal(pc.cast(na, pa.float64()),
                            pc.multiply(min_alpha_frac, ntf))
    f_sw = pc.greater_equal(ns, min_stopwords)
    passed = pc.and_(pc.and_(pc.and_(f_wc, f_ml), pc.and_(f_sym, f_al)),
                     f_sw)
    return pa.table({
        id_col: pc.cast(batch.column(id_col), pa.int64()),
        "n_words": nt,
        "mean_word_len": mean_len,
        "flag_word_count": _flag(f_wc),
        "flag_mean_word_len": _flag(f_ml),
        "flag_symbol_ratio": _flag(f_sym),
        "flag_alpha_words": _flag(f_al),
        "flag_stopwords": _flag(f_sw),
        "passed": _flag(passed),
    })


# one case-insensitive stopword alternation per language, built once
_LANG_PATTERNS = {lang: r"(?i)\b(?:" + "|".join(words) + r")\b"
                  for lang, words in _LANG_PROFILES.items()}


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Language ID by stopword-profile scoring: append ``lang_pred``
    (the language with the highest stopword share of the tokens, the
    first of en, de, fr, es on a tie; ``und`` at a share of 0.02 or
    less) and ``lang_conf`` (that share).  A stateless block map."""
    toks = pc.cast(
        pc.count_substring_regex(batch.column("text"), _TOKEN_RE), pa.float64()
    )
    safe = pc.max_element_wise(toks, 1.0)
    langs = list(_LANG_PATTERNS)
    mat = np.vstack([
        pc.divide(pc.cast(pc.count_substring_regex(batch.column("text"), pat),
                          pa.float64()), safe).to_numpy(zero_copy_only=False)
        for pat in _LANG_PATTERNS.values()])
    best = mat.argmax(axis=0)
    conf = mat.max(axis=0)
    pred = np.where(conf > 0.02, np.array(langs, dtype=object)[best], "und")
    batch = batch.append_column("lang_pred", pa.array(pred, pa.string()))
    return batch.append_column("lang_conf", pa.array(conf, pa.float64()))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append content fingerprints: ``content_md5`` (exact-dup key) and
    ``fp16`` (16-hex-char case-normalized fingerprint).

    fp16 case-folds ASCII ONLY (``bytes.lower``) by design: the folding
    must be bit-identical across engines, and Unicode case tables vary
    by library/version — the DuckDB oracle mirrors it with an explicit
    A-Z ``translate`` rather than locale-dependent ``lower()``."""
    texts = batch.column(text_col).cast(pa.binary()).to_pylist()
    md5s = [None if t is None else hashlib.md5(t).hexdigest() for t in texts]
    fp16 = [
        None if t is None else hashlib.md5(t.lower()).hexdigest()[:16] for t in texts
    ]
    batch = batch.append_column("content_md5", pa.array(md5s, pa.string()))
    return batch.append_column("fp16", pa.array(fp16, pa.string()))


def ngram_count_partial(batch: pa.Table, text_col: str = "text",
                        n: int = 2) -> pa.Table:
    """Per-block word n-gram counts (the combiner of the global
    vocabulary count): tokenize once, factorize, form n-grams as code
    windows with document boundaries masked, count distinct windows with
    one np.unique — no Python loop over grams."""
    import pandas as pd

    texts = batch.column(text_col).to_pylist()
    tok_lists = [(t or "").split() for t in texts]
    all_toks = [w for tl in tok_lists for w in tl]
    if len(all_toks) < 1:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    codes = codes.astype(np.int64)
    lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    if len(codes) < n:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    wins = np.lib.stride_tricks.sliding_window_view(codes, n)
    valid = np.zeros(len(wins), dtype=bool)
    for s, ln in zip(starts, lens):
        if ln >= n:
            valid[s:s + ln - n + 1] = True
    wins = wins[valid]
    if len(wins) == 0:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    if int(len(uniques)) ** n < (1 << 62):
        # radix-pack the window codes into ONE int64 key (v^n bounded
        # exactly with Python bigints, so the pack can never overflow
        # and silently merge distinct n-grams)
        v = np.int64(len(uniques))
        key = wins[:, 0]
        for j in range(1, n):
            key = key * v + wins[:, j]
        uk, counts = np.unique(key, return_counts=True)
        # decode keys back to token strings
        parts = []
        rem = uk
        for j in range(n - 1, -1, -1):
            parts.append(rem % v)
            rem = rem // v
        parts.reverse()
        grams = [" ".join(uniques[p[i]] for p in parts)
                 for i in range(len(uk))]
    else:
        # v^n would exceed int64: count on the joined gram STRINGS
        # instead (object-array concat; slower but exact at any n/v)
        uarr = np.asarray(uniques, dtype=object)
        joined = uarr[wins[:, 0]]
        for j in range(1, n):
            joined = joined + " " + uarr[wins[:, j]]
        uk_s, counts = np.unique(joined.astype(str), return_counts=True)
        grams = uk_s.tolist()
    return pa.table({"ngram": pa.array(grams, pa.string()),
                     "n": pa.array(counts.astype(np.int64), pa.int64())})


def top_ngrams(ds, text_col: str = "text", n: int = 2, k: int = 20):
    """Global top-k word n-grams by count: per-block vectorized combiner
    (`ngram_count_partial`) -> groupby(ngram).sum -> deterministic
    top-k (count DESC, ngram ASC).  The exchange moves distinct n-grams
    per block; the final sort runs on the reduced vocabulary table."""
    from ray.data.aggregate import Sum

    import pandas as pd

    partials = ds.map_batches(
        lambda b: ngram_count_partial(b, text_col, n),
        batch_format="pyarrow", batch_size=None)
    counts = partials.groupby("ngram").aggregate(Sum("n", alias_name="n"))

    # counts are GLOBAL after the reduce, so per-block top-k partials +
    # a #blocks x k driver merge give the exact global top-k without
    # sorting the whole vocabulary table (which is corpus-scale for
    # large n)
    def _topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "ngram"], ascending=[False, True],
                             kind="mergesort").head(k)

    cand = counts.map_batches(_topk, batch_format="pandas",
                                             batch_size=None).to_pandas()
    out = cand.sort_values(["n", "ngram"], ascending=[False, True],
                           kind="mergesort").head(k).reset_index(drop=True)
    return to_dataset(pa.Table.from_pandas(out, preserve_index=False))


def char_pair_count_partial(batch: pa.Table,
                            text_col: str = "text") -> pa.Table:
    """Per-block adjacent-character-pair counts weighted by word
    frequency — the inner statistic of a BPE tokenizer-training
    iteration (count symbol pairs over the word-frequency table, merge
    the hottest).  Pair counts are LINEAR in word counts, so each block
    contributes pairs(word) × local_count(word) and the global
    groupby-sum over pair keys reconstructs pairs(word) ×
    global_count(word) exactly — no corpus-wide vocabulary shuffle is
    needed before the (tiny: ≤ alphabet²-row) pair exchange.

    Vectorized via the dictionary trick: np.unique the block's tokens
    first, decode the UNIQUE words once to a flat uint32 code-point
    array (utf-32), and form pairs with one shifted-index gather —
    per-pair work is O(total chars of unique words), not corpus chars.
    """
    texts = batch.column(text_col).to_pylist()
    toks = [w for t in texts for w in (t or "").split()]
    empty = pa.table({"a": pa.array([], pa.uint32()),
                      "b": pa.array([], pa.uint32()),
                      "n": pa.array([], pa.int64())})
    if not toks:
        return empty
    words, freqs = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
    joined = "".join(words)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(w) for w in words), dtype=np.int64,
                       count=len(words))
    ends = np.cumsum(lens)
    mask = np.ones(len(codes), dtype=bool)
    mask[ends - 1] = False  # last char of each word starts no pair
    left = np.flatnonzero(mask)
    if len(left) == 0:
        return empty
    a, b = codes[left], codes[left + 1]
    key = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
    f = np.repeat(freqs.astype(np.int64), np.maximum(lens - 1, 0))
    uk, inv = np.unique(key, return_inverse=True)
    sums = np.bincount(inv, weights=f.astype(np.float64)).astype(np.int64)
    return pa.table({
        "a": pa.array((uk >> np.uint64(32)).astype(np.uint32)),
        "b": pa.array((uk & np.uint64(0xFFFFFFFF)).astype(np.uint32)),
        "n": pa.array(sums, pa.int64()),
    })


def bpe_pair_counts(ds, text_col: str = "text", k: int = 20):
    """Global top-k adjacent symbol pairs weighted by word frequency
    (one BPE training iteration's merge-candidate ranking): per-block
    vectorized combiner -> one groupby-sum over ≤ alphabet² pair keys
    -> deterministic top-k (count DESC, pair ASC).  Returns
    Dataset[(a:str, b:str, n:int64)] of single-character symbols."""
    import pandas as pd
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        lambda t: char_pair_count_partial(t, text_col),
        batch_format="pyarrow", batch_size=None)

    def _pack(b: pa.Table) -> pa.Table:
        key = (b.column("a").to_numpy(zero_copy_only=False)
               .astype(np.uint64) << np.uint64(32)) | \
            b.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"pair": pa.array(key),
                         "n": b.column("n")})

    counts = (partials.map_batches(_pack, batch_format="pyarrow",
                                   batch_size=None)
              .groupby("pair").aggregate(Sum("n", alias_name="n")))
    # the reduced table is ≤ alphabet² rows — top-k on the driver.
    # uint64 pair-key order == (a, b) code-point order == UTF-8 string
    # order, so the tie-break matches SQL ORDER BY a, b exactly.
    df = counts.to_pandas().sort_values(
        ["n", "pair"], ascending=[False, True],
        kind="mergesort").head(int(k))
    pairs = df["pair"].to_numpy().astype(np.uint64)
    return to_dataset(pa.Table.from_pandas(pd.DataFrame({
        "a": [chr(int(p) >> 32) for p in pairs],
        "b": [chr(int(p) & 0xFFFFFFFF) for p in pairs],
        "n": df["n"].to_numpy().astype(np.int64),
    }), preserve_index=False))


def term_tf_rows(batch: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Per-doc term frequencies (doc_id, term, tf) — complete per block
    because one document is one row; tokenize + factorize once per
    block, count (doc, code) pairs with a single np.unique."""
    import pandas as pd

    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    tok_lists = [(t or "").split() for t in texts]
    all_toks = [w for tl in tok_lists for w in tl]
    if not all_toks:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    key = doc_idx * np.int64(len(uniques)) + codes
    uk, counts = np.unique(key, return_counts=True)
    return pa.table({
        "doc_id": pa.array(ids[uk // len(uniques)].astype(np.int64)),
        "term": pa.array(uniques[uk % len(uniques)], pa.string()),
        "tf": pa.array(counts.astype(np.int64), pa.int64()),
    })


def top_term_per_doc(docs_ds, text_col: str = "text"):
    """The most distinctive term of each document: highest tf, ties
    broken by LOWEST corpus document-frequency then term asc — the
    integer-exact core of tf-idf (no float idf, so results verify
    bitwise).

    Shape: tf rows are complete per block (docs are rows); the only
    exchange is the df reduce (groupby(term) over distinct (doc, term)
    rows).  The df map is broadcast (`ray.put` once) — holds to
    ~10^8-term vocabularies; beyond that swap the broadcast for a hash
    join on term (same `join.hash_join` machinery)."""
    import pandas as pd
    import ray

    # materialize: both consumers (df reduce, per-doc top) reuse the one
    # tokenize pass; tf lives in the object store (spillable), never on
    # the driver
    tf = docs_ds.map_batches(lambda b: term_tf_rows(b, text_col),
                             batch_format="pyarrow",
                             batch_size=None).materialize()
    # df = docs-per-term: tf rows are distinct per (doc, term), so a
    # per-block count partial + a driver pyarrow C++ merge (the
    # grouped_counts_local pattern — vocabulary-sized, not corpus-sized)
    parts = tf.map_batches(
        lambda b: b.group_by(["term"]).aggregate([([], "count_all")])
                   .rename_columns(["term", "df"]),
        batch_format="pyarrow", batch_size=None)
    dfm_tbl = collect(parts)[1].group_by(["term"]).aggregate([("df", "sum")])
    df_ref = ray.put(dict(zip(dfm_tbl.column("term").to_pylist(),
                              (int(x) for x in dfm_tbl.column("df_sum")
                               .to_pylist()))))

    def _top(b: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        pdf = b.to_pandas()
        pdf["df"] = pdf["term"].map(dfm).astype("int64")
        pdf = pdf.sort_values(["doc_id", "tf", "df", "term"],
                              ascending=[True, False, True, True],
                              kind="mergesort")
        out = pdf.groupby("doc_id", sort=False).head(1)
        return pa.Table.from_pandas(out.reset_index(drop=True),
                                    preserve_index=False)

    return tf.map_batches(_top, batch_format="pyarrow", batch_size=None)


# --- BM25 relevance scoring -------------------------------------------------

def bm25_scores(docs_ds, terms, text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
                round_to: int | None = 6):
    """Okapi BM25 score of every document against a fixed term list.

    Two passes: (1) a tiny stats aggregate — per block (n_docs,
    total_tokens, contains-count per term) rows, driver-merged to N,
    avgdl and idf_t = ln((N - df + 0.5)/(df + 0.5) + 1); (2) a
    broadcast-scalar scoring map — per block tokenize once (the
    term_tf_rows factorize kernel), then the left-fold sum over terms
    of idf_t * ((tf*(k1+1)) / (tf + k1*((1-b) + (b*dl)/avgdl))).

    The score is rounded to ``round_to`` decimals (both here and in
    the SQL oracle — the ANN-cosine precedent): ln() differs from
    DuckDB's in the last ulp on ~5% of arguments, so the unrounded
    float would not hash-compare."""
    import math

    import ray

    def _stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        n_toks = sum(len(tl) for tl in tok_lists)
        dfs = [sum(1 for tl in tok_lists if term in tl) for term in terms]
        return pa.table({
            "n": pa.array([len(texts)], pa.int64()),
            "toks": pa.array([n_toks], pa.int64()),
            "dfs": pa.array([dfs], pa.list_(pa.int64())),
        })

    parts = docs_ds.map_batches(_stats, batch_format="pyarrow",
                                batch_size=None).take_all()
    n_docs = int(sum(p["n"] for p in parts))
    tot_toks = int(sum(p["toks"] for p in parts))
    dfs = [int(sum(p["dfs"][i] for p in parts)) for i in range(len(terms))]
    avgdl = float(tot_toks) / float(n_docs)
    idfs = [math.log(((n_docs - df) + 0.5) / (df + 0.5) + 1.0) for df in dfs]
    ref = ray.put((list(terms), idfs, avgdl))

    def _score(batch: pa.Table) -> pa.Table:
        ts, idf, ad = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        dl = np.fromiter((len(tl) for tl in tok_lists), dtype=np.float64,
                         count=len(tok_lists))
        denom_base = k1 * ((1.0 - b) + (b * dl) / ad)
        score = np.zeros(len(texts), dtype=np.float64)
        for t, w in zip(ts, idf):
            tf = np.fromiter((tl.count(t) for tl in tok_lists),
                             dtype=np.float64, count=len(tok_lists))
            score = score + w * ((tf * (k1 + 1)) / (tf + denom_base))
        if round_to is not None:
            score = np.round(score, round_to)
        return pa.table({id_col: pa.array(ids.astype(np.int64), pa.int64()),
                         "bm25": pa.array(score, pa.float64())})

    return docs_ds.map_batches(_score, batch_format="pyarrow",
                               batch_size=None)


def chunk_documents_batch(batch: pa.Table, chunk_size: int = 64,
                          stride: int = 48, text_col: str = "text",
                          id_col: str = "doc_id") -> pa.Table:
    """Context-window sharding: split each document into overlapping
    token windows (``chunk_size`` whitespace tokens, step ``stride``) —
    the pre-tokenization shard step of an LLM training pipeline.

    Chunk starts are ``0, stride, 2*stride, ...`` while ``start <
    n_tokens`` (so trailing partial windows are emitted; empty docs
    emit nothing).  Output rows: (doc_id, chunk_idx, n_tokens,
    chunk_text).

    Vectorized bookkeeping (counts/starts/ends via numpy repeat +
    cumsum); the output strings themselves are built by one join per
    emitted chunk — that is the operator's own output materialization
    (O(total output tokens)), not an avoidable row loop."""
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "chunk_idx": pa.array([], pa.int64()),
                      "n_tokens": pa.array([], pa.int64()),
                      "chunk_text": pa.array([], pa.string())})
    n = batch.num_rows
    if n == 0:
        return empty
    ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
        zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    tok_lists = [(t or "").split() for t in texts]
    lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                       count=n)
    n_chunks = np.where(lens > 0, (lens - 1) // stride + 1, 0)
    total = int(n_chunks.sum())
    if total == 0:
        return empty
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
    # intra-doc chunk index: global arange minus each doc's chunk offset
    offs = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
    chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(offs, n_chunks)
    starts = chunk_idx * stride
    ends = np.minimum(starts + chunk_size, lens[doc_idx])
    doc_tok_offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
    gs = doc_tok_offs[doc_idx] + starts
    ge = doc_tok_offs[doc_idx] + ends
    all_toks = [w for tl in tok_lists for w in tl]
    chunk_text = [" ".join(all_toks[a:b]) for a, b in zip(gs, ge)]
    return pa.table({id_col: pa.array(ids[doc_idx], pa.int64()),
                     "chunk_idx": pa.array(chunk_idx, pa.int64()),
                     "n_tokens": pa.array(ends - starts, pa.int64()),
                     "chunk_text": pa.array(chunk_text, pa.string())})


def pack_greedy(ds, key_cols, order_cols, token_col: str,
                capacity: int, bin_col: str = "bin_idx"):
    """Greedy sequence packing: walk each key-group's rows in order and
    assign consecutive docs to bins while the bin's token total stays
    within ``capacity`` (a doc larger than capacity gets its own bin) —
    the context-window packing step before LLM pre-training
    tokenization.

    Packing is inherently sequential WITHIN a group (each bin boundary
    depends on the previous one), so scale comes from the KEY: callers
    pass a composite shard key (e.g. ``(lang, doc_id // 100)``) so
    groups are bounded and embarrassingly parallel — the standard
    per-shard packing semantics of training pipelines.  The per-group
    kernel is O(bins x log rows) (one ``searchsorted`` per emitted
    bin), never a per-row Python loop.  Bin ids are local to the
    group."""
    import pandas as pd

    key_cols = list(key_cols)
    order_cols = list(order_cols)

    def _pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, kind="mergesort")
        nt = g[token_col].to_numpy().astype(np.int64)
        cum = np.cumsum(nt)
        n = len(nt)
        bins = np.empty(n, dtype=np.int64)
        start, off, b = 0, 0, 0
        while start < n:
            j = int(np.searchsorted(cum, off + capacity, side="right")) - 1
            if j < start:
                j = start  # oversized doc: its own bin
            bins[start:j + 1] = b
            off = int(cum[j])
            start = j + 1
            b += 1
        return g.assign(**{bin_col: bins})

    return ds.groupby(key_cols).map_groups(_pack, batch_format="pandas")


def unigram_logprob(docs_ds, text_col: str = "text", id_col: str = "doc_id",
                    round_to: int | None = 6):
    """Unigram language-model score per document — the perplexity-style
    quality filter: train token frequencies on the corpus itself, then
    score each doc as sum over its tokens of ln(tf_token / total_tokens).

    -> Dataset[(doc_id, n_tokens, logprob)] for docs with >= 1 token
    (tokenization = whitespace runs, identical to the ``\\S+`` oracle).

    Two passes. (1) Global term frequencies: per-block np.unique
    partials (one (term, c) row per DISTINCT term per block), merged on
    the driver with pyarrow's C++ group_by — driver state is
    vocabulary-sized, the same documented bound (and hash-join
    alternative) as top_term_per_doc's df broadcast.  (2) Broadcast
    {term -> tf} + total once via the object store; each block
    factorizes its tokens (np.unique + inverse), looks up ln-probs per
    DISTINCT term only, and segment-sums per doc with np.add.reduceat.

    The score is rounded to ``round_to`` decimals on both sides (the
    BM25/ANN-cosine precedent): ln() and cross-term addition order
    diverge from DuckDB in the last ulp."""
    import ray

    def _tf_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        flat = [w for t in texts for w in (t or "").split()]
        if not flat:
            return pa.table({"term": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(flat, dtype=object),
                                 return_counts=True)
        return pa.table({"term": pa.array(uniq.astype(str)),
                         "c": pa.array(counts.astype(np.int64))})

    _, tbl = collect(docs_ds.map_batches(_tf_partial, batch_format="pyarrow",
                                         batch_size=None))
    merged = tbl.group_by("term").aggregate([("c", "sum")])
    terms = merged.column("term").to_pylist()
    counts = merged.column("c_sum").to_numpy(zero_copy_only=False)
    total = float(counts.sum())
    tf = dict(zip(terms, counts.astype(np.int64).tolist()))
    ref = ray.put((tf, total))

    def _score(batch: pa.Table) -> pa.Table:
        tf_map, tot = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                           count=len(tok_lists))
        flat = [w for tl in tok_lists for w in tl]
        keep = lens > 0
        if not flat:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "logprob": pa.array([], pa.float64())})
        uniq, inv = np.unique(np.asarray(flat, dtype=object),
                              return_inverse=True)
        lp_uniq = np.log(
            np.fromiter((tf_map[w] for w in uniq), dtype=np.float64,
                        count=len(uniq)) / tot)
        per_tok = lp_uniq[inv]
        offsets = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:]) if len(texts) > 1 else None
        doc_lp = np.add.reduceat(per_tok, offsets[keep]) \
            if keep.any() else np.empty(0)
        if round_to is not None:
            doc_lp = np.round(doc_lp, round_to)
        return pa.table({
            id_col: pa.array(ids[keep].astype(np.int64), pa.int64()),
            "n_tokens": pa.array(lens[keep], pa.int64()),
            "logprob": pa.array(doc_lp, pa.float64()),
        })

    return docs_ds.map_batches(_score, batch_format="pyarrow",
                               batch_size=None)


def dsir_importance(docs_ds, target_col: str = "lang",
                    target_value: str = "en", text_col: str = "text",
                    id_col: str = "doc_id", round_to: int | None = 6):
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023,
    arXiv:2302.03169), word-unigram feature space: score every document
    by the log importance weight of a TARGET domain (here the rows with
    ``target_col == target_value``) against the raw corpus —

        importance(d) = sum over tokens w of
            ln p_target(w) - ln p_raw(w)

    with add-one (Laplace) smoothing over the shared corpus vocabulary
    on BOTH distributions, so unseen-in-target words get a finite
    penalty and the two estimators stay comparable.  High-importance
    docs are the ones resampling keeps; compose with
    ``sample.weighted_priority_sample`` / a top-k for the draw itself
    (returning the full scored table is the stronger oracle surface).

    -> Dataset[(doc_id, n_tokens, importance)] for docs with >= 1 token.

    Distribution shape = :func:`unigram_logprob` with a second counter:
    ONE pass of per-block np.unique partials emitting (term, c_all,
    c_tgt) — the target counts ride the same rows, so the target pass
    is free — merged on the driver with pyarrow's C++ group_by (driver
    state is vocabulary-sized, the documented bound, with the same
    hash-join escape hatch as top_term_per_doc); then the {term ->
    weight} map is broadcast ONCE via the object store and every block
    factorizes (np.unique + inverse) and segment-sums per doc with
    np.add.reduceat — no shuffle anywhere.

    ``round_to`` (6dp both sides) is the BM25/ln precedent: ln() and
    cross-term addition order diverge from DuckDB in the last ulp."""
    import ray

    def _tf_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        is_tgt = pc.equal(batch.column(target_col),
                          target_value).to_numpy(zero_copy_only=False)
        flat, flat_tgt = [], []
        for t, g in zip(texts, is_tgt):
            toks = (t or "").split()
            flat.extend(toks)
            if g:
                flat_tgt.extend(toks)
        if not flat:
            return pa.table({"term": pa.array([], pa.string()),
                             "c_all": pa.array([], pa.int64()),
                             "c_tgt": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(flat, dtype=object),
                                 return_counts=True)
        tgt = np.zeros(len(uniq), dtype=np.int64)
        if flat_tgt:
            ut, ct = np.unique(np.asarray(flat_tgt, dtype=object),
                               return_counts=True)
            tgt[np.searchsorted(uniq, ut)] = ct
        return pa.table({"term": pa.array(uniq.astype(str)),
                         "c_all": pa.array(counts.astype(np.int64)),
                         "c_tgt": pa.array(tgt)})

    _, tbl = collect(docs_ds.map_batches(_tf_partial, batch_format="pyarrow",
                                         batch_size=None))
    merged = tbl.group_by("term").aggregate([("c_all", "sum"),
                                             ("c_tgt", "sum")])
    terms = merged.column("term").to_pylist()
    c_all = merged.column("c_all_sum").to_numpy(zero_copy_only=False)
    c_tgt = merged.column("c_tgt_sum").to_numpy(zero_copy_only=False)
    vocab = float(len(terms))
    t_all, t_tgt = float(c_all.sum()), float(c_tgt.sum())
    # per-term weight, the exact per-row expression the oracle computes
    w = (np.log((c_tgt + 1.0) / (t_tgt + vocab))
         - np.log((c_all + 1.0) / (t_all + vocab)))
    ref = ray.put(dict(zip(terms, w.tolist())))

    def _score(batch: pa.Table) -> pa.Table:
        w_map = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        lens = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                           count=len(tok_lists))
        flat = [t for tl in tok_lists for t in tl]
        keep = lens > 0
        if not flat:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "importance": pa.array([], pa.float64())})
        uniq, inv = np.unique(np.asarray(flat, dtype=object),
                              return_inverse=True)
        w_uniq = np.fromiter((w_map[t] for t in uniq), dtype=np.float64,
                             count=len(uniq))
        per_tok = w_uniq[inv]
        offsets = np.zeros(len(texts), dtype=np.int64)
        if len(texts) > 1:
            np.cumsum(lens[:-1], out=offsets[1:])
        imp = np.add.reduceat(per_tok, offsets[keep]) \
            if keep.any() else np.empty(0)
        if round_to is not None:
            imp = np.round(imp, round_to)
        return pa.table({
            id_col: pa.array(ids[keep].astype(np.int64), pa.int64()),
            "n_tokens": pa.array(lens[keep], pa.int64()),
            "importance": pa.array(imp, pa.float64()),
        })

    return docs_ds.map_batches(_score, batch_format="pyarrow",
                               batch_size=None)


def _edit_distance_is_1(u: str, v: str) -> bool:
    """Exact check dist(u, v) == 1 (classic two-pointer; O(len))."""
    lu, lv = len(u), len(v)
    if abs(lu - lv) > 1 or u == v:
        return False
    if lu == lv:                       # exactly one substitution?
        seen = False
        for a, b in zip(u, v):
            if a != b:
                if seen:
                    return False
                seen = True
        return seen
    if lu > lv:                        # ensure u is the shorter
        u, v, lu, lv = v, u, lv, lu
    i = 0                              # one insertion?
    while i < lu and u[i] == v[i]:
        i += 1
    return u[i:] == v[i + 1:]


def token_typo_pairs(docs_ds, text_col: str = "text"):
    """Fuzzy token matching (typo detection): all pairs of DISTINCT
    corpus tokens at edit distance exactly 1, via the FastSS
    deletion-neighborhood — each token emits itself plus its
    single-deletion variants; two tokens at distance <= 1 ALWAYS share
    a variant (substitution: both delete position i; indel: the longer
    token's deletion IS the shorter token), so bucketing variants has
    recall 1 and only the cheap exact check runs per candidate.

    -> Dataset[(tok_a, tok_b)] with tok_a < tok_b.

    Shape: vocabulary via per-block unique partials + driver merge
    (vocab-bounded — this is a TOKEN-level operator, never doc-scale);
    variant rows ~ vocab x (len+1); candidate pairs from the one pair
    kernel (functions.pairs.run_pairs) per coarse variant-hash group
    (dedup._coarse_grouped_pairs); the per-pair verify loop is
    vocab-bounded, not corpus-bounded.
    """
    import ray
    import ray.data

    from .dedup import _coarse_grouped_pairs, _column, _keyed_pairs

    def _vocab_partial(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        toks = {w for t in texts for w in (t or "").split()}
        return pa.table({"w": pa.array(sorted(toks), pa.string())})

    _, vtbl = collect(docs_ds.map_batches(_vocab_partial,
                                          batch_format="pyarrow",
                                          batch_size=None))
    vocab = sorted(set(_column(vtbl, "w").tolist()))
    if len(vocab) < 2:
        return to_dataset(pa.table({
            "tok_a": pa.array([], pa.string()),
            "tok_b": pa.array([], pa.string())}))

    # variant rows: (variant-hash, token-code); built from the vocab
    # list itself (vocab-bounded), sharded so expansion parallelizes
    vocab_ref = ray.put(vocab)
    n_shards = max(1, min(64, len(vocab) // 4096 + 1))

    def _variants(b: pa.Table) -> pa.Table:
        import hashlib

        vs = ray.get(vocab_ref)
        shard = b.column("id").to_numpy(zero_copy_only=False)
        hs, codes = [], []
        # Python's builtin hash() is per-process randomized — workers
        # must agree on buckets, so hash variants with md5
        for s in shard:
            for code in range(int(s), len(vs), n_shards):
                w = vs[code]
                forms = {w} | {w[:i] + w[i + 1:] for i in range(len(w))}
                for f in forms:
                    hs.append(int.from_bytes(
                        hashlib.md5(f.encode("utf-8")).digest()[:8],
                        "little") & 0x7FFFFFFFFFFFFFFF)
                    codes.append(code)
        return pa.table({"vh": pa.array(np.asarray(hs, np.int64)),
                         "code": pa.array(np.asarray(codes, np.int64))})

    rows = ray.data.range(n_shards).map_batches(
        _variants, batch_format="pyarrow", batch_size=None).materialize()
    parts = _coarse_grouped_pairs(
        rows, lambda b: b.column("vh").to_numpy(zero_copy_only=False)
        .view(np.uint64),
        lambda g: _keyed_pairs(g, "vh", id_col="code")[["a", "b"]])

    def _verify(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or len(b) == 0:
            return pa.table({"tok_a": pa.array([], pa.string()),
                             "tok_b": pa.array([], pa.string())})
        vs = ray.get(vocab_ref)
        a = b.column("a").to_numpy(zero_copy_only=False)
        bb = b.column("b").to_numpy(zero_copy_only=False)
        keep_a, keep_b = [], []
        for x, y in zip(a, bb):
            u, v = vs[int(x)], vs[int(y)]
            if _edit_distance_is_1(u, v):
                keep_a.append(u)
                keep_b.append(v)
        return pa.table({"tok_a": pa.array(keep_a, pa.string()),
                         "tok_b": pa.array(keep_b, pa.string())})

    out = parts.map_batches(_verify, batch_format="pyarrow",
                            batch_size=None)
    # cross-group duplicates (one pair via several shared variants land
    # in different vh groups) collapse in one distinct pass over the
    # pair table (pair-cardinality-bounded)
    from ray.data.aggregate import Count
    return out.groupby(["tok_a", "tok_b"]).aggregate(
        Count(alias_name="_c")).drop_columns(["_c"])
