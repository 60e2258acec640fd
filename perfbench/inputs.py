"""Seeded benchmark inputs, their oracles, and the on-disk cache.

Everything here is a pure function of ``(seed, scale)``: the same seed
gives byte-identical inputs.  sylk receives only the generated files.

* Transcripts come from ``sylk.sources.transcripts.synth_batch``.  The
  seed only picks the global row-index base.  The base is a multiple of
  4800 (the lcm of the 192-PRI cycle and the 100-row kind cycle), so
  every seed gets the same 80/10/7/3 valid/conformance/malformed/reject
  mix.  It stays below 2**31 so that ``turn_idx`` (int32) never wraps.
* Store documents and embeddings are generated here, one increment at a
  time from ``(seed, increment)``.  The seed also picks the id offsets,
  the query terms and the query vectors.

Inputs are written once per (seed, scale, generator-source hash) under
the cache directory, outside any timing.  Oracle results are cached
beside them, keyed additionally by the oracle's source hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROW_CYCLE = 4800  # lcm(192 PRI values, 100-row kind cycle)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    batch_files: int  # transcript files of the batch workloads
    batch_rows_per_file: int
    files_per_unit: int  # run_flagship unit size for batch_route
    follow_history: int  # shards committed before each follow wake
    follow_rows_per_shard: int
    store_docs: int  # documents (and vectors) per increment
    store_initial: int  # increments ingested before the timed window
    n_buckets: int
    n_cells: int
    dim: int

    def __post_init__(self):
        # whole 4800-row cycles keep the mix the same for every seed
        for n in (self.batch_rows_per_file, self.follow_rows_per_shard):
            if n % ROW_CYCLE:
                raise ValueError(f"{n} rows is not a multiple of {ROW_CYCLE}")


FULL = Scale(batch_files=4, batch_rows_per_file=14_400, files_per_unit=2,
             follow_history=1, follow_rows_per_shard=4_800,
             store_docs=6_000, store_initial=2, n_buckets=16, n_cells=8,
             dim=32)
TINY = Scale(batch_files=2, batch_rows_per_file=ROW_CYCLE, files_per_unit=1,
             follow_history=1, follow_rows_per_shard=ROW_CYCLE,
             store_docs=300, store_initial=2, n_buckets=4, n_cells=4, dim=8)
SCALES = {"full": FULL, "tiny": TINY}


def _source_hash(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(os.path.join(_ROOT, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def generator_hash() -> str:
    return _source_hash("sylk/sources/transcripts.py", "sylk/sources/corpus.py",
                        "perfbench/inputs.py")


def oracle_hash() -> str:
    return _source_hash("sylk/functions/reference_semantics.py",
                        "sylk/functions/canonical_json.py",
                        "perfbench/inputs.py", "perfbench/oracle.py",
                        "perfbench/workloads.py")


def seed_int(seed: int, salt: str) -> int:
    """A 64-bit integer derived from the seed (process-invariant)."""
    d = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(d[:8], "little")


def row_base(seed: int, n_rows: int) -> int:
    """Global row-index base for ``seed``: a multiple of ROW_CYCLE with
    ``base + n_rows < 2**31``."""
    slots = (2**31 - 1 - n_rows) // ROW_CYCLE
    return (seed_int(seed, "rows") % slots) * ROW_CYCLE


def cache_dir(root: str, kind: str, seed: int, scale_name: str) -> str:
    return os.path.join(root, f"{kind}-{scale_name}-s{seed}-{generator_hash()}")


def _write_atomic_table(tbl: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def transcript_files(cdir: str, seed: int, n_files: int,
                     rows_per_file: int) -> list[str]:
    """``n_files`` transcript files of ``rows_per_file`` consecutive rows
    starting at the seed's row base; written on first use."""
    from sylk.sources.transcripts import synth_batch

    os.makedirs(cdir, exist_ok=True)
    base = row_base(seed, n_files * rows_per_file)
    out = []
    for i in range(n_files):
        path = os.path.join(cdir, f"part-{i:05d}.parquet")
        if not os.path.exists(path):
            lo = base + i * rows_per_file
            _write_atomic_table(
                synth_batch(np.arange(lo, lo + rows_per_file, dtype=np.int64)),
                path)
        out.append(path)
    return out


# ---------------------------------------------------------------- stores

_VOCAB = [f"{a}{b}" for a in ("ka", "lo", "mi", "nu", "pe", "ro", "su", "ta",
                              "ve", "wo", "xi", "yu", "za", "bo", "ce", "di")
          for b in ("n", "r", "s", "t", "l", "m", "k", "x", "d", "p",
                    "g", "f", "v", "b", "h", "z")]
_ZIPF = 1.0 / np.arange(1, len(_VOCAB) + 1) ** 1.05
_ZIPF /= _ZIPF.sum()


def _vocab(seed: int) -> list[str]:
    """The words by frequency rank.  The seed permutes which word holds
    which rank, so the words differ between seeds while every rank, and
    so the work a query on it causes, stays the same."""
    order = np.random.default_rng([seed, 0, 6]).permutation(len(_VOCAB))
    return [_VOCAB[i] for i in order]


def _id_base(seed: int) -> int:
    return (seed_int(seed, "ids") % 1000) * 10_000_000


def doc_ids(seed: int, inc: int, n_docs: int) -> np.ndarray:
    return _id_base(seed) + inc * 1_000_000 + np.arange(n_docs, dtype=np.int64)


def docs_increment(seed: int, inc: int, n_docs: int) -> pa.Table:
    """Increment ``inc`` of the documents table: ``doc_id``, ``text``."""
    rng = np.random.default_rng([seed, inc, 1])
    vocab = _vocab(seed)
    lens = rng.integers(6, 40, n_docs)
    toks = rng.choice(len(vocab), size=int(lens.sum()), p=_ZIPF)
    texts, pos = [], 0
    for n in lens:
        texts.append(" ".join(vocab[t] for t in toks[pos:pos + n]))
        pos += n
    return pa.table({"doc_id": pa.array(doc_ids(seed, inc, n_docs), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _centers(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0, 2])
    return rng.normal(size=(12, dim))


def emb_increment(seed: int, inc: int, n_vecs: int, dim: int) -> pa.Table:
    """Increment ``inc`` of the embeddings table: ``vec_id``,
    ``embedding`` (clustered, so IVF cells are meaningfully filled)."""
    rng = np.random.default_rng([seed, inc, 3])
    centers = _centers(seed, dim)
    which = rng.integers(0, len(centers), n_vecs)
    vecs = centers[which] + 0.35 * rng.normal(size=(n_vecs, dim))
    return pa.table({
        "vec_id": pa.array(doc_ids(seed, inc, n_vecs), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
    })


# frequency ranks of the query words: fixed, so every seed's probes
# touch postings of the same sizes
_BM25_RANKS = (24, 31, 38)
_AND_RANKS = (6, 11)
_PHRASE_RANKS = (4, 9)


def store_queries(seed: int, dim: int) -> dict:
    """One query per probe kind.  The seed picks the words (through the
    rank permutation) and the query vectors; every round-robin repeats
    the same four probes, so rounds are comparable."""
    vocab = _vocab(seed)
    rng = np.random.default_rng([seed, 0, 4])
    centers = _centers(seed, dim)
    ann = (centers[rng.choice(len(centers), 4)]
           + 0.5 * rng.normal(size=(4, dim))).tolist()
    return {"bm25": [vocab[r] for r in _BM25_RANKS],
            "and": [vocab[r] for r in _AND_RANKS],
            "phrase": [vocab[r] for r in _PHRASE_RANKS], "ann": ann}


def delete_ids(seed: int, incs: list[int], n_docs: int) -> list[int]:
    """About 1% of the ids of ``incs``, picked by the seed."""
    rng = np.random.default_rng([seed, 0, 5])
    ids = np.concatenate([doc_ids(seed, i, n_docs) for i in incs])
    k = max(1, len(ids) // 100)
    return sorted(int(x) for x in rng.choice(ids, k, replace=False))


def input_digest(paths: list[str]) -> str:
    """sha256 over the files' bytes, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def load_json(path: str):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


def save_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)
