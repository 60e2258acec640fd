"""Curation operators: PII redaction, eval-set decontamination,
repetition signals, dataset profiling."""

import numpy as np
import pyarrow as pa
import pytest
from conftest import scale_tier

from sylk.stages.curate import (
    _shingle_pairs_batch,
    decontaminate,
    profile_columns,
    redact_pii_batch,
    repetition_scores_batch,
)


def test_redact_pii_batch_counts_and_text():
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [
            "reach me at alice.smith+dev@example.co.uk or 192.168.0.42 now",
            "no pii here at all",
            "two mails a@b.io c@d.org and ips 10.0.0.1 8.8.8.8",
        ],
    })
    out = redact_pii_batch(t)
    assert out.column("n_emails").to_pylist() == [1, 0, 2]
    assert out.column("n_ipv4").to_pylist() == [1, 0, 2]
    red = out.column("redacted").to_pylist()
    assert red[0] == "reach me at <EMAIL> or <IP> now"
    assert red[1] == "no pii here at all"
    assert red[2] == "two mails <EMAIL> <EMAIL> and ips <IP> <IP>"


def test_redact_pii_email_before_ip_order():
    # a dotted-quad inside an email's (alpha-TLD) host must be swallowed
    # by the EMAIL pass, not double-counted by the IP pass; an
    # all-numeric host is NOT an email and stays an IP hit
    t = pa.table({"doc_id": [1, 2],
                  "text": ["x u@10.1.2.34.com y 1.2.3.4",
                           "x u@10.1.2.34 y"]})
    out = redact_pii_batch(t)
    assert out.column("n_emails").to_pylist() == [1, 0]
    assert out.column("n_ipv4").to_pylist() == [1, 1]
    assert out.column("redacted").to_pylist() == ["x <EMAIL> y <IP>",
                                                  "x u@<IP> y"]


def test_shingle_pairs_exact_and_short_doc_guard():
    t = pa.table({
        "doc_id": [10, 11, 12],
        "text": ["a b c d", "a b c", "x y z w v"],
    })
    out = _shingle_pairs_batch(t, k=3)
    pairs = sorted(zip(out.column("doc_id").to_pylist(),
                       out.column("shingle").to_pylist()))
    assert pairs == [
        (10, "a b c"), (10, "b c d"),
        (11, "a b c"),
        (12, "x y z"), (12, "y z w"), (12, "z w v"),
    ]
    # shorter than k emits nothing
    t2 = pa.table({"doc_id": [1], "text": ["only two"]})
    assert _shingle_pairs_batch(t2, k=3).num_rows == 0


def test_shingle_pairs_dedupes_within_doc():
    t = pa.table({"doc_id": [5], "text": ["p q p q p q"]})
    out = _shingle_pairs_batch(t, k=2)
    assert sorted(out.column("shingle").to_pylist()) == ["p q", "q p"]


def _decon_datasets():
    import ray.data

    bench = ray.data.from_items([
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 1,
         "text": "totally unrelated benchmark question here ok indeed right now"},
    ])
    corpus = ray.data.from_items([
        # contains both bench-0 8-grams
        {"doc_id": 100,
         "text": "prefix the quick brown fox jumps over the lazy dog suffix"},
        {"doc_id": 101, "text": "clean document with no benchmark overlap at all"},
        # shares only bench-1's FIRST 8-gram
        {"doc_id": 102,
         "text": "totally unrelated benchmark question here ok indeed right plus"},
    ])
    return corpus, bench


def test_decontaminate_broadcast_flags_overlap():
    corpus, bench = _decon_datasets()
    out = {r["doc_id"]: r["n_hit"]
           for r in decontaminate(corpus, bench, k=8).take_all()}
    # doc 100 shares 2 distinct 8-grams (both windows of the 9-token
    # bench doc 0), doc 102 shares 1 (bench 1's first window), 101 none
    assert out == {100: 2, 102: 1}


def test_decontaminate_distributed_equivalence(monkeypatch):
    corpus, bench = _decon_datasets()
    a = {(r["doc_id"], r["n_hit"])
         for r in decontaminate(corpus, bench, k=8).take_all()}
    scale_tier(monkeypatch)
    b = {(r["doc_id"], r["n_hit"])
         for r in decontaminate(corpus, bench, k=8).take_all()}
    assert a == b and a


def test_repetition_scores_hand_example():
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a b a b a", "all distinct words here", "single"],
    })
    out = repetition_scores_batch(t)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    # doc 1 grams: ab ba ab ba -> n=4, distinct=2, top=2, frac=0.5
    assert rows[1]["n_2grams"] == 4
    assert rows[1]["distinct_2grams"] == 2
    assert rows[1]["top_2gram_count"] == 2
    assert rows[1]["dup_2gram_frac"] == pytest.approx(0.5)
    assert rows[2]["n_2grams"] == 3
    assert rows[2]["distinct_2grams"] == 3
    assert rows[2]["dup_2gram_frac"] == 0.0
    # <2 tokens -> all zeros
    assert rows[3]["n_2grams"] == 0
    assert rows[3]["top_2gram_count"] == 0
    assert rows[3]["dup_2gram_frac"] == 0.0


def test_repetition_scores_differential_random():
    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(["u", "v", "w", "x"], size=n))
             for n in rng.integers(0, 40, size=60)]
    t = pa.table({"doc_id": list(range(60)), "text": texts})
    out = {r["doc_id"]: r for r in repetition_scores_batch(t).to_pylist()}
    for i, txt in enumerate(texts):
        toks = txt.split()
        grams = [" ".join(toks[j:j + 2]) for j in range(len(toks) - 1)]
        n, d = len(grams), len(set(grams))
        assert out[i]["n_2grams"] == n
        assert out[i]["distinct_2grams"] == d
        top = max((grams.count(g) for g in set(grams)), default=0)
        assert out[i]["top_2gram_count"] == top
        exp = (n - d) / n if n else 0.0
        assert out[i]["dup_2gram_frac"] == pytest.approx(exp)


def test_profile_columns_with_nulls_and_dupes():
    import ray.data

    t = pa.table({
        "a": pa.array([1, 1, 2, None, 3], pa.int64()),
        "b": pa.array(["x", None, None, "x", "y"], pa.string()),
        "c": pa.array([1.5, 2.5, 1.5, 1.5, 2.5], pa.float64()),
    })
    # split across blocks to prove the partial/merge path
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 3)])
    out = {r["col"]: r for r in profile_columns(ds, ["a", "b", "c"])
           .take_all()}
    assert out["a"] == {"col": "a", "n_rows": 5, "n_null": 1,
                        "n_distinct": 3}
    assert out["b"] == {"col": "b", "n_rows": 5, "n_null": 2,
                        "n_distinct": 2}
    assert out["c"] == {"col": "c", "n_rows": 5, "n_null": 0,
                        "n_distinct": 2}


def test_curate_corpus_end_to_end_planted():
    """Each curation stage drops exactly its planted victim: exact dup,
    near-dup, repetition spam, eval-contaminated doc."""
    import ray.data

    from sylk.pipelines.curation import curate_corpus

    clean3 = "w" + " ".join(f"tok{i}" for i in range(19))
    near_a = " ".join(f"n{i}" for i in range(20))
    near_b = near_a.replace("n10", "DIFFERENT")
    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota"
    corpus = ray.data.from_items([
        {"doc_id": 1, "text": clean3},
        {"doc_id": 2, "text": clean3},                  # exact dup of 1
        {"doc_id": 3, "text": near_a},
        {"doc_id": 4, "text": near_b},                  # near dup of 3
        {"doc_id": 5, "text": "x y " * 30},             # repetition spam
        {"doc_id": 6,                                    # contaminated
         "text": "prefix alpha beta gamma delta epsilon zeta eta theta"},
        {"doc_id": 7, "text": " ".join(f"ok{i}" for i in range(25))},
    ])
    bench = ray.data.from_items([{"doc_id": 100, "text": bench_text}])
    kept = sorted(r["doc_id"] for r in
                  curate_corpus(corpus, bench, min_tokens=3,
                                max_dup_frac=0.3, decon_k=8).take_all())
    assert kept == [1, 3, 7]


def test_profile_columns_empty_string_vs_stats_row():
    import ray.data

    # a real "" value must not collide with the stats sentinel row
    t = pa.table({"s": pa.array(["", "", "z", None], pa.string())})
    ds = ray.data.from_arrow(t)
    out = profile_columns(ds, ["s"]).take_all()[0]
    assert out["n_rows"] == 4 and out["n_null"] == 1
    assert out["n_distinct"] == 2  # "" and "z"
