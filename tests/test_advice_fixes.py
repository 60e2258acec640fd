"""Regression tests for the round-2 advisor findings: uint64 pair
packing for doc ids >= 2^31, null-safe semi/anti broadcast keys,
overflow-safe n-gram radix packing, and the bounded tier probe."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import sylk.stages.dedup as dedup


def test_expand_runs_ids_above_2_31():
    """Doc ids in [2^31, 2^32) must survive the packed-key path:
    signed-int64 packing used to overflow (a << 32 negative) and decode
    wrong doc ids for EVERY LSH candidate family."""
    big = 2147483653  # 2^31 + 5, the advisor's reproduction id
    ids = np.array([big, 7, big, 7, 4294967295, 4294967294], dtype=np.int64)
    starts = np.array([0, 2, 4])
    stops = np.array([2, 4, 6])
    out = dedup._expand_runs_to_pairs(ids, starts, stops)
    got = set(zip(out["a"], out["b"]))
    assert got == {(7, big), (4294967294, 4294967295)}
    assert (out["a"] >= 0).all() and (out["b"] >= 0).all()


def test_expand_runs_matches_set_fallback():
    """Packed path and the arbitrary-id set fallback agree on the same
    runs (differential check across the packing boundary)."""
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 1 << 32, size=200, dtype=np.int64)
    starts = np.arange(0, 200, 10)
    stops = starts + 10
    fast = dedup._expand_runs_to_pairs(ids, starts, stops)
    # force the fallback by appending an out-of-range run
    ids2 = np.concatenate([ids, np.array([1 << 40, 1 << 40], dtype=np.int64)])
    starts2 = np.concatenate([starts, [200]])
    stops2 = np.concatenate([stops, [202]])
    slow = dedup._expand_runs_to_pairs(ids2, starts2, stops2)
    fast_set = set(zip(fast["a"], fast["b"]))
    slow_set = set(zip(slow["a"], slow["b"]))
    assert slow_set == fast_set  # the appended run is a self-pairless dup pair? no:
    # (1<<40, 1<<40) dedupes to a single id -> no pair, so sets match


def test_semi_anti_null_right_keys(ray_session):
    """A NULL right-side key must never match (SQL semantics), not crash
    the broadcast tier's sorted()."""
    import ray.data

    from sylk.stages.join import anti_join, semi_join

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3, None], pa.int64()),
                                         "v": pa.array(["a", "b", "c", "d"])}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([2, None], pa.int64())}))
    semi = semi_join(left, right, "k").to_pandas()
    assert semi["v"].tolist() == ["b"]
    anti = anti_join(left, right, "k").to_pandas()
    assert sorted(anti["v"]) == ["a", "c", "d"]

    # all-null right side: semi -> empty, anti -> whole left
    right_null = ray.data.from_arrow(pa.table({"k": pa.array([None, None], pa.int64())}))
    assert semi_join(left, right_null, "k").count() == 0
    assert anti_join(left, right_null, "k").count() == 4


def test_ngram_partial_overflow_string_fallback():
    """v^n beyond int64 takes the string-join path and still counts
    exactly (distinct 12-grams never merge)."""
    from sylk.stages.text import ngram_count_partial

    rng = np.random.default_rng(3)
    vocab = [f"tok{i}" for i in range(64)]
    docs = [" ".join(rng.choice(vocab, size=40)) for _ in range(30)]
    batch = pa.table({"text": pa.array(docs)})
    n = 12
    assert 64 ** n >= (1 << 62)  # this input must exercise the fallback
    out = ngram_count_partial(batch, "text", n).to_pandas()
    # brute-force expected counts
    from collections import Counter
    exp = Counter()
    for d in docs:
        toks = d.split()
        for i in range(len(toks) - n + 1):
            exp[" ".join(toks[i:i + n])] += 1
    got = dict(zip(out["ngram"], out["n"]))
    assert got == dict(exp)


def test_bounded_collect_probe(ray_session):
    """Above the limit the driver never receives a concatenated table —
    the decision comes from materialized block metadata."""
    import ray.data

    from sylk.stages.collect import collect

    ds = ray.data.range(100).map_batches(
        lambda b: pa.table({"x": b.column("id")}), batch_format="pyarrow")
    mds, tbl = collect(ds, limit=10)
    assert tbl is None
    assert mds.count() == 100  # still usable for the distributed tier
    mds2, tbl2 = collect(ds, limit=1000)
    assert tbl2 is not None and len(tbl2) == 100


def test_connected_components_chain(ray_session):
    """A 10-node chain needs several propagation rounds (diameter 9);
    a star and singletons converge in one."""
    import ray.data

    from sylk.stages.dedup import connected_components

    nodes = ray.data.from_items([{"doc_id": i} for i in range(16)])
    # chain 0-..-9, star 12<-{13,14}, singletons 10, 11, 15
    edges = [{"a": i, "b": i + 1} for i in range(9)]
    edges += [{"a": 13, "b": 12}, {"a": 14, "b": 12}]
    out = connected_components(
        nodes, ray.data.from_items(edges)).to_pandas()
    got = dict(zip(out.doc_id, out.cluster_id))
    for i in range(10):
        assert got[i] == 0, (i, got[i])
    for i in (12, 13, 14):
        assert got[i] == 12
    for i in (10, 11, 15):
        assert got[i] == i


def test_connected_components_no_edges(ray_session):
    import ray.data

    from sylk.stages.dedup import connected_components

    nodes = ray.data.from_items([{"doc_id": i} for i in range(5)])
    empty = ray.data.from_pandas(pd.DataFrame(
        {"a": pd.Series([], dtype="int64"),
         "b": pd.Series([], dtype="int64")}))
    out = connected_components(nodes, empty).to_pandas()
    assert (out.doc_id == out.cluster_id).all()
