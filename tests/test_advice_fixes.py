"""Regression tests for the round-2 advisor findings: the pair kernel
over any int64 id (>= 2^31, >= 2^32, negative), null-safe semi/anti
broadcast keys, overflow-safe n-gram radix packing, and the bounded
tier probe."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _brute_pairs(keys, ids, weights=None):
    """Reference: every id pair of each run by itertools.combinations."""
    runs = {}
    for i, row in enumerate(zip(*keys, ids)):
        run = runs.setdefault(row[:-1], {})
        run.setdefault(int(row[-1]), i)  # first (key, id) row wins
    acc = {}
    for run in runs.values():
        for x, y in itertools.combinations(sorted(run), 2):
            w = 1 if weights is None else (weights[run[x]]
                                           * weights[run[y]])
            acc[(x, y)] = acc.get((x, y), 0) + w
    return acc


_BIG = 2147483653  # 2^31 + 5, the advisor's reproduction id
_RNG = np.random.default_rng(7)
_PAIR_CASES = {
    # int64 packing of (a << 32 | b) used to overflow at a >= 2^31
    "ids-around-2^31": ([np.array([1, 1, 2, 2, 3, 3, 3])],
                        np.array([_BIG, 7, _BIG, 7, 4294967295, 4294967294,
                                  2147483647]), None),
    "ids-above-2^32": ([_RNG.integers(0, 12, 300)],
                       _RNG.integers(1 << 32, (1 << 32) + 60, 300), None),
    "negative-ids": ([_RNG.integers(0, 8, 200)],
                     _RNG.integers(-(1 << 40), 50, 200), None),
    "repeated-key-id-rows": ([np.array([5, 5, 5, 5, 6, 6])],
                             np.array([9, 9, 4, 4, 9, 9]), None),
    "single-member-runs": ([np.arange(50)], _RNG.integers(0, 100, 50), None),
    "two-column-keys": ([_RNG.integers(0, 3, 400), _RNG.integers(0, 4, 400)],
                        _RNG.integers(0, 40, 400), None),
    "weighted": ([_RNG.integers(0, 10, 300).astype(np.uint64)],
                 _RNG.integers(0, 1 << 50, 300), _RNG.random(300)),
    "empty": ([np.array([], np.int64)], np.array([], np.int64), None),
    "empty-weighted": ([np.array([], np.int64)], np.array([], np.int64),
                       np.array([], np.float64)),
}


@pytest.mark.parametrize("case", list(_PAIR_CASES))
def test_run_pairs_matches_brute_force(case):
    """The one pair kernel equals a combinations-per-run reference:
    ids are remapped to dense codes, so any int64 id survives the
    uint32 packing."""
    from sylk.functions.pairs import run_pairs

    keys, ids, weights = _PAIR_CASES[case]
    a, b, v = run_pairs(keys if len(keys) > 1 else keys[0], ids, weights)
    want = _brute_pairs(keys, ids, weights)
    assert list(zip(a.tolist(), b.tolist())) == sorted(want)
    assert a.dtype == ids.dtype and b.dtype == ids.dtype
    got = v.tolist()
    if weights is None:
        assert v.dtype == np.int64 and got == [want[p] for p in sorted(want)]
    else:
        assert v.dtype == np.float64
        np.testing.assert_allclose(got, [want[p] for p in sorted(want)],
                                   rtol=1e-12)


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


def test_bounded_collect_probe(ray_session, monkeypatch):
    """Above the budget the driver never receives a concatenated table —
    the decision comes from materialized block metadata bytes."""
    import ray.data

    from sylk.stages import collect as C

    ds = ray.data.range(100).map_batches(
        lambda b: pa.table({"x": b.column("id")}), batch_format="pyarrow")
    monkeypatch.setattr(C, "DRIVER_BUDGET", 100 * 8 - 1)
    mds, tbl = C.collect(ds, tiered=True)
    assert tbl is None
    assert mds.count() == 100  # still usable for the distributed tier
    monkeypatch.setattr(C, "DRIVER_BUDGET", 100 * 8)
    mds2, tbl2 = C.collect(ds, tiered=True)
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
