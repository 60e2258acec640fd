"""The driver-merge aggregates all document a distributed fallback for
larger-than-one-machine cardinality; these tests reach those branches
by lowering the tier limits and assert equivalence with the default
paths."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from conftest import scale_tier

import sylk.stages.aggregate as aggregate
import sylk.stages.asof as asof
import sylk.stages.dedup as dedup
from sylk.sources.transcripts import synth_batch
from sylk.stages.aggregate import combined_counts, grouped_counts, rollups_from_combined
from sylk.stages.parse import parse_batch


@pytest.fixture(scope="module")
def parsed(ray_session):
    import ray.data

    t = synth_batch(np.arange(4000, dtype=np.int64))
    return ray.data.from_arrow(t).repartition(4).map_batches(
        parse_batch, batch_format="pyarrow", batch_size=None
    )


def _norm(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


def test_combined_counts_distributed_equals_driver_merge(parsed, monkeypatch):
    local = combined_counts(parsed)
    scale_tier(monkeypatch, aggregate, "_COMBINED_DRIVER_LIMIT")
    dist = combined_counts(parsed)
    for a, b in zip(rollups_from_combined(local), rollups_from_combined(dist)):
        keys = [c for c in a.columns if c != "n"]
        pd.testing.assert_frame_equal(
            _norm(a, keys), _norm(b, keys), check_dtype=False
        )


def test_grouped_counts_dataset_equals_local(parsed):
    from sylk.stages.aggregate import grouped_counts_local

    dist = grouped_counts(parsed, ["facility", "severity"], ok_filter=True).to_pandas()
    local = grouped_counts_local(parsed, ["facility", "severity"], ok_filter=True).to_pandas()
    pd.testing.assert_frame_equal(
        _norm(dist, ["facility", "severity"]),
        _norm(local, ["facility", "severity"]),
        check_dtype=False,
    )


def test_minhash_distributed_branch(ray_session, monkeypatch):
    """Force the groupby candidate path and compare with the numpy
    run-finder path."""
    import ray.data

    docs = [
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog today"},
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog today"},
        {"doc_id": 2, "text": "completely different content with no overlap at all"},
        {"doc_id": 3, "text": "the quick brown fox jumps over the lazy cat today"},
    ]
    ds = ray.data.from_items(docs)
    fast = dedup.minhash_dup_pairs(ds, threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "_DRIVER_TRIPLE_LIMIT", 0)
    dist = dedup.minhash_dup_pairs(ray.data.from_items(docs), threshold=0.5).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(_norm(fast, key), _norm(dist, key), check_dtype=False)
    assert {(0, 1)} <= set(zip(fast.a, fast.b))


def test_simhash_distributed_branch(ray_session, monkeypatch):
    """Groupby candidates (above the triple limit) == default."""
    import ray.data

    docs = [
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog today"},
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy cat today"},
        {"doc_id": 2, "text": "completely different content with no overlap at all"},
        {"doc_id": 3, "text": "the quick brown fox jumps over the lazy dog today"},
    ]
    fast = dedup.simhash_dup_pairs(ray.data.from_items(docs), max_hamming=8).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT")
    dist = dedup.simhash_dup_pairs(ray.data.from_items(docs), max_hamming=8).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(_norm(fast, key), _norm(dist, key), check_dtype=False)
    assert (0, 3) in set(zip(fast.a, fast.b))


def test_winnow_distributed_branch(ray_session, monkeypatch):
    """Distributed shared-fp counting (groupby(fp) pair emission +
    two-phase (a,b) count) == the driver Counter path."""
    import ray.data

    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep dark woods tonight while the moon rises slowly")
    docs = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("moon", "sun")},
        {"doc_id": 2, "text": "entirely different content sharing no long substring with anything here"},
        {"doc_id": 3, "text": base},
    ]
    fast = dedup.winnow_dup_pairs(ray.data.from_items(docs), min_shared=3).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT")
    dist = dedup.winnow_dup_pairs(ray.data.from_items(docs), min_shared=3).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        _norm(fast, key)[["a", "b", "shared_fps"]],
        _norm(dist, key)[["a", "b", "shared_fps"]],
        check_dtype=False,
    )
    assert (0, 3) in set(zip(fast.a, fast.b))


def test_ngram_jaccard_distributed_branch(ray_session, monkeypatch):
    """Distributed inverted-index join (groupby(sh) pair emission +
    (a,b) aggregate) == the driver run-finder path, jaccard included."""
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    docs = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("theta", "THETA")},
        {"doc_id": 2, "text": "unrelated words that overlap with nothing else at all"},
        {"doc_id": 3, "text": base},
        {"doc_id": 4, "text": "hi"},  # < k tokens: whole-text shingle
    ]
    fast = dedup.ngram_jaccard_dup_pairs(
        ray.data.from_items(docs), threshold=0.3).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT")
    dist = dedup.ngram_jaccard_dup_pairs(
        ray.data.from_items(docs), threshold=0.3).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        _norm(fast, key)[["a", "b", "jaccard"]],
        _norm(dist, key)[["a", "b", "jaccard"]],
        check_dtype=False,
    )
    got = dict(((a, b), j) for a, b, j in zip(fast.a, fast.b, fast.jaccard))
    assert got[(0, 3)] == 1.0  # identical docs
    assert 0.3 <= got[(0, 1)] < 1.0  # one-token edit


def test_embedding_distributed_branch(ray_session, monkeypatch):
    """Join verification (above the limits) == broadcast verification
    for the multi-band hyperplane LSH."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((60, 16)).astype(np.float32)
    vecs[13] = vecs[3] + rng.standard_normal(16).astype(np.float32) * 0.01
    vecs[21] = vecs[2]
    t = pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    })
    fast = dedup.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.97).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT", "_DRIVER_PAIR_LIMIT")
    dist = dedup.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.97).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(_norm(fast, key), _norm(dist, key), check_dtype=False)
    assert {(2, 21), (3, 13)} <= set(zip(fast.a, fast.b))


def test_minhash_join_verify_branch(ray_session, monkeypatch):
    """Above the limits verification runs through the edge-join; pair
    set and jaccard values match the broadcast path."""
    import ray.data

    docs = [
        {"doc_id": i, "text": t}
        for i, t in enumerate(
            ["the quick brown fox jumps over the lazy dog today"] * 2
            + ["some other sentence about ray data pipelines at scale"] * 2
            + ["unrelated filler content goes here with many words"]
        )
    ]
    fast = dedup.minhash_dup_pairs(ray.data.from_items(docs), threshold=0.5).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT", "_DRIVER_PAIR_LIMIT")
    dist = dedup.minhash_dup_pairs(ray.data.from_items(docs), threshold=0.5).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(_norm(fast, key), _norm(dist, key), check_dtype=False)
    assert {(0, 1), (2, 3)} <= set(zip(fast.a, fast.b))


def test_ngram_prefix_equals_full_index(ray_session, monkeypatch):
    """PPJoin prefix filtering must reproduce the full inverted-index
    answer exactly (prefix theorem), on both the driver and the
    distributed paths, across thresholds."""
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    docs = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("theta", "T").replace("mu", "M")},
        {"doc_id": 2, "text": "totally disjoint vocabulary in this one here"},
        {"doc_id": 3, "text": base},
        {"doc_id": 4, "text": base.replace("alpha beta", "A B")},
        {"doc_id": 5, "text": "alpha beta gamma"},  # tiny doc
    ]
    for thr in (0.3, 0.6, 0.9):
        full = dedup.ngram_jaccard_dup_pairs(
            ray.data.from_items(docs), threshold=thr).to_pandas()
        pre = dedup.ngram_jaccard_dup_pairs_prefix(
            ray.data.from_items(docs), threshold=thr).to_pandas()
        with monkeypatch.context() as m:
            scale_tier(m, dedup, "_DRIVER_TRIPLE_LIMIT", "_DRIVER_PAIR_LIMIT")
            pre_d = dedup.ngram_jaccard_dup_pairs_prefix(
                ray.data.from_items(docs), threshold=thr).to_pandas()
        key = ["a", "b"]
        pd.testing.assert_frame_equal(
            _norm(full, key)[["a", "b", "jaccard"]],
            _norm(pre, key)[["a", "b", "jaccard"]], check_dtype=False)
        pd.testing.assert_frame_equal(
            _norm(full, key)[["a", "b", "jaccard"]],
            _norm(pre_d, key)[["a", "b", "jaccard"]], check_dtype=False)


def test_ngram_prefix_index_is_smaller(ray_session):
    """The prefix index must actually shrink (that's its whole point)."""
    import ray.data

    from sylk.stages.dedup import ngram_prefix_rows, ngram_shingle_rows

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"])
    full = docs.map_batches(
        lambda b: ngram_shingle_rows(b), batch_format="pyarrow").count()
    pre = docs.map_batches(
        lambda b: ngram_prefix_rows(b, threshold=0.6),
        batch_format="pyarrow").count()
    assert pre < 0.55 * full  # p/n = 1 - t + 1/n ~= 0.45 at t=0.6


def test_fill_forward_distributed_equals_broadcast(ray_session, monkeypatch):
    """The O(1)-driver hash-join seed tier must agree with the
    broadcast seed dict on a multi-key, multi-block, null-heavy frame."""
    import ray.data

    from sylk.stages.asof import fill_forward

    rng = np.random.default_rng(11)
    rows = [{"k": int(rng.integers(0, 7)), "o": i,
             "v": float(i) if rng.random() < 0.2 else None}
            for i in range(3000)]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    base = fill_forward(ds, "k", ["o"], "v", "ff").to_pandas()
    ds2 = ray.data.from_items(rows, override_num_blocks=16)
    scale_tier(monkeypatch, asof, "_DRIVER_SEED_LIMIT")
    dist = fill_forward(ds2, "k", ["o"], "v", "ff").to_pandas()
    key = ["k", "o"]
    pd.testing.assert_frame_equal(_norm(base, key), _norm(dist, key),
                                  check_dtype=False)


def test_running_total_distributed_equals_broadcast(ray_session, monkeypatch):
    import ray.data

    from sylk.stages.asof import running_total

    rng = np.random.default_rng(12)
    rows = [{"k": int(rng.integers(0, 5)), "o": i, "v": float(rng.integers(-3, 9))}
            for i in range(2500)]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    base = running_total(ds, "k", ["o"], "v", "rt").to_pandas()
    ds2 = ray.data.from_items(rows, override_num_blocks=16)
    scale_tier(monkeypatch, asof, "_DRIVER_SEED_LIMIT")
    dist = running_total(ds2, "k", ["o"], "v", "rt").to_pandas()
    key = ["k", "o"]
    pd.testing.assert_frame_equal(_norm(base, key), _norm(dist, key),
                                  check_dtype=False)


def test_running_max_distributed_equals_broadcast(ray_session, monkeypatch):
    import ray.data

    from sylk.stages.asof import running_max

    rng = np.random.default_rng(21)
    rows = [{"k": int(rng.integers(0, 5)), "o": i,
             "v": float(rng.integers(-9, 9))}
            for i in range(2500)]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    base = running_max(ds, "k", ["o"], "v", "rm").to_pandas()
    ds2 = ray.data.from_items(rows, override_num_blocks=16)
    scale_tier(monkeypatch, asof, "_DRIVER_SEED_LIMIT")
    dist = running_max(ds2, "k", ["o"], "v", "rm").to_pandas()
    key = ["k", "o"]
    pd.testing.assert_frame_equal(_norm(base, key), _norm(dist, key),
                                  check_dtype=False)
    # cross-seam semantics: pandas differential on the hot key
    df = pd.DataFrame(rows).sort_values(["k", "o"], kind="mergesort")
    want = df.groupby("k")["v"].cummax()
    got = _norm(base, key)["rm"].to_numpy()
    assert np.allclose(got, want.to_numpy())


def test_ngram_containment_distributed_branch(ray_session, monkeypatch):
    """Containment scorer through both tiers; subset doc scores 1.0
    against its superset even though Jaccard is low."""
    import ray.data

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    docs = [
        {"doc_id": 0, "text": base + " extra tail tokens follow here "
                             "one two three four five six seven eight"},
        {"doc_id": 1, "text": base},  # strict subset of doc 0
        {"doc_id": 2, "text": "unrelated words overlapping nothing else"},
    ]
    fast = dedup.ngram_containment_pairs(
        ray.data.from_items(docs), threshold=0.9).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT")
    dist = dedup.ngram_containment_pairs(
        ray.data.from_items(docs), threshold=0.9).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        _norm(fast, key)[["a", "b", "containment"]],
        _norm(dist, key)[["a", "b", "containment"]],
        check_dtype=False,
    )
    got = dict(((a, b), c) for a, b, c in
               zip(fast.a, fast.b, fast.containment))
    assert got[(0, 1)] == 1.0  # subset containment
    assert len(got) == 1


def test_snm_distributed_equals_driver(ray_session, monkeypatch):
    """Sorted-neighborhood candidates via the coarse-grouped path ==
    the driver run-finder; window semantics (rank distance <= w)."""
    import ray.data

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = [
        {"doc_id": 10, "text": base},
        {"doc_id": 11, "text": base + " tail"},     # adjacent by prefix
        {"doc_id": 12, "text": "zz completely different text here now"},
        {"doc_id": 13, "text": base + " other end"},
        {"doc_id": 14, "text": "mid range unrelated words go here ok"},
    ]
    fast = dedup.sorted_neighborhood_pairs(
        ray.data.from_items(docs), window=2, threshold=0.5).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT", "_DRIVER_PAIR_LIMIT")
    dist = dedup.sorted_neighborhood_pairs(
        ray.data.from_items(docs), window=2, threshold=0.5).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        _norm(fast, key)[["a", "b", "jaccard"]],
        _norm(dist, key)[["a", "b", "jaccard"]],
        check_dtype=False,
    )
    got = set(zip(fast.a, fast.b))
    # the three base-prefixed docs sort adjacently: all three pairs
    assert {(10, 11), (10, 13), (11, 13)} <= got


def test_connected_components_tier_equivalence(ray_session, monkeypatch):
    """Driver-tier CC (bounded edge collect + numpy relax) must equal
    the distributed label-propagation path, including chain graphs,
    singletons, and multi-cluster mixes."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from sylk.stages.dedup import connected_components

    rng = np.random.default_rng(5)
    nodes = pa.table({"doc_id": pa.array(range(60), pa.int64())})
    # a 10-node chain, a clique, random extra edges, and singletons
    e = [(i, i + 1) for i in range(10)]
    e += [(a, b) for a in range(20, 25) for b in range(a + 1, 25)]
    e += [(int(a), int(b)) for a, b in
          rng.integers(30, 55, size=(12, 2)) if a != b]
    edges = pa.table({"a": pa.array([min(x) for x in e], pa.int64()),
                      "b": pa.array([max(x) for x in e], pa.int64())})
    n_ds = ray.data.from_arrow(nodes)
    e_ds = ray.data.from_arrow(edges)
    fast = connected_components(n_ds, e_ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    scale_tier(monkeypatch, dedup, "_CC_DRIVER_EDGE_LIMIT")
    slow = connected_components(n_ds, e_ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert fast.equals(slow)
    assert (fast[fast.doc_id <= 10].cluster_id == 0).all()  # chain -> 0


def test_embedding_two_stage_near_threshold(ray_session, monkeypatch):
    """VERDICT r4 #4 regression: the distributed tier's quantized
    stage-1 gate must never prune a TRUE pair — planted pairs sit just
    above and just below the threshold, where a sloppy bound would
    flip them; the join path must equal the broadcast path exactly."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(11)
    base = rng.standard_normal(32)
    vecs = [base]
    # rotate base toward an orthogonal direction by controlled angles:
    # cos 0.9705 (just above 0.97), cos 0.9695 (just below)
    orth = rng.standard_normal(32)
    orth -= orth @ base / (base @ base) * base
    for target in (0.9705, 0.9695, 0.9990):
        th = np.arccos(target)
        v = np.cos(th) * base / np.linalg.norm(base) \
            + np.sin(th) * orth / np.linalg.norm(orth)
        vecs.append(v * 3.7)  # non-unit scale exercises the quant step
    vecs.extend(rng.standard_normal((50, 32)))
    t = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([np.asarray(v, np.float64).tolist()
                               for v in vecs], pa.list_(pa.float64())),
    })
    fast = dedup.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.97).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TRIPLE_LIMIT", "_DRIVER_PAIR_LIMIT")
    dist = dedup.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.97).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(_norm(fast, key), _norm(dist, key),
                                  check_dtype=False)
    got = set(zip(fast.a, fast.b))
    assert (0, 1) in got and (0, 3) in got  # 0.9705 and 0.999 survive
    assert (0, 2) not in got  # 0.9695 is below threshold on both paths


def test_dedup_turns_tiers_agree(ray_session, monkeypatch):
    """The driver merge and the groupby exchange keep the same first
    row per (conv_id, turn_idx), duplicates split across blocks."""
    import ray.data

    def _turns(rows):
        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.int64()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
            "role": pa.array([r[2] for r in rows]),
        })

    shard = [(1, 0, "user"), (1, 1, "assistant"), (2, 0, "user"),
             (1, 0, "user")]
    blocks = [_turns(shard), _turns(shard[:3]), _turns([(3, 0, "user")])]
    key = ["conv_id", "turn_idx"]
    driver = dedup.dedup_turns(ray.data.from_arrow(blocks)).to_pandas()
    scale_tier(monkeypatch, dedup, "_DRIVER_TURN_LIMIT")
    exchange = dedup.dedup_turns(ray.data.from_arrow(blocks)).to_pandas()
    pd.testing.assert_frame_equal(_norm(driver, key), _norm(exchange, key),
                                  check_dtype=False)
    assert list(zip(*(_norm(driver, key)[c] for c in key))) == [
        (1, 0), (1, 1), (2, 0), (3, 0)]
