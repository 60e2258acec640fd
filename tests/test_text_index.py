"""Inverted text-index store: BM25 parity vs the one-shot scorer,
query-term scan pruning, rerun idempotence, crash windows, compaction
+ watermark, bucket-routing stability."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pytest

TERMS = ["hash", "join", "filter"]

_WORDS = ["hash", "join", "filter", "scan", "sort", "merge", "table",
          "row", "batch", "spark", "window", "key"]


def _docs_table(n=60):
    texts = []
    for i in range(n):
        ws = [_WORDS[(i * 7 + j * 3) % len(_WORDS)]
              for j in range(5 + (i % 9))]
        texts.append(" ".join(ws))
    texts[7] = ""                      # empty doc: counts toward N only
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts)})


def _ingest_slices(store, tbl, n_inc, n_buckets=8):
    import ray.data

    from sylk.stages.text_index import index_ingest

    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    for i in range(n_inc):
        part = tbl.filter(pa.array(ids % n_inc == i))
        index_ingest(ray.data.from_arrow(part), store, inc_id=i + 1,
                     n_buckets=n_buckets)


def _query_df(store, terms=TERMS, **kw):
    from sylk.stages.text_index import index_query_bm25

    df = index_query_bm25(store, terms, **kw).to_pandas()
    if df.empty:   # Ray drops the schema of an all-empty result
        return df
    return df.sort_values("doc_id").reset_index(drop=True)


def test_index_store_bm25_matches_oneshot_and_prunes(ray_session,
                                                     tmp_path):
    """3-increment store probe == text.bm25_scores on the union corpus
    (restricted to docs holding >= 1 query term — the others score
    exactly 0 and are absent by construction); a probe's read set opens
    ONLY the query terms' buckets."""
    import ray.data

    from sylk.stages.text import bm25_scores
    from sylk.stages.text_index import _term_buckets, probe_files

    store = str(tmp_path / "store")
    tbl = _docs_table()
    _ingest_slices(store, tbl, 3, n_buckets=8)

    got = _query_df(store)
    ref = (bm25_scores(ray.data.from_arrow(tbl), TERMS).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    hit = set(d for d, t in zip(tbl.column("doc_id").to_pylist(),
                                tbl.column("text").to_pylist())
              if any(q in (t or "").split() for q in TERMS))
    assert set(got.doc_id) == hit
    ref = ref[ref.doc_id.isin(hit)].reset_index(drop=True)
    assert got.doc_id.tolist() == ref.doc_id.tolist()
    assert (got.bm25 - ref.bm25).abs().max() <= 1e-6  # 6dp both sides

    # pruning: a single-term probe opens only that term's bucket
    want = {int(_term_buckets(["hash"], 8)[0])}
    files = probe_files(store, ["hash"])
    assert files
    opened = {int(p.split("term=")[1].split(os.sep)[0]) for p in files}
    assert opened == want
    all_buckets = {int(os.path.basename(d).split("=")[1])
                   for d in glob.glob(os.path.join(store, "term=*"))}
    assert opened < all_buckets  # strict subset: something was pruned


def test_index_store_topk_and_empty_probe(ray_session, tmp_path):
    store = str(tmp_path / "store")
    _ingest_slices(store, _docs_table(), 2, n_buckets=8)
    top = _query_df(store, k=3)
    full = _query_df(store).sort_values(["bm25", "doc_id"],
                                        ascending=[False, True])
    assert sorted(top.doc_id) == sorted(full.head(3).doc_id)
    # a term absent from the corpus still routes to a bucket; the
    # score set is empty either way
    missing = _query_df(store, terms=["zzznotaword"])
    assert len(missing) == 0


def test_index_store_rerun_and_partial_crash(ray_session, tmp_path):
    """Marker-gated reruns overwrite their own partial work: same file
    set, same scores (deterministic per-(bucket, inc) names)."""
    import ray.data

    from sylk.stages.text_index import index_ingest

    store = str(tmp_path / "store")
    tbl = _docs_table(40)
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    inc1 = tbl.filter(pa.array(ids % 2 == 0))
    inc2 = tbl.filter(pa.array(ids % 2 == 1))
    index_ingest(ray.data.from_arrow(inc1), store, inc_id=1, n_buckets=8)
    index_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_buckets=8)
    before_files = sorted(glob.glob(os.path.join(store, "term=*", "*")))
    before = _query_df(store)

    # crash window: marker lost AND one bucket file missing
    os.remove(os.path.join(store, "_done_inc2.json"))
    lost = glob.glob(os.path.join(store, "term=*", "inc2.parquet"))[0]
    os.remove(lost)
    index_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_buckets=8)
    assert sorted(glob.glob(os.path.join(store, "term=*", "*"))) \
        == before_files
    assert _query_df(store).equals(before)

    with pytest.raises(ValueError, match="n_buckets"):
        index_ingest(ray.data.from_arrow(inc2), store, inc_id=3,
                     n_buckets=16)


def test_index_store_compact_and_watermark(ray_session, tmp_path):
    import ray.data

    from sylk.stages.text_index import compact_text_index, index_ingest

    store = str(tmp_path / "store")
    tbl = _docs_table(45)
    _ingest_slices(store, tbl, 3, n_buckets=8)
    before = _query_df(store)

    res = compact_text_index(store)
    assert res["upto"] == 3 and res["files_out"] <= res["files_in"]
    assert not glob.glob(os.path.join(store, "term=*", "inc*.parquet"))
    assert _query_df(store).equals(before)

    with pytest.raises(ValueError, match="watermark"):
        index_ingest(ray.data.from_arrow(tbl), store, inc_id=3,
                     n_buckets=8)

    extra = pa.table({"doc_id": pa.array([1000, 1001], pa.int64()),
                      "text": pa.array(["hash hash join", "filter"])})
    index_ingest(ray.data.from_arrow(extra), store, inc_id=4, n_buckets=8)
    after = _query_df(store)
    assert {1000, 1001} <= set(after.doc_id)
    # corpus stats moved: N and avgdl change, so old scores shift but
    # the doc set only grows
    assert set(before.doc_id) <= set(after.doc_id)

    res2 = compact_text_index(store)
    assert res2["upto"] == 4
    with open(os.path.join(store, "_compact.json")) as f:
        assert json.load(f)["upto"] == 4


def test_index_delete_logical_then_physical(ray_session, tmp_path):
    """Right-to-be-forgotten: tombstoned docs leave scores, df and
    N/avgdl immediately (logical mask); compaction purges them from
    disk; double-deletes never double-count the stats deltas; a
    del-file without its marker (crash window) is invisible until the
    rerun lands it."""
    import pyarrow.parquet as pq
    import ray.data

    from sylk.stages.text import bm25_scores
    from sylk.stages.text_index import (compact_text_index, deleted_stats,
                                        index_delete)

    store = str(tmp_path / "store")
    tbl = _docs_table(50)
    _ingest_slices(store, tbl, 2, n_buckets=8)

    # delete: two real docs, the empty doc (7), and a never-ingested id
    dels = [0, 3, 7, 9999]
    res = index_delete(store, dels, del_id=1)
    assert res["deleted"] == 3          # 9999 resolved away
    nd, ntok = deleted_stats(store)
    assert nd == 3 and ntok == sum(
        len(tbl.column("text")[i].as_py().split()) for i in (0, 3, 7))

    # expected: one-shot BM25 over the REMAINING corpus
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    rest = tbl.filter(pa.array(~np.isin(ids, [0, 3, 7])))
    ref = (bm25_scores(ray.data.from_arrow(rest), TERMS).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    got = _query_df(store)
    assert not set(got.doc_id) & {0, 3, 7}
    ref = ref[ref.doc_id.isin(set(got.doc_id))].reset_index(drop=True)
    assert got.doc_id.tolist() == ref.doc_id.tolist()
    assert (got.bm25 - ref.bm25).abs().max() <= 1e-6

    # re-deleting the same ids is a stats no-op
    res2 = index_delete(store, [0, 3], del_id=2)
    assert res2["deleted"] == 0
    assert deleted_stats(store) == (nd, ntok)
    assert _query_df(store).equals(got)

    # crash window BEFORE any purge: marker lost -> tombstone
    # invisible; the rerun recomputes the same delta from the intact
    # doc-length partition (after a purge this state is unreachable —
    # compaction only folds marker-COMPLETE tombstones)
    os.remove(os.path.join(store, "_deletes", "_done_del1.json"))
    assert deleted_stats(store)[0] == 0
    index_delete(store, dels, del_id=1)
    assert deleted_stats(store) == (nd, ntok)
    assert _query_df(store).equals(got)

    # physical purge: no tombstoned doc_id survives on disk, scores
    # unchanged, deltas retained
    compact_text_index(store)
    for f in glob.glob(os.path.join(store, "term=*", "*.parquet")):
        left = pq.read_table(f, columns=["doc_id"]).column("doc_id")
        assert not set(left.to_pylist()) & {0, 3, 7}
    assert _query_df(store).equals(got)
    assert deleted_stats(store) == (nd, ntok)


def test_index_match_docs_and_semantics(ray_session, tmp_path):
    """AND retrieval: every returned doc holds ALL query terms; adding
    a corpus-absent term empties the result; tombstoned docs drop out.
    (_docs_table docs hold words at 4 fixed stride-3 offsets, so
    'hash scan table' co-occur in the offset-0 docs while the default
    TERMS never co-occur — both directions asserted.)"""
    from sylk.stages.text_index import index_delete, index_match_docs

    store = str(tmp_path / "store")
    tbl = _docs_table(40)
    _ingest_slices(store, tbl, 2, n_buckets=8)

    and_terms = ["hash", "scan", "table"]
    got = sorted(index_match_docs(store, and_terms).to_pandas().doc_id)
    want = sorted(
        d for d, t in zip(tbl.column("doc_id").to_pylist(),
                          tbl.column("text").to_pylist())
        if all(q in (t or "").split() for q in and_terms))
    assert got == want and got            # non-trivial on this corpus

    # disjoint-by-construction terms AND to nothing
    assert index_match_docs(store, TERMS).count() == 0
    # a corpus-absent term empties any conjunction
    assert index_match_docs(store, and_terms + ["zzznope"]).count() == 0

    index_delete(store, want[:2], del_id=1)
    got2 = sorted(index_match_docs(store,
                                   and_terms).to_pandas().doc_id)
    assert got2 == want[2:]


def test_index_phrase_docs(ray_session, tmp_path):
    """Phrase retrieval: consecutive-token semantics (AND of the same
    terms is NOT enough), repeated-word phrases, multi-instance docs,
    deletes respected."""
    import ray.data

    from sylk.stages.text_index import (index_delete, index_ingest,
                                        index_phrase_docs)

    store = str(tmp_path / "store")
    tbl = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta",        # 0: hit
            "beta alpha gamma",              # 1: terms present, no phrase
            "x alpha beta gamma y",          # 2: hit (offset start)
            "alpha beta gamma alpha beta gamma",  # 3: two instances
            "echo echo echo",                # 4: repeated-word phrase
            "echo foo echo",                 # 5: not consecutive
        ]),
    })
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    for i in range(2):
        index_ingest(ray.data.from_arrow(
            tbl.filter(pa.array(ids % 2 == i))), store, inc_id=i + 1,
            n_buckets=8)

    def hits(phrase):
        df = index_phrase_docs(store, phrase).to_pandas()
        return sorted(df.doc_id.tolist()) if not df.empty else []

    assert hits(["alpha", "beta", "gamma"]) == [0, 2, 3]
    assert hits(["echo", "echo"]) == [4]
    assert hits(["echo", "foo", "echo"]) == [5]
    assert hits(["gamma", "delta"]) == [0]
    assert hits(["delta", "alpha"]) == []
    assert hits(["zzz", "alpha"]) == []

    index_delete(store, [0, 3], del_id=1)
    assert hits(["alpha", "beta", "gamma"]) == [2]


def test_index_store_positions_opt_out(ray_session, tmp_path):
    """positions=False: BM25/AND probes identical, postings files carry
    no positions column, phrase raises, schema choice enforced across
    increments."""
    import pyarrow.parquet as pq
    import ray.data

    from sylk.stages.text_index import (index_ingest, index_match_docs,
                                        index_phrase_docs)

    lean = str(tmp_path / "lean")
    full = str(tmp_path / "full")
    tbl = _docs_table(40)
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    for store, positions in ((lean, False), (full, True)):
        for i in range(2):
            index_ingest(ray.data.from_arrow(
                tbl.filter(pa.array(ids % 2 == i))), store,
                inc_id=i + 1, n_buckets=8, positions=positions)

    assert _query_df(lean).equals(_query_df(full))
    assert sorted(index_match_docs(lean, ["hash", "scan", "table"])
                  .to_pandas().doc_id) \
        == sorted(index_match_docs(full, ["hash", "scan", "table"])
                  .to_pandas().doc_id)
    for f in glob.glob(os.path.join(lean, "term=*", "*.parquet")):
        assert "positions" not in pq.read_schema(f).names
    with pytest.raises(ValueError, match="positions=False"):
        index_phrase_docs(lean, ["hash", "scan"])
    with pytest.raises(ValueError, match="positions"):
        index_ingest(ray.data.from_arrow(tbl), lean, inc_id=3,
                     n_buckets=8, positions=True)


def test_index_asof_snapshot(ray_session, tmp_path):
    """Time-travel reads: as_of=h equals a store that only ever saw
    increments <= h; tombstones always apply (forgotten docs are not
    resurrectable) with per-source-increment stats deltas; snapshots
    below the compaction watermark are refused."""
    import ray.data

    from sylk.stages.text_index import (compact_text_index, index_delete,
                                        index_ingest, index_match_docs)

    full = str(tmp_path / "full")
    two = str(tmp_path / "two")
    tbl = _docs_table(45)
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    _ingest_slices(full, tbl, 3, n_buckets=8)
    for i in range(2):   # reference store that never saw inc 3
        index_ingest(ray.data.from_arrow(
            tbl.filter(pa.array(ids % 3 == i))), two, inc_id=i + 1,
            n_buckets=8)

    snap = _query_df(full, as_of=2)
    assert snap.equals(_query_df(two))
    assert not snap.equals(_query_df(full))   # horizon actually cuts
    assert sorted(index_match_docs(full, ["hash", "scan", "table"],
                                   as_of=2).to_pandas().doc_id) \
        == sorted(index_match_docs(two, ["hash", "scan", "table"])
                  .to_pandas().doc_id)

    # a tombstone of an inc-3 doc leaves the as_of=2 snapshot alone...
    inc3_doc = int(ids[ids % 3 == 2][0])
    index_delete(full, [inc3_doc], del_id=1)
    assert _query_df(full, as_of=2).equals(snap)
    # ...but a tombstone of an inc-1 doc hits it (GDPR beats time travel)
    inc1_doc = int(snap.doc_id.iloc[0])
    assert inc1_doc % 3 in (0, 1)
    index_delete(full, [inc1_doc], del_id=2)
    after = _query_df(full, as_of=2)
    assert inc1_doc not in set(after.doc_id)
    index_delete(two, [inc1_doc], del_id=1)
    assert after.equals(_query_df(two))       # stats deltas exact

    compact_text_index(full)
    with pytest.raises(ValueError, match="watermark"):
        _query_df(full, as_of=2)
    assert len(_query_df(full, as_of=3)) == len(_query_df(full))


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_bm25_repeated_query_term_matches_oneshot(ray_session, tmp_path,
                                                  monkeypatch, tier):
    """A term repeated in the query counts once per occurrence, as in
    text.bm25_scores (the registry's one-shot scorer), in both tiers."""
    import ray.data

    from conftest import scale_tier
    from sylk.stages.text import bm25_scores

    if tier == "exchange":
        scale_tier(monkeypatch)
    store = str(tmp_path / "store")
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(["a b a", "b c", "c d", "a"])})
    _ingest_slices(store, tbl, 2, n_buckets=8)
    for terms in (["a", "a", "b"], ["b", "a", "b", "b"]):
        got = _query_df(store, terms)
        ref = (bm25_scores(ray.data.from_arrow(tbl), terms).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        ref = ref[ref.bm25 > 0].reset_index(drop=True)
        assert got.doc_id.tolist() == ref.doc_id.tolist()
        assert (got.bm25 - ref.bm25).abs().max() <= 1e-6
