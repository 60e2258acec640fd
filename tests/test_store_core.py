"""The one store core (stages/store_fold.py): an increment without its
marker is invisible to every read set and caps every fold below it;
shadowed crash leftovers are never read; an empty probe is typed."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa

_WORDS = ["hash", "join", "filter", "scan", "sort", "merge", "table",
          "row", "batch", "spark", "window", "key"]


def _docs(ids):
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([" ".join(_WORDS[(i * 7 + j * 3) % len(_WORDS)]
                                   for j in range(5 + i % 9))
                          for i in ids])})


def _emb(ids, dim=8):
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((max(ids) + 1, dim)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([vecs[i].tolist() for i in ids],
                              pa.list_(pa.float32()))})


_INCS = {1: list(range(0, 20)), 2: list(range(20, 40)),
         3: list(range(40, 60))}


def _index(store, incs):
    import ray.data

    from sylk.stages.text_index import index_ingest

    for i in incs:
        index_ingest(ray.data.from_arrow(_docs(_INCS[i])), store, inc_id=i,
                     n_buckets=8)


def _bm25(store, terms=("hash", "join", "filter")):
    from sylk.stages.text_index import index_query_bm25

    df = index_query_bm25(store, list(terms)).to_pandas()
    return sorted(zip(df.doc_id, df.bm25))


def _ids(ds):
    df = ds.to_pandas()   # Ray drops the schema of an all-empty result
    return sorted(df.doc_id) if len(df) else []


def _ann(store, incs):
    import ray.data

    from sylk.stages.ann_store import ann_ingest

    for i in incs:
        ann_ingest(ray.data.from_arrow(_emb(_INCS[i])), store, inc_id=i,
                   n_cells=4)


def _top(store, **kw):
    from sylk.stages.ann_store import ann_store_query

    q = np.vstack([_emb([0, 25]).column("embedding")[i].as_py()
                   for i in range(2)])
    df = ann_store_query(store, q, k=5, nprobe=4, **kw).to_pandas()
    return sorted(zip(df.query_idx, df.vec_id, df.cosine))


def test_dedup_unexecuted_increment_is_not_folded(ray_session, tmp_path):
    """An increment whose write plan never ran has no marker: compaction
    must not fold it, so its rerun is allowed and accepts its rows."""
    import ray.data

    from sylk.stages.dedup_store import (compact_ingest_store,
                                         dedup_ingest, read_accepted)

    def _inc(rows):
        return pa.table({"event_id": pa.array([r[0] for r in rows],
                                              pa.int64()),
                         "key": pa.array([r[1] for r in rows])})

    def _crash(b):
        raise RuntimeError("ingest crashed before any write")

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    dedup_ingest(ray.data.from_arrow(_inc([(1, "a"), (2, "b")])), store,
                 out, "key", "event_id", inc_id=1)
    inc2 = _inc([(3, "c"), (4, "d")])
    try:
        dedup_ingest(ray.data.from_arrow(inc2).map_batches(
            _crash, batch_format="pyarrow"), store, out, "key",
            "event_id", inc_id=2)
    except Exception:
        pass
    assert compact_ingest_store(store)["upto"] == 1
    s2 = dedup_ingest(ray.data.from_arrow(inc2), store, out, "key",
                      "event_id", inc_id=2).to_pandas()
    assert int(s2.accepted.sum()) == 2
    assert sorted(read_accepted(out, 2).to_pandas().event_id) == [3, 4]


def test_unmarked_increment_is_invisible(ray_session, tmp_path):
    """Files of an increment whose marker is missing (a crashed ingest)
    are in no read set: BM25, the ANN probe and index_delete all see
    the store as it was before the increment."""
    from sylk.stages.text_index import index_delete

    ti, ti_ref = str(tmp_path / "ti"), str(tmp_path / "ti_ref")
    _index(ti, (1, 2))
    _index(ti_ref, (1,))
    os.remove(os.path.join(ti, "_done_inc2.json"))
    assert _bm25(ti) == _bm25(ti_ref)
    assert index_delete(ti, _INCS[2], del_id=1)["deleted"] == 0
    assert _bm25(ti) == _bm25(ti_ref)

    ann, ann_ref = str(tmp_path / "ann"), str(tmp_path / "ann_ref")
    _ann(ann, (1, 2))
    _ann(ann_ref, (1,))
    os.remove(os.path.join(ann, "_done_inc2.json"))
    assert _top(ann) == _top(ann_ref)


def test_shadowed_leftover_is_never_read(ray_session, tmp_path):
    """A fold that crashed before deleting its sources leaves inc files
    at or below its compact file's id; they are shadowed, so AND and
    phrase keep every hit and BM25 does not move."""
    from sylk.stages.text_index import (compact_text_index,
                                        index_match_docs,
                                        index_phrase_docs)

    store = str(tmp_path / "store")
    _index(store, (1, 2, 3))
    compact_text_index(store)
    bm25 = _bm25(store)
    both = _ids(index_match_docs(store, ["hash", "table"]))
    phrase = _ids(index_phrase_docs(store, ["scan", "table"]))
    assert both and phrase
    for cf in glob.glob(os.path.join(store, "term=*", "compact3.parquet")):
        shutil.copy(cf, os.path.join(os.path.dirname(cf), "inc1.parquet"))
    assert _ids(index_match_docs(store, ["hash", "table"])) == both
    assert _ids(index_phrase_docs(store, ["scan", "table"])) == phrase
    assert _bm25(store) == bm25


def test_fold_stops_below_unmarked_increment(ray_session, tmp_path):
    """Increments 1-3 with 2 unmarked: compaction folds only 1 and sets
    the watermark to 1, so the rerun of 2 is allowed and the store then
    answers exactly like a clean run."""
    from sylk.stages.text_index import compact_text_index

    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    _index(store, (1, 2, 3))
    _index(ref, (1, 2, 3))
    os.remove(os.path.join(store, "_done_inc2.json"))
    res = compact_text_index(store)
    assert res["upto"] == 1
    with open(os.path.join(store, "_compact.json")) as f:
        assert json.load(f)["upto"] == 1
    assert glob.glob(os.path.join(store, "term=*", "inc3.parquet"))
    _index(store, (2,))
    assert _bm25(store) == _bm25(ref)
    assert compact_text_index(store)["upto"] == 3
    assert _bm25(store) == _bm25(ref)


def test_ann_empty_probe_is_typed(ray_session, tmp_path):
    """A probe with no file in its read set returns the typed
    (query_idx int32, vec_id int64, cosine float64) empty result."""
    from sylk.stages.ann_store import ann_store_query

    store = str(tmp_path / "store")
    _ann(store, (1,))
    q = np.asarray(_emb([0]).column("embedding")[0].as_py())[None, :]
    ds = ann_store_query(store, q, k=5, nprobe=4, as_of=0)
    assert ds.count() == 0
    schema = ds.schema()
    assert schema.names == ["query_idx", "vec_id", "cosine"]
    assert schema.types == [pa.int32(), pa.int64(), pa.float64()]
