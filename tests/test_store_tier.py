"""Store tiers.  Probes: while the read set fits the driver budget
(``collect.DRIVER_BUDGET``, bytes on disk) the probes (BM25, AND,
phrase, ANN, index_delete's candidate lookup) answer from one driver
pyarrow table; above it they build Ray Data plans.  Both tiers must
give the same answers, under ``as_of``, after tombstones and after a
compaction; every empty answer is typed; the driver tier starts no Ray
read.  Writes: while eight times its input bytes fit the budget an
increment is partitioned and written in the driver, and while its
partition files fit it a fold runs in a driver loop; both tiers leave
the same store, and the driver tier starts no shuffle and no task.
``scale_tier`` sends every step to its exchange tier."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import scale_tier
from test_store_core import _fold, _write

_WORDS = ["hash", "join", "filter", "scan", "sort", "merge", "table",
          "row", "batch", "spark", "window", "key"]
_INCS = {1: range(0, 30), 2: range(30, 60), 3: range(60, 90)}
_Q = np.vstack([np.linspace(-1, 1, 8), np.cos(np.arange(8.0))])


def _docs(ids):
    # consecutive tokens step 3 words apart, so "hash scan" is a phrase
    return pa.table({
        "doc_id": pa.array(list(ids), pa.int64()),
        "text": pa.array([" ".join(_WORDS[(i * 7 + j * 3) % len(_WORDS)]
                                   for j in range(5 + i % 9))
                          for i in ids])})


def _emb(ids, dim=8):
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((90, dim)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(list(ids), pa.int64()),
        "embedding": pa.array([vecs[i].tolist() for i in ids],
                              pa.list_(pa.float32()))})


def _stores(tmp_path):
    import ray.data

    from sylk.stages.ann_store import ann_ingest
    from sylk.stages.text_index import index_ingest

    ti, ann = str(tmp_path / "ti"), str(tmp_path / "ann")
    for i, ids in _INCS.items():
        index_ingest(ray.data.from_arrow(_docs(ids)), ti, inc_id=i,
                     n_buckets=8)
        ann_ingest(ray.data.from_arrow(_emb(ids)), ann, inc_id=i,
                   n_cells=4)
    return ti, ann


def _rows(ds):
    return sorted(tuple(r.values()) for r in ds.take_all())


def _text_answers(ti, **kw):
    from sylk.stages.text_index import (index_match_docs, index_phrase_docs,
                                        index_query_bm25)

    return {
        "bm25": _rows(index_query_bm25(ti, ["hash", "join", "filter"], **kw)),
        "bm25_rep": _rows(index_query_bm25(ti, ["scan", "scan", "row"],
                                           **kw)),
        "bm25_k": _rows(index_query_bm25(ti, ["hash", "table"], k=4, **kw)),
        "and": _rows(index_match_docs(ti, ["hash", "scan", "table"], **kw)),
        "phrase": _rows(index_phrase_docs(ti, ["hash", "scan"], **kw)),
    }


def _ann_answers(ann, **kw):
    from sylk.stages.ann_store import ann_store_query

    return {n: _rows(ann_store_query(ann, _Q, k=5, nprobe=n, **kw))
            for n in (2, 4)}


def _both_tiers(monkeypatch, fn):
    """``fn()`` in the driver tier, then in the exchange tier."""

    driver = fn()
    with monkeypatch.context() as m:
        scale_tier(m)
        exchange = fn()
    return driver, exchange


def test_probes_agree_across_tiers(ray_session, tmp_path, monkeypatch):
    from sylk.stages.ann_store import ann_delete, compact_ann_store
    from sylk.stages.text_index import compact_text_index, index_delete

    ti, ann = _stores(tmp_path)

    def check(**kw):
        for answers, store in ((_text_answers, ti), (_ann_answers, ann)):
            driver, exchange = _both_tiers(
                monkeypatch, lambda: answers(store, **kw))
            assert driver == exchange
            assert all(driver.values())    # no vacuous comparison
        return driver

    fresh = check()
    assert check(as_of=2) != check(as_of=3)
    index_delete(ti, [0, 3, 12, 33], del_id=1)
    ann_delete(ann, [0, 3, 12, 33], del_id=1)
    deleted = check()
    assert deleted != fresh
    check(as_of=2)
    compact_text_index(ti)
    compact_ann_store(ann)
    assert check() == deleted
    check(as_of=3)


def _delete_result(store, ids, del_id):
    from sylk.stages.text_index import index_delete

    res = index_delete(store, ids, del_id=del_id)
    ddir = os.path.join(store, "_deletes")
    with open(os.path.join(ddir, f"_done_del{del_id}.json")) as f:
        marker = json.load(f)
    written = pq.read_table(os.path.join(ddir, f"del{del_id}.parquet"))
    return res, marker, written.to_pydict()


def test_index_delete_agrees_across_tiers(ray_session, tmp_path,
                                          monkeypatch):
    import ray.data

    from sylk.stages.text_index import compact_text_index

    ti, _ = _stores(tmp_path)
    twin = str(tmp_path / "twin")
    shutil.copytree(ti, twin)
    batches = [
        (1, [0, 3, 3, 45, 9999]),          # repeat + never-ingested id
        (2, [3, 45, 61]),                  # two already tombstoned
        (3, ray.data.from_arrow(pa.table(  # a Dataset batch
            {"doc_id": pa.array([62, 62, 70, 0], pa.int64())}))),
    ]
    for del_id, ids in batches:
        driver = _delete_result(ti, ids, del_id)
        with monkeypatch.context() as m:
            scale_tier(m)
            exchange = _delete_result(twin, ids, del_id)
        assert driver == exchange
        assert driver[0]["deleted"] > 0 or del_id == 2
    assert driver[0]["requested"] == 4     # a Dataset counts its rows

    compact_text_index(ti)
    compact_text_index(twin)
    driver = _delete_result(ti, [1, 4, 3], 4)
    with monkeypatch.context() as m:
        scale_tier(m)
        exchange = _delete_result(twin, [1, 4, 3], 4)
    assert driver == exchange and driver[0]["deleted"] == 2


@pytest.fixture(params=["driver", "exchange"])
def tier(request, monkeypatch):

    if request.param == "exchange":
        scale_tier(monkeypatch)
    return request.param


def _assert_typed_empty(ds, names, types):
    assert ds.count() == 0
    schema = ds.schema()
    assert schema is not None
    assert schema.names == names and schema.types == types


def test_empty_answers_are_typed(ray_session, tmp_path, tier):
    from sylk.stages.ann_store import ann_delete, ann_store_query
    from sylk.stages.text_index import (index_delete, index_match_docs,
                                        index_phrase_docs, index_query_bm25)

    ti, ann = _stores(tmp_path)
    doc, ids = ["doc_id"], [pa.int64()]
    _assert_typed_empty(index_query_bm25(ti, ["zzz"]), ["doc_id", "bm25"],
                        [pa.int64(), pa.float64()])
    _assert_typed_empty(index_match_docs(ti, ["hash", "zzz"]), doc, ids)
    _assert_typed_empty(index_phrase_docs(ti, ["scan", "hash"]), doc, ids)
    # every candidate doc of an AND query tombstoned
    hit = [d for (d,) in _rows(index_match_docs(ti, ["hash", "scan"]))]
    assert hit
    index_delete(ti, hit, del_id=1)
    _assert_typed_empty(index_match_docs(ti, ["hash", "scan"]), doc, ids)
    # every vector tombstoned
    ann_delete(ann, range(90), del_id=1)
    _assert_typed_empty(ann_store_query(ann, _Q, k=5, nprobe=4),
                        ["query_idx", "vec_id", "cosine"],
                        [pa.int32(), pa.int64(), pa.float64()])


def test_driver_tier_starts_no_ray_read(ray_session, tmp_path, monkeypatch):
    import ray.data

    from sylk.stages.ann_store import ann_delete, ann_store_query
    from sylk.stages.text_index import (index_delete, index_match_docs,
                                        index_phrase_docs, index_query_bm25)

    ti, ann = _stores(tmp_path)
    ann_delete(ann, [1, 2], del_id=1)

    def _no_read(*a, **kw):
        raise AssertionError("the driver tier started a Ray read")

    monkeypatch.setattr(ray.data, "read_parquet", _no_read)
    assert index_delete(ti, [1, 2], del_id=1)["deleted"] == 2
    assert _rows(index_query_bm25(ti, ["hash", "join"], k=3))
    assert _rows(index_match_docs(ti, ["hash", "scan"]))
    assert _rows(index_phrase_docs(ti, ["hash", "scan"]))
    assert _rows(ann_store_query(ann, _Q, k=5, nprobe=4))
    assert glob.glob(os.path.join(ti, "_deletes", "_done_del1.json"))


# --- write tiers: write_increment's and the fold's size rule ---------------

def _on_disk(store):
    """Every file of the store: Parquet as its row multiset, the rest as
    its bytes (markers, watermark, centroids)."""
    out = {}
    for f in sorted(glob.glob(os.path.join(store, "**"), recursive=True)):
        if os.path.isfile(f):
            out[os.path.relpath(f, store)] = (
                sorted(map(repr, pq.read_table(f, partitioning=None)
                           .to_pylist()))
                if f.endswith(".parquet") else open(f, "rb").read())
    return out


def _steps(kind, store):
    """Two increments, a smaller rerun of the second, an empty third, a
    fourth, a delete (text, ANN), a fold and a refused rerun below the
    watermark: what each step returned and left on disk."""
    from sylk.stages.ann_store import ann_delete
    from sylk.stages.text_index import index_delete

    seen = []
    for inc, which in ((1, "base"), (2, "first"), (2, "second"),
                       (3, "empty"), (4, "third")):
        seen.append((inc, _write(kind, store, inc, which), _on_disk(store)))
    if kind == "text":
        seen.append(("delete", index_delete(store, [100, 200], del_id=1)))
    elif kind == "ann":
        seen.append(("delete", ann_delete(store, [0, 41, 55], del_id=1)))
    seen.append(("fold", _fold(kind, store), _on_disk(store)))
    with pytest.raises(ValueError, match="watermark"):
        _write(kind, store, 2, "first")
    seen.append(("refused", _on_disk(store)))
    if kind == "neardup":
        from sylk.stages.dedup_store import read_accepted

        seen.append(sorted(read_accepted(store + "_out", store)
                           .to_pandas().doc_id))
    return seen


@pytest.mark.parametrize("kind", ["text", "ann", "upsert", "neardup"])
def test_ingests_and_folds_agree_across_tiers(ray_session, tmp_path,
                                              monkeypatch, kind):
    """The driver and exchange tiers of ``write_increment`` and ``fold``
    leave the same partition files, row multisets, markers, centroids
    and watermark, and return the same stats, through reruns, an empty
    increment, tombstone purges and a watermark refusal."""

    driver = _steps(kind, str(tmp_path / "driver"))
    with monkeypatch.context() as m:
        scale_tier(m)
        exchange = _steps(kind, str(tmp_path / "exchange"))
    assert driver == exchange
    fold = next(s for s in driver if s[0] == "fold")
    assert fold[1]["files_in"] > fold[1]["files_out"] > 0
    assert fold[1]["upto"] == 4
    assert any(f.endswith("compact4.parquet") for f in fold[2])


def test_driver_tier_writes_without_shuffle_or_task(ray_session, tmp_path,
                                                    monkeypatch):
    """Within the budget, text, ANN and upsert ingests (the first ANN one
    trains the centroids) and their folds run with
    ``Dataset.groupby`` and ``ray.remote`` raising."""
    import ray
    import ray.data

    def _no_exchange(*a, **kw):
        raise AssertionError("the driver tier started a shuffle or task")

    monkeypatch.setattr(ray.data.Dataset, "groupby", _no_exchange)
    monkeypatch.setattr(ray, "remote", _no_exchange)
    for kind in ("text", "ann", "upsert"):
        store = str(tmp_path / kind)
        for inc, which in ((1, "base"), (2, "first"), (3, "third")):
            _write(kind, store, inc, which)
        res = _fold(kind, store)
        assert res["upto"] == 3 and res["files_out"] > 0
