"""The one store core (stages/store_fold.py): an increment without its
marker is invisible to every read set and caps every fold below it;
shadowed crash leftovers are never read; an empty probe is typed; the
one increment writer refuses the watermark, replaces its own increment
on a rerun, and alone names increment files."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
from conftest import scale_tier

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
    assert sorted(read_accepted(out, store, 2).to_pandas().event_id) == [3, 4]


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


# --- the one increment writer (store_fold.write_increment) ------------------

_NEAR = ("the quick brown fox jumps over the lazy dog and runs far away "
         "into the deep dark woods tonight while the moon rises slowly")


def _content(kind, which):
    """Increment contents: ``base`` is increment 1; ``first`` and the
    smaller ``second`` are two attempts at increment 2; ``empty`` has no
    row, and ``third`` follows them (upsert: a ``del`` value deletes)."""
    if which == "empty":
        return _content(kind, "base").slice(0, 0)
    if kind == "ann":
        return _emb({"base": list(range(20)), "first": list(range(20, 40)),
                     "second": [40, 41], "third": list(range(50, 70))}[which])
    if kind == "upsert":
        rows = {"base": [(k, k, f"b{k}") for k in range(8)],
                "first": [(k, 100 + k, f"f{k}") for k in range(4, 16)],
                "second": [(4, 200, "s4")],
                "third": [(0, 300, "del"), (3, 303, "t3"), (6, 306, "del"),
                          (9, 309, "t9")]}[which]
        return pa.table({"user_id": pa.array([r[0] for r in rows], pa.int64()),
                         "event_id": pa.array([r[1] for r in rows],
                                              pa.int64()),
                         "val": pa.array([r[2] for r in rows]),
                         "_del": pa.array([r[2] == "del" for r in rows])})
    if kind == "dedup":
        rows = {"base": [(1, "a"), (2, "b")],
                "first": [(3, "c"), (4, "d"), (5, "e"), (6, "a")],
                "second": [(3, "c")]}[which]
        return pa.table({"event_id": pa.array([r[0] for r in rows],
                                              pa.int64()),
                         "key": pa.array([r[1] for r in rows])})
    rows = {("text", "base"): [(100, "alpha beta gamma"),
                               (101, "zeta alpha beta")],
            ("text", "first"): [(1, "alpha beta"), (2, "gamma delta"),
                                (3, "zeta eta")],
            ("text", "second"): [(1, "alpha")],
            ("text", "third"): [(200, "gamma eta theta"),
                                (201, "alpha zeta zeta")],
            ("neardup", "base"): [(1, _NEAR),
                                  (2, "standalone other content entirely")],
            ("neardup", "first"): [(10, _NEAR.replace("dog", "cat")),
                                   (11, "novel content with no overlap at "
                                        "all in any of its shingles")],
            ("neardup", "second"): [(10, _NEAR.replace("dog", "cat"))],
            ("neardup", "third"): [(20, "a third increment of wholly new "
                                        "words here"),
                                   (21, _NEAR.replace("moon", "sun"))],
            }[(kind, which)]
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows])})


def _write(kind, store, inc, which):
    """Ingest ``_content(kind, which)`` as increment ``inc``; returns what
    the ingest returned, as plain values."""
    import ray.data

    from sylk.stages.ann_store import ann_ingest
    from sylk.stages.dedup_store import dedup_ingest, neardup_ingest
    from sylk.stages.text_index import index_ingest
    from sylk.stages.upsert_store import upsert_write

    ds = ray.data.from_arrow(_content(kind, which))
    if kind == "text":
        return index_ingest(ds, store, inc_id=inc, n_buckets=8).to_pylist()
    if kind == "ann":
        return ann_ingest(ds, store, inc_id=inc, n_cells=4).to_pylist()
    if kind == "upsert":
        return sorted(upsert_write(ds, store, "user_id", "event_id",
                                   inc_id=inc).take_all(),
                      key=lambda r: r["bucket"])
    if kind == "dedup":
        return sorted(dedup_ingest(ds, store, store + "_out", "key",
                                   "event_id", inc_id=inc).take_all(),
                      key=lambda r: r["bucket"])
    return neardup_ingest(ds, store, store + "_out", inc_id=inc,
                          threshold=0.7)


def _answer(kind, store):
    """What the store's probes answer (the band and hash stores: the
    rows of their read set)."""
    import pyarrow.parquet as pq

    from sylk.stages.store_fold import read_set
    from sylk.stages.text_index import index_match_docs, index_phrase_docs
    from sylk.stages.upsert_store import read_current

    if kind == "text":
        return (_bm25(store, ("zeta",)), _bm25(store, ("alpha", "gamma")),
                _ids(index_match_docs(store, ["gamma"])),
                _ids(index_match_docs(store, ["alpha", "beta"])),
                _ids(index_phrase_docs(store, ["alpha", "beta"])))
    if kind == "ann":
        return _top(store)
    if kind == "upsert":
        df = read_current(store, "user_id", "event_id",
                          tombstone_col="_del").to_pandas()
        return sorted(zip(df.user_id, df.val))
    files = read_set(store, sorted(glob.glob(os.path.join(store, "p=*"))))
    stored = sorted(pq.read_table(files, partitioning=None).to_pylist(),
                    key=lambda r: tuple(r.values())) if files else []
    if kind == "dedup":
        from sylk.stages.dedup_store import read_accepted

        return stored, sorted(read_accepted(store + "_out", store)
                              .to_pandas().event_id)
    return stored


def _fold(kind, store):
    """Compact the store; returns the fold's ``files_in``, ``files_out``
    and ``upto``."""
    from sylk.stages.ann_store import compact_ann_store
    from sylk.stages.dedup_store import compact_ingest_store
    from sylk.stages.store_fold import watermark
    from sylk.stages.text_index import compact_text_index
    from sylk.stages.upsert_store import compact_store

    if kind == "text":
        return compact_text_index(store)
    if kind == "ann":
        return compact_ann_store(store)
    if kind == "upsert":
        res = compact_store(store, "user_id", "event_id",
                            tombstone_col="_del")
        return {"files_in": res["runs_in"], "files_out": res["runs_out"],
                "upto": watermark(store)}
    return compact_ingest_store(store)


def _tiers(kinds):
    """``(kind, exchange)`` params: each kind in the driver tier, which
    every store of these tests is small enough for, under its plain id,
    then in the exchange tier under ``<kind>-exchange``."""
    return ([pytest.param(k, False, id=k) for k in kinds]
            + [pytest.param(k, True, id=f"{k}-exchange") for k in kinds])


def _files(store):
    return sorted(os.path.relpath(f, store)
                  for f in glob.glob(os.path.join(store, "**"),
                                     recursive=True) if os.path.isfile(f))


@pytest.mark.parametrize("kind,exchange",
                         _tiers(["text", "ann", "upsert", "dedup"]))
def test_rerun_replaces_its_increment(ray_session, tmp_path, monkeypatch,
                                      kind, exchange):
    """Re-ingesting a marked increment with smaller content leaves what a
    clean ingest of that content leaves: no file of the first attempt
    answers a probe (text: AND ``gamma`` and BM25 ``zeta`` would still
    find docs 2 and 3 in the first attempt's buckets; dedup: the first
    attempt's keys and accepted rows would stay)."""
    from sylk.stages.store_fold import read_marker

    if exchange:
        scale_tier(monkeypatch)
    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    for inc, which in ((1, "base"), (2, "first"), (2, "second")):
        _write(kind, store, inc, which)
    for inc, which in ((1, "base"), (2, "second")):
        _write(kind, ref, inc, which)
    assert _answer(kind, store) == _answer(kind, ref)
    assert read_marker(store, 2) == read_marker(ref, 2)
    assert _files(store) == _files(ref)


def test_upsert_below_watermark_is_refused(ray_session, tmp_path):
    """An upsert at or below the compaction watermark raises instead of
    landing a run that the compact file shadows."""
    import ray.data

    from sylk.stages.upsert_store import (compact_store, read_current,
                                          upsert_write)

    def _live():
        df = read_current(store, "user_id", "event_id",
                          tombstone_col="_del").to_pandas()
        return sorted(zip(df.user_id, df.val))

    store = str(tmp_path / "store")
    _write("upsert", store, 1, "base")
    _write("upsert", store, 2, "first")
    compact_store(store, "user_id", "event_id", tombstone_col="_del")
    before = _live()
    new = pa.table({"user_id": pa.array([1], pa.int64()),
                    "event_id": pa.array([999], pa.int64()),
                    "val": pa.array(["NEW"]), "_del": pa.array([False])})
    with pytest.raises(ValueError, match="watermark"):
        upsert_write(ray.data.from_arrow(new), store, "user_id",
                     "event_id", inc_id=2)
    assert _live() == before


@pytest.mark.parametrize("kind,exchange",
                         _tiers(["text", "ann", "upsert", "neardup"]))
def test_crash_before_marker(ray_session, tmp_path, monkeypatch, kind,
                             exchange):
    """A writer that dies after its partition files and before its
    marker leaves an increment that no probe reads and no fold consumes;
    its rerun then equals a clean run."""
    from sylk.stages import store_fold

    if exchange:
        scale_tier(monkeypatch)
    store, before, ref = (str(tmp_path / d)
                          for d in ("store", "before", "ref"))
    for d in (store, before, ref):
        _write(kind, d, 1, "base")
    _write(kind, ref, 2, "first")

    def _crash(*a, **k):
        raise RuntimeError("crash before the marker")

    with monkeypatch.context() as m:
        m.setattr(store_fold, "write_marker", _crash)
        with pytest.raises(RuntimeError, match="before the marker"):
            _write(kind, store, 2, "first")
    assert glob.glob(os.path.join(store, "*=*", "inc2.parquet"))
    assert _answer(kind, store) == _answer(kind, before)
    _fold(kind, store)
    assert store_fold.watermark(store) == 1
    assert _answer(kind, store) == _answer(kind, before)

    _write(kind, store, 2, "first")
    assert _answer(kind, store) == _answer(kind, ref)
    assert store_fold.read_marker(store, 2) == store_fold.read_marker(ref, 2)
    if kind == "neardup":
        from sylk.stages.dedup_store import read_accepted

        assert (sorted(read_accepted(store + "_out", store).to_pandas().doc_id)
                == sorted(read_accepted(ref + "_out", ref).to_pandas().doc_id)
                == [1, 2, 11])


@pytest.mark.parametrize("kind", ["upsert", "dedup"])
def test_store_without_complete_increment_reads_typed_empty(
        ray_session, tmp_path, monkeypatch, kind):
    """A fresh store reads as an empty Dataset, and a store whose only
    increment crashed before its marker as an empty Dataset with the
    schema the completed increment then reads with."""
    from sylk.stages import dedup_store, store_fold
    from sylk.stages.dedup_store import read_accepted
    from sylk.stages.upsert_store import read_current

    store = str(tmp_path / "store")

    def _read():
        if kind == "upsert":
            return read_current(store, "user_id", "event_id",
                                tombstone_col="_del")
        return read_accepted(store + "_out", store)

    assert _read().count() == 0

    def _crash(*a, **k):
        raise RuntimeError("crash before the marker")

    with monkeypatch.context() as m:
        m.setattr(dedup_store if kind == "dedup" else store_fold,
                  "write_marker", _crash)
        with pytest.raises(RuntimeError, match="before the marker"):
            _write(kind, store, 1, "base")
    empty = _read()
    assert empty.count() == 0
    _write(kind, store, 1, "base")
    full = _read()
    assert full.count() > 0
    assert empty.schema().names == full.schema().names
    assert empty.schema().types == full.schema().types


def test_only_store_fold_and_router_name_increment_files():
    """The ``inc<id>.parquet`` name is built in one module: no stage but
    store_fold (and the routed sink, which renames the files Arrow's
    dataset writer names) spells it out."""
    import pathlib
    import re

    import sylk.stages

    pat = re.compile(r"""["']inc(\{|%|["']\s*\+)""")
    root = pathlib.Path(sylk.stages.__file__).parent
    found = [f"{p.name}:{i}" for p in sorted(root.glob("*.py"))
             if p.name not in ("store_fold.py", "router.py")
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if pat.search(line)]
    assert not found, f"increment file names built outside store_fold: {found}"
