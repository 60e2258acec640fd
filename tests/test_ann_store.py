"""Incremental ANN store: scan pruning, rerun idempotence, crash
windows, compaction + watermark."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pytest


def _emb_table(n, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })


def _ingest_slices(store, tbl, n_inc, n_cells=4):
    import ray.data

    from sylk.stages.ann_store import ann_ingest

    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    for i in range(n_inc):
        part = tbl.filter(pa.array(ids % n_inc == i))
        ann_ingest(ray.data.from_arrow(part), store, inc_id=i + 1,
                   n_cells=n_cells)


def _query_df(store, queries, k=5, nprobe=4, **kw):
    from sylk.stages.ann_store import ann_store_query

    return (ann_store_query(store, queries, k=k, nprobe=nprobe, **kw)
            .to_pandas()
            .sort_values(["query_idx", "vec_id"])
            .reset_index(drop=True))


def test_ann_store_full_probe_exact_and_pruning(ray_session, tmp_path):
    """Full probe over 3 increments == one-shot brute force; a pruned
    probe's read set opens ONLY the probed cell= dirs (the temporal
    day-pruning directory test, vector edition)."""
    import ray.data

    from sylk.stages.ann_store import (_load_index, ann_store_query,
                                       probe_files)
    from sylk.stages.similarity import _normalize, ann_topk_bruteforce

    store = str(tmp_path / "store")
    tbl = _emb_table(120)
    _ingest_slices(store, tbl, 3, n_cells=4)
    queries = np.vstack(
        [tbl.column("embedding")[i].as_py() for i in range(2)])

    got = _query_df(store, queries, k=5, nprobe=4)
    ref = (ann_topk_bruteforce(ray.data.from_arrow(tbl), queries, k=5)
           .to_pandas().sort_values(["query_idx", "vec_id"])
           .reset_index(drop=True))
    assert got.equals(ref)

    # pruning contract: nprobe=1 reads exactly the queries' nearest
    # cells' files and nothing else
    index = _load_index(store)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    near = {int(c) for c in (q @ index.centroids.T).argmax(axis=1)}
    files = probe_files(store, near)
    assert files
    opened = {_cell_of(f) for f in files}
    assert opened <= near  # no file outside the probed cells
    all_cells = {int(os.path.basename(d).split("=")[1])
                 for d in glob.glob(os.path.join(store, "cell=*"))}
    assert near < all_cells  # strict subset: something was pruned


def _cell_of(path):
    for part in path.split(os.sep):
        if part.startswith("cell="):
            return int(part.split("=")[1])
    raise AssertionError(path)


def test_ann_store_rerun_idempotent(ray_session, tmp_path):
    """Re-ingesting the same increment (deterministic file names +
    overwrite) changes neither the file set nor the query answer."""
    import ray.data

    from sylk.stages.ann_store import ann_ingest

    store = str(tmp_path / "store")
    tbl = _emb_table(60)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    inc1 = tbl.filter(pa.array(ids % 2 == 0))
    inc2 = tbl.filter(pa.array(ids % 2 == 1))
    ann_ingest(ray.data.from_arrow(inc1), store, inc_id=1, n_cells=4)
    ann_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_cells=4)
    queries = np.vstack([tbl.column("embedding")[0].as_py()])
    before_files = sorted(glob.glob(os.path.join(store, "cell=*", "*")))
    before = _query_df(store, queries)

    # crash recovery: marker lost, increment rerun in full
    os.remove(os.path.join(store, "_done_inc2.json"))
    ann_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_cells=4)
    assert sorted(glob.glob(os.path.join(store, "cell=*", "*"))) \
        == before_files
    assert _query_df(store, queries).equals(before)
    assert os.path.exists(os.path.join(store, "_done_inc2.json"))


def test_ann_store_partial_crash_rerun(ray_session, tmp_path):
    """Crash mid-increment (some cell files visible, marker missing):
    the rerun overwrites its own partial work — no duplicates, same
    final state."""
    import ray.data

    from sylk.stages.ann_store import ann_ingest

    store = str(tmp_path / "store")
    tbl = _emb_table(80)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    inc1 = tbl.filter(pa.array(ids % 2 == 0))
    inc2 = tbl.filter(pa.array(ids % 2 == 1))
    ann_ingest(ray.data.from_arrow(inc1), store, inc_id=1, n_cells=4)
    ann_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_cells=4)
    queries = np.vstack([tbl.column("embedding")[1].as_py()])
    want = _query_df(store, queries)

    # simulate the crash window: drop the marker AND one of inc2's
    # cell files (partial visibility), then rerun
    os.remove(os.path.join(store, "_done_inc2.json"))
    inc2_files = glob.glob(os.path.join(store, "cell=*", "inc2.parquet"))
    assert inc2_files
    os.remove(inc2_files[0])
    ann_ingest(ray.data.from_arrow(inc2), store, inc_id=2, n_cells=4)
    assert _query_df(store, queries).equals(want)


def test_ann_store_compact_and_watermark(ray_session, tmp_path):
    """Compaction folds complete increments into one reserved-name file
    per cell, the query answer is unchanged, the watermark refuses
    reruns at/below the horizon, and ingest continues above it."""
    import ray.data

    from sylk.stages.ann_store import ann_ingest, compact_ann_store

    store = str(tmp_path / "store")
    tbl = _emb_table(90)
    _ingest_slices(store, tbl, 3, n_cells=4)
    queries = np.vstack([tbl.column("embedding")[2].as_py()])
    before = _query_df(store, queries)

    res = compact_ann_store(store)
    assert res["upto"] == 3 and res["files_out"] <= res["files_in"]
    assert not glob.glob(os.path.join(store, "cell=*", "inc*.parquet"))
    per_cell = [glob.glob(os.path.join(d, "*.parquet"))
                for d in glob.glob(os.path.join(store, "cell=*"))]
    assert all(len(fs) == 1 and "compact3" in fs[0] for fs in per_cell)
    assert _query_df(store, queries).equals(before)

    with pytest.raises(ValueError, match="watermark"):
        ann_ingest(ray.data.from_arrow(tbl), store, inc_id=3, n_cells=4)

    extra = _emb_table(10, seed=9)
    extra = extra.set_column(0, "vec_id",
                             pa.array(range(1000, 1010), pa.int64()))
    ann_ingest(ray.data.from_arrow(extra), store, inc_id=4, n_cells=4)
    after = _query_df(store, queries, k=5)
    assert len(after) == len(before)  # still top-5 per query

    # idempotent second compaction folds the new increment too
    res2 = compact_ann_store(store)
    assert res2["upto"] == 4
    with open(os.path.join(store, "_compact.json")) as f:
        assert json.load(f)["upto"] == 4


def test_ann_store_delete_logical_then_physical(ray_session, tmp_path):
    """Tombstoned vectors leave the candidate set immediately; the
    purge removes them from every cell file; double/unknown deletes
    are no-ops; an unmarked tombstone (crash window) is invisible."""
    import ray.data

    from sylk.stages.ann_store import (ann_delete, compact_ann_store)
    from sylk.stages.similarity import ann_topk_bruteforce

    store = str(tmp_path / "store")
    tbl = _emb_table(100)
    _ingest_slices(store, tbl, 3, n_cells=4)
    queries = np.vstack(
        [tbl.column("embedding")[i].as_py() for i in range(2)])

    dels = [0, 5, 17, 9999]             # incl. a never-ingested id
    ann_delete(store, dels, del_id=1)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    rest = tbl.filter(pa.array(~np.isin(ids, dels)))
    ref = (ann_topk_bruteforce(ray.data.from_arrow(rest), queries, k=5)
           .to_pandas().sort_values(["query_idx", "vec_id"])
           .reset_index(drop=True))
    got = _query_df(store, queries, k=5, nprobe=4)
    assert not set(got.vec_id) & set(dels)
    assert got.equals(ref)

    ann_delete(store, [0, 5], del_id=2)  # double delete: no-op
    assert _query_df(store, queries, k=5, nprobe=4).equals(ref)

    compact_ann_store(store)
    import pyarrow.parquet as pq
    for f in glob.glob(os.path.join(store, "cell=*", "*.parquet")):
        left = pq.read_table(f, columns=["vec_id"]).column("vec_id")
        assert not set(left.to_pylist()) & set(dels)
    assert _query_df(store, queries, k=5, nprobe=4).equals(ref)

    # crash window: a tombstone file without its marker is invisible
    ann_delete(store, [1], del_id=3)
    os.remove(os.path.join(store, "_deletes", "_done_del3.json"))
    from sylk.stages.store_fold import delete_files
    assert not any("del3" in f for f in delete_files(store))
    assert _query_df(store, queries, k=5, nprobe=4).equals(ref)
    ann_delete(store, [1], del_id=3)
    assert any("del3" in f for f in delete_files(store))
    assert 1 not in set(_query_df(store, queries, k=5, nprobe=4).vec_id)


def test_ann_store_asof_snapshot(ray_session, tmp_path):
    """as_of=h equals a store that only ever saw increments <= h
    (stable centroids make routing horizon-invariant); tombstones still
    apply; snapshots below the watermark are refused."""
    import ray.data

    from sylk.stages.ann_store import (ann_delete, compact_ann_store,
                                       ann_ingest)

    full = str(tmp_path / "full")
    two = str(tmp_path / "two")
    tbl = _emb_table(90)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    _ingest_slices(full, tbl, 3, n_cells=4)
    for i in range(2):
        ann_ingest(ray.data.from_arrow(
            tbl.filter(pa.array(ids % 3 == i))), two, inc_id=i + 1,
            n_cells=4)
    queries = np.vstack(
        [tbl.column("embedding")[i].as_py() for i in range(2)])

    snap = _query_df(full, queries, k=5, nprobe=4, as_of=2)
    assert snap.equals(_query_df(two, queries, k=5, nprobe=4))
    assert not snap.equals(_query_df(full, queries, k=5, nprobe=4))

    # a tombstone hits the snapshot too (GDPR beats time travel)
    victim = int(snap.vec_id.iloc[0])
    ann_delete(full, [victim], del_id=1)
    after = _query_df(full, queries, k=5, nprobe=4, as_of=2)
    assert victim not in set(after.vec_id)

    compact_ann_store(full)
    with pytest.raises(ValueError, match="watermark"):
        _query_df(full, queries, k=5, nprobe=4, as_of=2)
    assert len(_query_df(full, queries, k=5, nprobe=4, as_of=3)) \
        == len(_query_df(full, queries, k=5, nprobe=4))
