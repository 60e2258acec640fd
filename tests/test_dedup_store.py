"""Incremental exact-dedup store: cross-increment anti-join, in-increment
first-wins, rerun idempotence, crash-window convergence."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sylk.stages.dedup_store import dedup_ingest, read_accepted


def _inc(rows):
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "key": pa.array([r[1] for r in rows], pa.string()),
    })


def _ingest(ray_ds, store, out, inc_id):
    return dedup_ingest(ray_ds, store, out, key_col="key",
                        order_col="event_id", inc_id=inc_id).to_pandas()


def test_incremental_dedup_semantics(ray_session, tmp_path):
    import ray.data

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    # inc 1: key a twice (first wins), keys b, c
    inc1 = _inc([(5, "a"), (1, "a"), (2, "b"), (3, "c")])
    s1 = _ingest(ray.data.from_arrow(inc1), store, out, 1)
    assert s1.accepted.sum() == 3 and s1.rejected.sum() == 1
    # inc 2: a and c seen (rejected), d and e novel, e twice
    inc2 = _inc([(10, "a"), (11, "d"), (12, "c"), (14, "e"), (13, "e")])
    s2 = _ingest(ray.data.from_arrow(inc2), store, out, 2)
    assert s2.accepted.sum() == 2 and s2.rejected.sum() == 3
    acc = read_accepted(out, store).to_pandas().sort_values("event_id")
    assert acc.event_id.tolist() == [1, 2, 3, 11, 13]
    assert read_accepted(out, store, 2).to_pandas().event_id.sort_values() \
        .tolist() == [11, 13]


def test_incremental_dedup_rerun_idempotent(ray_session, tmp_path):
    """Re-ingesting the same increment (crash-rerun) overwrites its own
    files: same accepted set, no duplicates, store file count stable."""
    import ray.data

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    inc1 = _inc([(1, "a"), (2, "b")])
    _ingest(ray.data.from_arrow(inc1), store, out, 1)
    inc2 = _inc([(10, "a"), (11, "d")])
    s2a = _ingest(ray.data.from_arrow(inc2), store, out, 2)
    n_files = len(glob.glob(os.path.join(store, "p=*", "*.parquet")))
    # rerun increment 2 — its own store entries must be IGNORED by the
    # probe, its files overwritten
    s2b = _ingest(ray.data.from_arrow(inc2), store, out, 2)
    assert s2a.accepted.sum() == s2b.accepted.sum() == 1
    assert len(glob.glob(os.path.join(store, "p=*", "*.parquet"))) == n_files
    acc = read_accepted(out, store).to_pandas().event_id.sort_values().tolist()
    assert acc == [1, 2, 11]


def test_incremental_dedup_crash_after_store_append(ray_session, tmp_path):
    """Worst crash window: store append landed but the accepted-output
    file did not.  The rerun must still accept the increment's rows
    (its own store files are excluded from the probe)."""
    import ray.data

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    _ingest(ray.data.from_arrow(_inc([(1, "a")])), store, out, 1)
    _ingest(ray.data.from_arrow(_inc([(2, "b")])), store, out, 2)
    # simulate the crash: delete inc 2's accepted outputs, keep its
    # store append
    for f in glob.glob(os.path.join(out, "inc=2", "*.parquet")):
        os.remove(f)
    s2 = _ingest(ray.data.from_arrow(_inc([(2, "b")])), store, out, 2)
    assert s2.accepted.sum() == 1
    assert read_accepted(out, store, 2).to_pandas().event_id.tolist() == [2]


def test_incremental_dedup_bucket_pruning(ray_session, tmp_path):
    """Probe reads only the matching hash-prefix partitions: the store
    layout is one dir per bucket and each increment appends at most one
    file per bucket it touched."""
    import ray.data

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    rows = [(i, f"k{i}") for i in range(200)]
    _ingest(ray.data.from_arrow(_inc(rows)), store, out, 1)
    pdirs = glob.glob(os.path.join(store, "p=*"))
    assert 1 < len(pdirs) <= 64  # bits=6 -> at most 64 buckets
    for d in pdirs:
        fs = glob.glob(os.path.join(d, "*.parquet"))
        assert [os.path.basename(f) for f in fs] == ["inc1.parquet"]
        t = pq.read_table(fs[0])
        assert t.schema.names == ["h"]


def _docs(rows):
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })


_BASE = ("the quick brown fox jumps over the lazy dog and runs far away "
         "into the deep dark woods tonight while the moon rises slowly")


def test_neardup_ingest_semantics(ray_session, tmp_path):
    """In-increment cluster collapses to its min-id representative;
    cross-increment near-dups of prior ACCEPTED docs are rejected;
    near-dups of prior REJECTED docs are not (they are not in the
    store)."""
    import ray.data

    from sylk.stages.dedup_store import neardup_ingest, read_accepted

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    inc1 = _docs([(1, _BASE), (2, _BASE), (3, "totally unrelated words "
                                              "about ray data pipelines")])
    # threshold 0.7: the one-word edit below scores 3-gram j = 0.75
    s1 = neardup_ingest(ray.data.from_arrow(inc1), store, out, inc_id=1,
                        threshold=0.7)
    assert s1 == {"accepted": 2, "rejected_in_inc": 1, "rejected_cross": 0}
    # inc 2: near-dup of accepted doc 1 -> rejected; novel doc -> kept
    inc2 = _docs([(10, _BASE.replace("moon", "sun")),
                  (11, "completely novel content with no overlap at all "
                       "whatsoever in any shingle")])
    s2 = neardup_ingest(ray.data.from_arrow(inc2), store, out, inc_id=2,
                        threshold=0.7)
    assert s2 == {"accepted": 1, "rejected_in_inc": 0, "rejected_cross": 1}
    acc = read_accepted(out, store).to_pandas().doc_id.sort_values().tolist()
    assert acc == [1, 3, 11]


def test_neardup_ingest_rerun_idempotent(ray_session, tmp_path):
    import ray.data

    from sylk.stages.dedup_store import neardup_ingest, read_accepted

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    inc1 = _docs([(1, _BASE), (2, "other standalone content here")])
    neardup_ingest(ray.data.from_arrow(inc1), store, out, inc_id=1,
                   threshold=0.7)
    inc2 = _docs([(10, _BASE.replace("dog", "cat"))])
    s2a = neardup_ingest(ray.data.from_arrow(inc2), store, out, inc_id=2,
                         threshold=0.7)
    s2b = neardup_ingest(ray.data.from_arrow(inc2), store, out, inc_id=2,
                         threshold=0.7)
    assert s2a == s2b == {"accepted": 0, "rejected_in_inc": 0,
                          "rejected_cross": 1}
    acc = read_accepted(out, store).to_pandas().doc_id.sort_values().tolist()
    assert acc == [1, 2]


def test_upsert_store_semantics(ray_session, tmp_path):
    """Last (inc, order) wins; tombstone winners vanish; a later
    re-insert resurrects a deleted key; compaction preserves the live
    view and collapses runs."""
    import ray.data

    from sylk.stages.upsert_store import (compact_store, read_current,
                                          upsert_write)

    store = str(tmp_path / "store")

    def _inc_tbl(rows):
        return pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_id": pa.array([r[1] for r in rows], pa.int64()),
            "val": pa.array([r[2] for r in rows], pa.string()),
            "_del": pa.array([r[3] for r in rows], pa.bool_()),
        })

    # inc 1: k1 v1 then v2 (in-inc last wins), k2 v1, k3 v1
    upsert_write(ray.data.from_arrow(_inc_tbl([
        (1, 10, "k1v1", False), (1, 11, "k1v2", False),
        (2, 12, "k2v1", False), (3, 13, "k3v1", False)])),
        store, "user_id", "event_id", inc_id=1).materialize()
    # inc 2: k2 deleted, k3 updated, k4 inserted, k5 insert+delete
    upsert_write(ray.data.from_arrow(_inc_tbl([
        (2, 20, "", True), (3, 21, "k3v2", False),
        (4, 22, "k4v1", False), (5, 23, "k5v1", False),
        (5, 24, "", True)])),
        store, "user_id", "event_id", inc_id=2).materialize()

    live = read_current(store, "user_id", "event_id",
                        tombstone_col="_del").to_pandas()
    got = dict(zip(live.user_id, live.val))
    assert got == {1: "k1v2", 3: "k3v2", 4: "k4v1"}

    # inc 3: k2 resurrected
    upsert_write(ray.data.from_arrow(_inc_tbl([(2, 30, "k2v2", False)])),
                 store, "user_id", "event_id", inc_id=3).materialize()
    live2 = read_current(store, "user_id", "event_id",
                         tombstone_col="_del").to_pandas()
    assert dict(zip(live2.user_id, live2.val))[2] == "k2v2"

    stats = compact_store(store, "user_id", "event_id",
                          tombstone_col="_del")
    assert stats["runs_out"] < stats["runs_in"]
    live3 = read_current(store, "user_id", "event_id",
                         tombstone_col="_del").to_pandas()
    assert (sorted(zip(live3.user_id, live3.val))
            == sorted(zip(live2.user_id, live2.val)))


def test_upsert_write_rerun_idempotent(ray_session, tmp_path):
    import glob as _glob

    import ray.data

    from sylk.stages.upsert_store import read_current, upsert_write

    store = str(tmp_path / "store")
    t = pa.table({"user_id": pa.array([1, 2], pa.int64()),
                  "event_id": pa.array([10, 11], pa.int64()),
                  "val": pa.array(["a", "b"]),
                  "_del": pa.array([False, False])})
    upsert_write(ray.data.from_arrow(t), store, "user_id", "event_id",
                 inc_id=1).materialize()
    n_files = len(_glob.glob(os.path.join(store, "p=*", "*.parquet")))
    upsert_write(ray.data.from_arrow(t), store, "user_id", "event_id",
                 inc_id=1).materialize()
    assert len(_glob.glob(os.path.join(store, "p=*", "*.parquet"))) == n_files
    live = read_current(store, "user_id", "event_id",
                        tombstone_col="_del").to_pandas()
    assert sorted(live.user_id) == [1, 2]


def test_upsert_compaction_crash_recovery(ray_session, tmp_path):
    """Crash windows of the shared fold on an upsert store: a leftover
    tmp file (crash before the rename) and source runs still on disk
    with no watermark (crash after the rename, before the deletes) both
    leave the live view unchanged, and the next compaction converges."""
    import json
    import shutil

    import ray.data

    from sylk.stages.upsert_store import (compact_store, read_current,
                                          upsert_write)

    store = str(tmp_path / "store")

    def _t(rows):
        return pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_id": pa.array([r[1] for r in rows], pa.int64()),
            "val": pa.array([r[2] for r in rows], pa.string()),
            "_del": pa.array([r[3] for r in rows], pa.bool_())})

    def _live():
        t = read_current(store, "user_id", "event_id",
                         tombstone_col="_del").to_pandas()
        return sorted(zip(t.user_id, t.val))

    upsert_write(ray.data.from_arrow(_t([
        (1, 10, "a", False), (2, 11, "b", False), (3, 12, "c", False)])),
        store, "user_id", "event_id", inc_id=1)
    upsert_write(ray.data.from_arrow(_t([
        (1, 20, "a2", False), (2, 21, "", True)])),
        store, "user_id", "event_id", inc_id=2)
    want = _live()
    assert want == [(1, "a2"), (3, "c")]

    runs = sorted(glob.glob(os.path.join(store, "p=*", "inc*.parquet")))
    saved = str(tmp_path / "saved")
    for f in runs:
        dst = os.path.join(saved, os.path.relpath(f, store))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy(f, dst)
    # crash before the rename: a half-written tmp is never read
    pdir = os.path.dirname(runs[0])
    with open(os.path.join(pdir, "compact2.parquet.tmp"), "wb") as f:
        f.write(b"partial")
    assert _live() == want
    compact_store(store, "user_id", "event_id", tombstone_col="_del")
    # crash after the rename, before the deletes and the watermark
    for f in runs:
        shutil.copy(os.path.join(saved, os.path.relpath(f, store)), f)
    os.remove(os.path.join(store, "_compact.json"))
    assert _live() == want
    stats = compact_store(store, "user_id", "event_id",
                          tombstone_col="_del")
    assert stats["runs_out"] < stats["runs_in"]
    assert not glob.glob(os.path.join(store, "p=*", "inc*.parquet"))
    assert {os.path.basename(f) for f in glob.glob(
        os.path.join(store, "p=*", "*.parquet"))} == {"compact2.parquet"}
    with open(os.path.join(store, "_compact.json")) as f:
        assert json.load(f)["upto"] == 2
    assert _live() == want


def test_upsert_store_model_based(ray_session, tmp_path):
    """Randomized increments vs a dict reference model: after every
    increment the live view must equal 'last write per key, tombstone
    deletes' applied sequentially.  Seeded, deterministic."""
    import random

    import ray.data

    from sylk.stages.upsert_store import (compact_store, read_current,
                                          upsert_write)

    rng = random.Random(1234)
    store = str(tmp_path / "store")
    model: dict = {}
    eid = 0
    for inc in range(1, 6):
        rows = []
        for _ in range(rng.randrange(1, 12)):
            k = rng.randrange(8)
            delete = rng.random() < 0.3
            eid += 1
            rows.append((k, eid, f"v{eid}", delete))
        for k, _e, v, d in rows:  # arrival order == eid order
            if d:
                model.pop(k, None)
            else:
                model[k] = v
        t = pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_id": pa.array([r[1] for r in rows], pa.int64()),
            "val": pa.array([r[2] for r in rows], pa.string()),
            "_del": pa.array([r[3] for r in rows], pa.bool_()),
        })
        upsert_write(ray.data.from_arrow(t), store, "user_id",
                     "event_id", inc_id=inc).materialize()
        if inc == 3:  # compact mid-history; must be invisible
            compact_store(store, "user_id", "event_id",
                          tombstone_col="_del")
        live = read_current(store, "user_id", "event_id",
                            tombstone_col="_del").to_pandas()
        got = dict(zip(live.user_id, live.val))
        assert got == model, (inc, got, model)


def test_dedup_ingest_model_based(ray_session, tmp_path):
    """Randomized increments vs a set reference model: accepted ids
    must equal 'first increment (then smallest order) per key'."""
    import random

    import ray.data

    from sylk.stages.dedup_store import dedup_ingest, read_accepted

    rng = random.Random(99)
    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    seen: set = set()
    expect: list = []
    eid = 0
    for inc in range(1, 5):
        rows = []
        for _ in range(rng.randrange(2, 15)):
            eid += 1
            rows.append((eid, f"k{rng.randrange(10)}"))
        # model: first occurrence per key (by eid) across the history
        for e, k in sorted(rows):
            if k not in seen:
                seen.add(k)
                expect.append(e)
        t = pa.table({"event_id": pa.array([r[0] for r in rows], pa.int64()),
                      "key": pa.array([r[1] for r in rows], pa.string())})
        dedup_ingest(ray.data.from_arrow(t), store, out, key_col="key",
                     order_col="event_id", inc_id=inc).materialize()
    acc = read_accepted(out, store).to_pandas().event_id.sort_values().tolist()
    assert acc == sorted(expect)


def test_neardup_crash_between_swaps_converges(ray_session, tmp_path):
    """Crash after the band-store swap but before the accepted-output
    swap: the increment is VISIBLY incomplete (read_accepted empty) and
    a rerun converges — no silent recall loss, no duplicates."""
    import shutil

    import ray.data

    from sylk.stages.dedup_store import neardup_ingest, read_accepted

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    inc1 = _docs([(1, _BASE), (2, "standalone other content entirely")])
    neardup_ingest(ray.data.from_arrow(inc1), store, out, inc_id=1,
                   threshold=0.7)
    # simulate the crash window: store/inc=1 present, out/inc=1 gone
    shutil.rmtree(os.path.join(out, "inc=1"))
    assert read_accepted(out, store).count() == 0  # visibly incomplete
    s1 = neardup_ingest(ray.data.from_arrow(inc1), store, out, inc_id=1,
                        threshold=0.7)
    assert s1["accepted"] == 2  # own store files ignored by the probe
    # the store still rejects a later near-dup of inc 1's accepted doc
    inc2 = _docs([(10, _BASE.replace("dog", "cat"))])
    s2 = neardup_ingest(ray.data.from_arrow(inc2), store, out, inc_id=2,
                        threshold=0.7)
    assert s2["rejected_cross"] == 1
    acc = read_accepted(out, store).to_pandas().doc_id.sort_values().tolist()
    assert acc == [1, 2]


def test_upsert_compaction_survives_increment_rerun(ray_session, tmp_path):
    """ADVICE r5 (high): compacted runs carry a RESERVED name.  Repro:
    two keys in one bucket, inc1 then inc2, compact, then the documented
    crash-recovery rerun of increment 2 — inc1's key must stay live
    (the old run_inc<top> compact name was os.replace'd by the rerun,
    silently deleting every other key's history).  The rerun is below
    the watermark, so it is refused and both keys keep their values."""
    import numpy as np
    import ray.data

    from sylk.functions.hashing import mix64
    from sylk.stages.upsert_store import (compact_store, read_current,
                                          upsert_write)

    # find two keys that hash into the same bucket at bits=4
    buckets: dict = {}
    k = 1
    while True:
        b = int(mix64(np.array([k], np.uint64))[0] >> np.uint64(60))
        buckets.setdefault(b, []).append(k)
        if len(buckets[b]) == 2:
            k1, k2 = buckets[b]
            break
        k += 1

    def _t(rows):
        return pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_id": pa.array([r[1] for r in rows], pa.int64()),
            "val": pa.array([r[2] for r in rows], pa.string()),
            "_del": pa.array([r[3] for r in rows], pa.bool_()),
        })

    store = str(tmp_path / "store")
    upsert_write(ray.data.from_arrow(_t([(k1, 10, "k1v1", False)])),
                 store, "user_id", "event_id", inc_id=1).materialize()
    upsert_write(ray.data.from_arrow(_t([(k2, 20, "k2v1", False)])),
                 store, "user_id", "event_id", inc_id=2).materialize()
    compact_store(store, "user_id", "event_id", tombstone_col="_del")
    # the compacted run must be un-clobberable by any increment rerun;
    # the watermark refuses the rerun outright
    assert glob.glob(os.path.join(store, "p=*", "compact*.parquet"))
    with pytest.raises(ValueError, match="watermark"):
        upsert_write(ray.data.from_arrow(_t([(k2, 20, "k2v1", False)])),
                     store, "user_id", "event_id", inc_id=2)
    live = read_current(store, "user_id", "event_id",
                        tombstone_col="_del").to_pandas()
    assert sorted(live.user_id) == sorted([k1, k2])
    assert dict(zip(live.user_id, live.val)) == {k1: "k1v1", k2: "k2v1"}


def test_neardup_probe_prunes_band_buckets(ray_session, tmp_path,
                                           monkeypatch):
    """VERDICT r4 #1: the near-dup store is partitioned by band-hash
    prefix and an increment's probe opens ONLY the p= partitions its
    own band hashes hit (the temporal day-pruning test's shape)."""
    import ray.data

    import sylk.stages.dedup_store as dstore

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    inc1 = _docs([(1, _BASE),
                  (2, "standalone other content entirely"),
                  (3, "a third very different document about parquet "
                      "files and arrow tables in a ray cluster")])
    dstore.neardup_ingest(ray.data.from_arrow(inc1), store, out, inc_id=1,
                          threshold=0.7)
    store_buckets = {os.path.basename(d)
                     for d in glob.glob(os.path.join(store, "p=*"))}
    assert len(store_buckets) > 1  # inc1's bands spread over partitions

    seen: list = []
    real = dstore._neardup_probe_files

    def _rec(store_dir, inc_id, buckets):
        files = real(store_dir, inc_id, buckets)
        seen.append((set(buckets), files))
        return files

    monkeypatch.setattr(dstore, "_neardup_probe_files", _rec)
    inc2 = _docs([(10, _BASE.replace("dog", "cat"))])
    s2 = dstore.neardup_ingest(ray.data.from_arrow(inc2), store, out,
                               inc_id=2, threshold=0.7)
    assert s2["rejected_cross"] == 1  # pruning kept the collision
    (buckets, files), = seen
    probed_dirs = {os.path.basename(os.path.dirname(f)) for f in files}
    # every opened file lives in a bucket hit by inc2's own bands...
    assert probed_dirs <= {f"p={b}" for b in buckets}
    # ...and the probe did NOT open the whole store (inc2 has 16 band
    # hashes; inc1's three docs occupy more partitions than that)
    assert len(probed_dirs) < len(store_buckets)


def test_compact_ingest_store_exact(ray_session, tmp_path):
    """VERDICT r4 #7: compaction folds complete increments' bucket
    files into one reserved compact file; later increments still
    reject dups of compacted content; a rerun below the watermark is
    refused; a crash between rename and deletes converges."""
    import pytest
    import ray.data

    from sylk.stages.dedup_store import (compact_ingest_store,
                                         dedup_ingest, read_accepted)

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    for inc, rows in ((1, [(1, "alpha"), (2, "beta")]),
                      (2, [(3, "gamma"), (4, "alpha")]),   # 4 rejected
                      (3, [(5, "delta")])):
        dedup_ingest(ray.data.from_arrow(_inc(rows)), store, out,
                     "key", "event_id", inc_id=inc).materialize()
    assert sorted(read_accepted(out, store).to_pandas().event_id) == [1, 2, 3, 5]

    n_before = len(glob.glob(os.path.join(store, "p=*", "*.parquet")))
    stats = compact_ingest_store(store)
    assert stats["upto"] == 3 and stats["files_out"] < stats["files_in"]
    # every bucket now holds at most one file, all reserved-name
    for d in glob.glob(os.path.join(store, "p=*")):
        fs = glob.glob(os.path.join(d, "*.parquet"))
        assert len(fs) <= 1 and all("compact3" in f for f in fs)
    assert len(glob.glob(os.path.join(store, "p=*", "*.parquet"))) \
        <= n_before

    # a new increment probes THROUGH the compact file: dup of inc-1
    # content is still rejected, novel content accepted
    s4 = dedup_ingest(ray.data.from_arrow(
        _inc([(6, "alpha"), (7, "epsilon")])), store, out,
        "key", "event_id", inc_id=4).materialize().to_pandas()
    assert int(s4.accepted.sum()) == 1 and int(s4.rejected.sum()) == 1
    assert sorted(read_accepted(out, store).to_pandas().event_id) == [1, 2, 3, 5, 7]

    # rerun below the watermark is refused (silent self-rejection trap)
    with pytest.raises(ValueError, match="watermark"):
        dedup_ingest(ray.data.from_arrow(_inc([(1, "alpha")])), store,
                     out, "key", "event_id", inc_id=2)

    # idempotence: compacting again folds inc4 in and converges
    stats2 = compact_ingest_store(store)
    assert stats2["upto"] == 4
    stats3 = compact_ingest_store(store)
    assert stats3["files_in"] == stats3["files_out"]


def test_compact_ingest_store_crash_window(ray_session, tmp_path):
    """Crash after the compact rename but before the source deletes:
    membership stays correct (duplicate rows are harmless to a set
    probe) and the next compaction cleans up."""
    import shutil

    import ray.data

    from sylk.stages.dedup_store import (compact_ingest_store,
                                         dedup_ingest, read_accepted)

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    for inc, rows in ((1, [(1, "alpha")]), (2, [(2, "beta")])):
        dedup_ingest(ray.data.from_arrow(_inc(rows)), store, out,
                     "key", "event_id", inc_id=inc).materialize()
    compact_ingest_store(store)
    # simulate the crash window: duplicate a compact file's content
    # back as a leftover source file in one bucket
    for d in glob.glob(os.path.join(store, "p=*")):
        fs = glob.glob(os.path.join(d, "compact*.parquet"))
        if fs:
            shutil.copy(fs[0], os.path.join(d, "inc1.parquet"))
            break
    # probe is still correct: dup rejected despite double membership
    s3 = dedup_ingest(ray.data.from_arrow(
        _inc([(3, "alpha"), (4, "nu")])), store, out,
        "key", "event_id", inc_id=3).materialize().to_pandas()
    assert int(s3.accepted.sum()) == 1 and int(s3.rejected.sum()) == 1
    # next compaction folds the leftover away
    compact_ingest_store(store)
    for d in glob.glob(os.path.join(store, "p=*")):
        assert not glob.glob(os.path.join(d, "inc*.parquet"))
    assert sorted(read_accepted(out, store).to_pandas().event_id) == [1, 2, 4]


def test_compact_ingest_store_neardup_bands(ray_session, tmp_path):
    """The same compaction bounds the near-dup BAND store's file count;
    the pruned probe reads compact files and still rejects
    cross-increment near-dups."""
    import ray.data

    from sylk.stages.dedup_store import (compact_ingest_store,
                                         neardup_ingest, read_accepted)

    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    neardup_ingest(ray.data.from_arrow(_docs(
        [(1, _BASE), (2, "standalone other content entirely")])),
        store, out, inc_id=1, threshold=0.7)
    neardup_ingest(ray.data.from_arrow(_docs(
        [(5, "yet another unrelated set of words for the corpus")])),
        store, out, inc_id=2, threshold=0.7)
    compact_ingest_store(store)
    for d in glob.glob(os.path.join(store, "p=*")):
        assert not glob.glob(os.path.join(d, "inc*.parquet"))
    s3 = neardup_ingest(ray.data.from_arrow(_docs(
        [(10, _BASE.replace("dog", "cat"))])), store, out, inc_id=3,
        threshold=0.7)
    assert s3 == {"accepted": 0, "rejected_in_inc": 0,
                  "rejected_cross": 1}
    assert sorted(read_accepted(out, store).to_pandas().doc_id) == [1, 2, 5]


def test_compact_cli(ray_session, tmp_path, capsys):
    """`python -m sylk compact` wires both maintenance paths and leaves
    the ambient Ray session alone (it only shuts down a session it
    started)."""
    import json

    import ray
    import ray.data

    from sylk.__main__ import main
    from sylk.stages.dedup_store import dedup_ingest, read_accepted
    from sylk.stages.upsert_store import read_current, upsert_write

    store, out = str(tmp_path / "ds"), str(tmp_path / "do")
    for inc, rows in ((1, [(1, "a")]), (2, [(2, "b"), (3, "a")])):
        dedup_ingest(ray.data.from_arrow(_inc(rows)), store, out,
                     "key", "event_id", inc_id=inc).materialize()
    rc = main(["compact", "--kind", "ingest", "--store", store])
    assert rc == 0 and ray.is_initialized()
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["upto"] == 2
    assert sorted(read_accepted(out, store).to_pandas().event_id) == [1, 2]

    ustore = str(tmp_path / "us")
    t = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "o": pa.array([10, 11], pa.int64()),
                  "val": pa.array(["x", "y"]),
                  "_del": pa.array([False, False])})
    for inc in (1, 2):
        upsert_write(ray.data.from_arrow(t), ustore, "k", "o",
                     inc_id=inc).materialize()
    rc = main(["compact", "--kind", "upsert", "--store", ustore,
               "--key-col", "k", "--order-col", "o",
               "--tombstone-col", "_del"])
    assert rc == 0 and ray.is_initialized()
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["runs_out"] < stats["runs_in"]
    assert sorted(read_current(ustore, "k", "o",
                               tombstone_col="_del").to_pandas().k) == [1, 2]


@pytest.mark.parametrize("kind", ["dedup", "neardup"])
def test_read_accepted_waits_for_the_marker(ray_session, tmp_path,
                                            monkeypatch, kind):
    """An ingest that dies after its accepted rows land and before its
    marker leaves rows no reader sees; its rerun then equals a clean
    run."""
    import ray.data

    from sylk.stages import dedup_store, store_fold
    from sylk.stages.dedup_store import neardup_ingest

    col = "event_id" if kind == "dedup" else "doc_id"
    incs = ({1: _inc([(1, "a"), (2, "b")]), 2: _inc([(3, "c"), (4, "a")])}
            if kind == "dedup" else
            {1: _docs([(1, _BASE), (2, "standalone other content entirely")]),
             2: _docs([(10, _BASE.replace("dog", "cat")),
                       (11, "novel content with no overlap at all in any "
                            "of its shingles")])})

    def _ingest(root, inc_id):
        ds = ray.data.from_arrow(incs[inc_id])
        store, out = str(root / "store"), str(root / "out")
        if kind == "dedup":
            dedup_ingest(ds, store, out, key_col="key",
                         order_col="event_id", inc_id=inc_id)
        else:
            neardup_ingest(ds, store, out, inc_id=inc_id, threshold=0.7)

    def _accepted(root):
        return sorted(read_accepted(str(root / "out"), str(root / "store"))
                      .to_pandas()[col])

    crash, ref = tmp_path / "crash", tmp_path / "ref"
    for root in (crash, ref):
        _ingest(root, 1)
    _ingest(ref, 2)
    first = _accepted(ref)
    assert first == ([1, 2, 3] if kind == "dedup" else [1, 2, 11])

    real = store_fold.write_marker

    def _marker(store_dir, inc_id, info):
        if inc_id == 2:
            raise RuntimeError("crash before the marker")
        real(store_dir, inc_id, info)

    with monkeypatch.context() as m:
        # dedup_ingest holds its own reference to the marker writer
        m.setattr(store_fold, "write_marker", _marker)
        m.setattr(dedup_store, "write_marker", _marker)
        with pytest.raises(RuntimeError, match="before the marker"):
            _ingest(crash, 2)
    assert glob.glob(str(crash / "out" / "inc=2" / "*.parquet"))
    assert _accepted(crash) == [1, 2]
    assert read_accepted(str(crash / "out"), str(crash / "store"),
                         2).count() == 0
    _ingest(crash, 2)
    assert _accepted(crash) == first
