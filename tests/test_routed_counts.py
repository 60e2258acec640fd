"""The routed write reports its own counts: per-sink, per-reject and
host/app counts come back from the write and into the manifest, both
write tiers leave the same files, rows, markers and counts, empty
inputs give typed empty results, and the routed output is a
store_fold store — routing one increment twice is idempotent, a retried
write task leaves what a clean write leaves, and ``sylk compact --kind
routed`` folds the sinks without changing the rows."""

import collections
import glob
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import scale_tier
from ray import cloudpickle

from sylk.pipelines.flagship import parse_enrich, run_flagship
from sylk.sources.transcripts import synth_batch, write_transcripts
from sylk.stages import store_fold
from sylk.stages.router import (
    HOST_APP_SCHEMA,
    ROUTE_COUNTS_SCHEMA,
    RoutedSink,
    add_route_columns,
    route_and_write,
    route_and_write_jsonl,
)
from sylk.stages.store_fold import read_set


def _marker(d, inc_id):
    with open(os.path.join(d, f"_done_inc{inc_id}.json")) as f:
        return json.load(f)


def test_sink_without_write_returns_gives_typed_empties(tmp_path):
    from ray.data.datasource import WriteResult

    # no write task, or only tasks whose blocks held no rows
    for returns in ([], [None]):
        sink = RoutedSink(str(tmp_path), 0)
        sink.on_write_complete(WriteResult(num_rows=0, size_bytes=0,
                                           write_returns=returns))
        routes, host_app = sink.counts
        assert routes.schema == ROUTE_COUNTS_SCHEMA and routes.num_rows == 0
        assert host_app.schema == HOST_APP_SCHEMA and host_app.num_rows == 0
        assert _marker(str(tmp_path), 0) == {"rows": 0}


def test_sink_refuses_two_tasks_writing_one_sink(tmp_path):
    """Two write returns naming one (route, route_key) mean two writers
    hit one ``inc<n>`` file: the increment raises and stays unmarked."""
    from ray.data.datasource import WriteResult

    def ret(route, key, n):
        return (pa.table({"route": [route], "route_key": [key],
                          "n": pa.array([n], pa.int64())}),
                HOST_APP_SCHEMA.empty_table())

    sink = RoutedSink(str(tmp_path), 3)
    with pytest.raises(RuntimeError, match="two write tasks"):
        sink.on_write_complete(WriteResult(
            num_rows=3, size_bytes=0,
            write_returns=[ret("kern", "err", 1), ret("user", "info", 1),
                           ret("kern", "err", 1)]))
    assert not os.path.exists(os.path.join(str(tmp_path), "_done_inc3.json"))


def test_flagship_zero_row_shard(ray_session, tmp_path):
    """A shard with no rows commits a rows=0 unit and returns empty
    rollups (no read of a routed output that does not exist)."""
    shard = str(tmp_path / "empty.parquet")
    pq.write_table(synth_batch(np.arange(0, dtype=np.int64)), shard)
    out = str(tmp_path / "out")
    s = run_flagship([shard], out, files_per_unit=1, concurrent_units=1)
    assert s["rows"] == 0 and s["parse_ok"] == 0 and s["units_run"] == 1
    assert s["sink_counts"] == {} and s["reject_by_error"] == {}
    assert s["host_app_histogram"] == {}
    (rec,) = [json.loads(line) for line in open(os.path.join(out, "manifest.jsonl"))]
    assert rec["rows"] == 0 and rec["host_app"] == []
    assert rec["sink_counts"] == {} and rec["reject_by_error"] == {}
    # resumed: the committed empty unit is skipped
    s2 = run_flagship([shard], out, files_per_unit=1, concurrent_units=1)
    assert s2["units_skipped"] == 1 and s2["rows"] == 0


def _read_routed(d, ext):
    """(sink directory -> file names, sink directory -> rows) of the
    routed files under ``d``; a row is (turn_idx, text)."""
    files = collections.defaultdict(set)
    rows = collections.defaultdict(collections.Counter)
    for f in glob.glob(os.path.join(d, "route=*", "route_key=*", f"*.{ext}")):
        sink = os.path.relpath(os.path.dirname(f), d)
        if ext == "parquet":
            t = pq.read_table(f, columns=["turn_idx", "text"])
            rows[sink].update(zip(*t.to_pydict().values()))
        else:
            rows[sink].update((r["turn_idx"], r["text"])
                              for r in map(json.loads, open(f)))
        files[sink].add(os.path.basename(f))
    return files, rows


def _parsed(n):
    """(parsed and enriched Dataset of ``n`` synthetic rows, Counter of
    its (turn_idx, text) rows)."""
    import ray.data

    t = synth_batch(np.arange(n, dtype=np.int64))
    ds = parse_enrich(ray.data.from_arrow(t).repartition(4)).materialize()
    return ds, collections.Counter(zip(t.column("turn_idx").to_pylist(),
                                       t.column("text").to_pylist()))


def _sorted_counts(tbl, keys):
    return tbl.sort_by([(k, "ascending") for k in keys])


def test_route_twice_into_one_dir_is_idempotent(ray_session, tmp_path):
    """Routing the same Dataset twice as one increment into one
    directory, which nobody wipes in between, leaves the layout and row
    multiset of one write, for both sink formats: one ``inc<n>.<ext>``
    per sink under identical names, and the returned counts match the
    rows on disk and the marker."""
    ds, want = _parsed(1200)
    for route, ext in ((route_and_write, "parquet"),
                       (route_and_write_jsonl, "json")):
        d = str(tmp_path / ext)
        runs = []
        for _ in range(2):
            routes, host_app, _ = route(ds, d, 7)
            files, rows = _read_routed(d, ext)
            assert sum(rows.values(), collections.Counter()) == want, ext
            assert {f"route={r}/route_key={k}": n
                    for r, k, n in zip(*routes.to_pydict().values())} == \
                {sink: sum(c.values()) for sink, c in rows.items()}
            assert all(names == {f"inc7.{ext}"} for names in files.values())
            assert _marker(d, 7) == {"rows": sum(want.values())}
            runs.append((files, rows, _sorted_counts(
                host_app, ["hostname", "appname"])))
        assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1], ext
        assert runs[0][2].equals(runs[1][2])


def _route_tier(route, ds, d, inc_id, tier, monkeypatch):
    """``route(ds, d, inc_id)`` in ``tier``: its returned counts sorted,
    its tier fields, and the (files, rows) and marker it left."""
    with monkeypatch.context() as m:
        if tier == "exchange":
            scale_tier(m, store_fold, "_DRIVER_READ_LIMIT")
        routes, host_app, info = route(ds, d, inc_id)
    assert info["route_tier"] == tier
    ext = "json" if route is route_and_write_jsonl else "parquet"
    return (_sorted_counts(routes, ["route", "route_key"]),
            _sorted_counts(host_app, ["hostname", "appname"]),
            info["routed_bytes"], _read_routed(d, ext), _marker(d, inc_id))


def test_sink_larger_than_target_block_gets_one_file(ray_session, tmp_path,
                                                      monkeypatch):
    """A sink many times Ray's target block size still gets one
    ``inc<n>`` file in both tiers: the driver writes the sorted rows in
    one call, and in the exchange tier the range sort merges each key
    range into one block that the write hands to one task whole."""
    import ray.data

    ds, want = _parsed(6000)
    target = 8 << 10
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_max_block_size", target)
    for tier in ("driver", "exchange"):
        d = str(tmp_path / tier)
        files, rows = _route_tier(route_and_write, ds, d, 0, tier,
                                  monkeypatch)[3]
        assert all(names == {"inc0.parquet"} for names in files.values())
        assert sum(rows.values(), collections.Counter()) == want
        largest = max(pq.ParquetFile(f).metadata.row_group(0).total_byte_size
                      for f in glob.glob(os.path.join(d, "route=*",
                                                      "route_key=*", "*")))
        assert largest > 2 * target


@pytest.mark.parametrize("fmt", ["parquet", "json"])
def test_route_tiers_agree(ray_session, tmp_path, monkeypatch, fmt):
    """The driver tier (collect, stable sort, one write call) and the
    exchange tier (range sort, write tasks) of one routed write leave
    the same file names, row multisets per sink, marker and counts:
    on a first write, on a rerun of it, and on an empty rerun, which
    leaves no file behind.  The driver tier starts no Ray sort."""
    import ray.data

    route = route_and_write if fmt == "parquet" else route_and_write_jsonl
    ds, want = _parsed(1200)
    empty = ds.filter(lambda r: False).materialize()
    steps = {}
    for tier in ("driver", "exchange"):
        d = str(tmp_path / tier)
        with monkeypatch.context() as m:
            if tier == "driver":
                def no_sort(*a, **k):
                    raise AssertionError("the driver tier sorted in Ray")
                m.setattr(ray.data.Dataset, "sort", no_sort)
            steps[tier] = [_route_tier(route, inp, d, 3, tier, m)
                           for inp in (ds, ds, empty)]
    for drv, exc in zip(steps["driver"], steps["exchange"]):
        assert drv[0].equals(exc[0]) and drv[1].equals(exc[1])
        assert drv[2:] == exc[2:]
    first, rerun, emptied = steps["driver"]
    assert rerun[2:] == first[2:]
    files, rows = first[3]
    assert sum(rows.values(), collections.Counter()) == want
    assert all(names == {f"inc3.{fmt}"} for names in files.values())
    assert first[4] == {"rows": sum(want.values())}
    assert emptied[3] == ({}, {}) and emptied[4] == {"rows": 0}
    assert emptied[0].schema == ROUTE_COUNTS_SCHEMA and not emptied[0].num_rows
    assert emptied[1].schema == HOST_APP_SCHEMA and not emptied[1].num_rows


class FailOnceSink(RoutedSink):
    """A routed sink whose first write task to finish its sink files
    then kills its worker, once per ``flag`` file: Ray re-executes the
    task."""

    def __init__(self, store_dir, inc_id, fmt, flag):
        super().__init__(store_dir, inc_id, fmt)
        self.flag = flag

    def write(self, blocks, ctx):
        ret = super().write(blocks, ctx)
        try:
            os.close(os.open(self.flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return ret
        os._exit(1)


# the Ray workers cannot import this test module: ship its classes by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


@pytest.mark.parametrize("fmt", ["parquet", "json"])
def test_retried_write_task_equals_clean_write(ray_session, tmp_path, fmt):
    """A write task that dies after writing its sinks is retried by Ray;
    rows, counts, file names and the marker equal a clean write's."""
    ds, want = _parsed(1200)
    routed = ds.map_batches(add_route_columns, batch_format="pyarrow") \
        .sort("route_id")
    clean = RoutedSink(str(tmp_path / "clean"), 2, fmt)
    routed.write_datasink(clean)
    flag = str(tmp_path / "crashed")
    retried = FailOnceSink(str(tmp_path / "retried"), 2, fmt, flag)
    routed.write_datasink(retried)
    assert os.path.exists(flag)  # a task did die
    for a, b, keys in ((clean.counts[0], retried.counts[0], ["route", "route_key"]),
                       (clean.counts[1], retried.counts[1], ["hostname", "appname"])):
        assert _sorted_counts(a, keys).equals(_sorted_counts(b, keys))
    c_files, c_rows = _read_routed(clean.store_dir, fmt)
    r_files, r_rows = _read_routed(retried.store_dir, fmt)
    assert r_files == c_files and r_rows == c_rows
    assert sum(r_rows.values(), collections.Counter()) == want
    assert _marker(retried.store_dir, 2) == _marker(clean.store_dir, 2)
    assert sorted(os.listdir(retried.store_dir)) == \
        sorted(os.listdir(clean.store_dir))


def test_routed_fold(ray_session, tmp_path):
    """Three units, then ``sylk compact --kind routed``: the same row
    multiset, one ``compact2.parquet`` per sink; ``as_of=1`` before the
    fold holds units 0-1 only; re-running a folded unit raises."""
    from sylk.__main__ import main

    src = str(tmp_path / "in")
    write_transcripts(src, 1800, rows_per_file=600)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    out = str(tmp_path / "out")
    s = run_flagship(files, out, files_per_unit=1, concurrent_units=1)
    assert s["units_run"] == 3
    store = os.path.join(out, "data")
    sinks = sorted(glob.glob(os.path.join(store, "route=*", "route_key=*")))
    cols = ["conv_id", "turn_idx", "text"]

    def rows(paths):
        t = pq.read_table(paths, columns=cols)
        return collections.Counter(zip(*t.to_pydict().values()))

    before = rows(read_set(store, sinks))
    first_two = collections.Counter()
    for f in files[:2]:
        first_two.update(zip(*pq.read_table(f, columns=cols).to_pydict().values()))
    assert rows(read_set(store, sinks, as_of=1)) == first_two
    assert sum(before.values()) == 1800

    assert main(["compact", "--kind", "routed", "--store", store]) == 0
    for d in sinks:
        assert os.listdir(d) == ["compact2.parquet"], d
    assert rows(read_set(store, sinks)) == before
    # the folded store still resumes; moving a folded unit's boundary
    # would have to re-run it into a shadowed file
    assert run_flagship(files, out, files_per_unit=1)["units_skipped"] == 3
    with pytest.raises(ValueError, match="compaction watermark"):
        run_flagship(files, out, files_per_unit=2)
    assert rows(read_set(store, sinks)) == before


def _drop_line(out, uid):
    mpath = os.path.join(out, "manifest.jsonl")
    lines = [ln for ln in open(mpath) if json.loads(ln)["partition_id"] != uid]
    with open(mpath, "w") as f:
        f.writelines(lines)


def _input_rows(files):
    t = pq.read_table(files, columns=["conv_id", "turn_idx", "text"])
    return collections.Counter(zip(*t.to_pydict().values()))


def _routed_rows(store):
    sinks = glob.glob(os.path.join(store, "route=*", "route_key=*"))
    t = pq.read_table(read_set(store, sinks),
                      columns=["conv_id", "turn_idx", "text"])
    return collections.Counter(zip(*t.to_pydict().values()))


@pytest.mark.parametrize("gap", ["no_line", "no_unit", "other_rows"])
def test_routed_fold_stops_at_first_uncommitted_unit(ray_session, tmp_path,
                                                      gap):
    """Units 0, 1 and 3 are committed and unit 2 is not — its manifest
    line is missing (a crash between its marker and its line), nothing
    of it exists (it never ran), or its marker names other input files
    (another run rewrote its rows).  The fold stops at unit 1, and a
    resumed run re-writes unit 2 and leaves the input rows once."""
    from sylk.__main__ import main
    from sylk.stages.router import SINKS
    from sylk.stages.store_fold import remove_increment, watermark

    src = str(tmp_path / "in")
    write_transcripts(src, 1200, rows_per_file=300)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    out = str(tmp_path / "out")
    store = os.path.join(out, "data")
    run_flagship(files, out, files_per_unit=1, concurrent_units=1)
    if gap == "other_rows":
        m = _marker(store, 2)
        with open(os.path.join(store, "_done_inc2.json"), "w") as f:
            json.dump({**m, "input_files": files[:1]}, f)
    else:
        _drop_line(out, "u00002")
    if gap == "no_unit":
        remove_increment(store, SINKS, 2)

    assert main(["compact", "--kind", "routed", "--store", store]) == 0
    assert watermark(store) == 1
    s = run_flagship(files, out, files_per_unit=1)
    assert s["units_run"] == 1 and s["units_skipped"] == 3
    assert _routed_rows(store) == _input_rows(files)
    assert main(["compact", "--kind", "routed", "--store", store]) == 0
    assert watermark(store) == 3
    assert _routed_rows(store) == _input_rows(files)


def test_half_done_rewrite_is_not_folded(ray_session, tmp_path, monkeypatch):
    """A run with moved unit boundaries whose unit 0 dies while unit 1
    commits leaves unit 0's old increment unmarked, so a fold takes
    neither unit and the resumed run finishes the rewrite."""
    from sylk.pipelines import flagship
    from sylk.stages.store_fold import watermark

    src = str(tmp_path / "in")
    write_transcripts(src, 1200, rows_per_file=300)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    out = str(tmp_path / "out")
    store = os.path.join(out, "data")
    run_flagship(files, out, files_per_unit=1, concurrent_units=1)

    route = flagship.route_and_write

    def dies_on_unit_0(ds, store_dir, inc_id, info=None):
        if inc_id == 0:
            raise RuntimeError("unit 0 died")
        return route(ds, store_dir, inc_id, info)

    monkeypatch.setattr(flagship, "route_and_write", dies_on_unit_0)
    with pytest.raises(RuntimeError, match="unit 0 died"):
        run_flagship(files, out, files_per_unit=2, concurrent_units=2)
    monkeypatch.undo()
    assert _marker(store, 1)["input_files"] == files[2:]

    assert flagship.compact_routed(store)["upto"] == -1
    assert watermark(store) == -1
    s = run_flagship(files, out, files_per_unit=2)
    assert s["units_run"] == 1 and s["units_skipped"] == 1
    assert _routed_rows(store) == _input_rows(files)
    assert flagship.compact_routed(store)["upto"] == 1


def test_manifest_line_without_host_app_reruns(ray_session, tmp_path):
    """A committed line written by an older run (no host_app) is not
    trusted for the rollups: its unit re-runs instead of raising."""
    shard = str(tmp_path / "s.parquet")
    pq.write_table(synth_batch(np.arange(300, dtype=np.int64)), shard)
    out = str(tmp_path / "out")
    os.makedirs(out)
    old = {"partition_id": "u00000", "committed_at": 0.0,
           "input_files": [shard], "rows": 300, "parse_ok": 1,
           "sink_counts": {"1/1": 1}, "reject_by_error": {"X": 299},
           "output_path": os.path.join(out, "data", "unit=u00000"),
           "wall_s": 0.1}
    with open(os.path.join(out, "manifest.jsonl"), "w") as f:
        f.write(json.dumps(old) + "\n")
    s = run_flagship([shard], out, files_per_unit=1, concurrent_units=1)
    assert s["units_run"] == 1 and s["units_skipped"] == 0
    fresh = run_flagship([shard], str(tmp_path / "fresh"), files_per_unit=1,
                         concurrent_units=1)
    assert s["rows"] == fresh["rows"] == 300
    for k in ("parse_ok", "sink_counts", "reject_by_error", "host_app_histogram"):
        assert s[k] == fresh[k], k
