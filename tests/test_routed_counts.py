"""The routed write reports its own counts: per-sink, per-reject and
host/app counts come back from the write tasks and into the manifest,
empty inputs give typed empty results, and routing into a directory
twice is idempotent."""

import collections
import glob
import json
import os
import re

import numpy as np
import pyarrow.parquet as pq

from sylk.pipelines.flagship import parse_enrich, run_flagship
from sylk.sources.transcripts import synth_batch
from sylk.stages.router import (
    HOST_APP_SCHEMA,
    ROUTE_COUNTS_SCHEMA,
    RoutedSink,
    route_and_write,
    route_and_write_jsonl,
)


def test_sink_without_write_returns_gives_typed_empties():
    from ray.data.datasource import WriteResult

    # no write task, or only tasks whose blocks held no rows
    for returns in ([], [None]):
        sink = RoutedSink("unused")
        sink.on_write_complete(WriteResult(num_rows=0, size_bytes=0,
                                           write_returns=returns))
        routes, host_app = sink.counts
        assert routes.schema == ROUTE_COUNTS_SCHEMA and routes.num_rows == 0
        assert host_app.schema == HOST_APP_SCHEMA and host_app.num_rows == 0


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
    """(sink directory -> file count, sink directory -> rows, file names)
    of the routed files under ``d``; a row is (turn_idx, text)."""
    files = collections.Counter()
    rows = collections.defaultdict(collections.Counter)
    names = set()
    for f in glob.glob(os.path.join(d, "**", f"*.{ext}"), recursive=True):
        sink = os.path.relpath(os.path.dirname(f), d)
        if ext == "parquet":
            t = pq.read_table(f, columns=["turn_idx", "text"])
            rows[sink].update(zip(*t.to_pydict().values()))
        else:
            rows[sink].update((r["turn_idx"], r["text"])
                              for r in map(json.loads, open(f)))
        files[sink] += 1
        names.add(os.path.basename(f))
    return files, rows, names


def test_route_twice_into_one_dir_is_idempotent(ray_session, tmp_path):
    """Routing the same Dataset twice into one directory, which nobody
    wipes in between, leaves the layout and row multiset of one write,
    for both sink formats; the returned counts match the rows on disk."""
    import ray.data

    t = synth_batch(np.arange(1200, dtype=np.int64))
    ds = parse_enrich(ray.data.from_arrow(t).repartition(4)).materialize()
    want = collections.Counter(zip(t.column("turn_idx").to_pylist(),
                                   t.column("text").to_pylist()))
    for route, ext in ((route_and_write, "parquet"),
                       (route_and_write_jsonl, "json")):
        d = str(tmp_path / ext)
        runs = []
        for _ in range(2):
            routes, host_app = route(ds, d)
            files, rows, names = _read_routed(d, ext)
            assert sum(rows.values(), collections.Counter()) == want, ext
            assert {f"route={r}/route_key={k}": n
                    for r, k, n in zip(*routes.to_pydict().values())} == \
                {sink: sum(c.values()) for sink, c in rows.items()}
            assert all(re.fullmatch(rf"part-\d{{5}}-\d+\.{ext}", n) for n in names)
            runs.append((files, rows, host_app.sort_by(
                [("hostname", "ascending"), ("appname", "ascending")])))
        # the same sink directories, file counts, rows per sink and
        # host/app counts; file names carry the write task index, which
        # depends on the range sort's sampled boundaries
        assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1], ext
        assert runs[0][2].equals(runs[1][2])


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
