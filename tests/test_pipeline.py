"""End-to-end pipeline tests on the deterministic synthetic corpus:
per-sink counts, routed-row equality under (conv_id, turn_idx) order,
and resume-after-interrupt equivalence (SURVEY.md §5)."""

import collections
import glob
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest
from conftest import scale_tier

from sylk.functions import FACILITY_NAMES, SEVERITY_NAMES, parse_line
from sylk.pipelines.flagship import parse_enrich, run_flagship
from sylk.sources.transcripts import synth_batch, write_transcripts
from sylk.stages.aggregate import salted_group_counts, sink_counts

N_ROWS = 6000


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts")
    write_transcripts(str(d), N_ROWS, rows_per_file=1000)
    return str(d)


@pytest.fixture(scope="module")
def oracle_rollup():
    """Driver-side oracle: parse every line with the reference-faithful
    parser and roll up expected counts."""
    t = synth_batch(np.arange(N_ROWS, dtype=np.int64))
    sink = collections.Counter()
    rejects = collections.Counter()
    per_row = []
    for cid, tix, text in zip(
        t.column("conv_id").to_pylist(),
        t.column("turn_idx").to_pylist(),
        t.column("text").to_pylist(),
    ):
        rec = parse_line(text)
        per_row.append((cid, tix, rec))
        if rec["ok"]:
            sink[(rec["facility"], rec["severity"])] += 1
        else:
            rejects[rec["error"]] += 1
    return {"sink": sink, "rejects": rejects, "rows": per_row}


@pytest.fixture(scope="module")
def flagship_out(ray_session, corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flagship"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    summary = run_flagship(files, out, files_per_unit=2)
    return summary


def test_sink_counts_match_oracle(flagship_out, oracle_rollup):
    assert flagship_out["rows"] == N_ROWS
    assert flagship_out["sink_counts"] == dict(oracle_rollup["sink"])
    assert flagship_out["reject_by_error"] == dict(oracle_rollup["rejects"])
    assert flagship_out["parse_ok"] == sum(oracle_rollup["sink"].values())


def test_routed_row_equality(flagship_out, oracle_rollup):
    """Every routed ok-row equals the oracle parse under stable
    (conv_id, turn_idx) ordering; sink placement matches enum names."""
    import pyarrow.dataset as pads

    data_dir = os.path.join(flagship_out["out_dir"], "data")
    tbl = pads.dataset(data_dir, format="parquet", partitioning="hive").to_table()
    df = tbl.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    expected = sorted(
        ((cid, tix, rec) for cid, tix, rec in oracle_rollup["rows"]),
        key=lambda r: (r[0], r[1]),
    )
    assert len(df) == len(expected)
    for i, (cid, tix, rec) in enumerate(expected):
        row = df.iloc[i]
        assert (row.conv_id, row.turn_idx) == (cid, tix)
        if rec["ok"]:
            assert row.route == FACILITY_NAMES[rec["facility"]]
            assert row.route_key == SEVERITY_NAMES[rec["severity"]]
            assert row.msg == rec["msg"]
            assert (row.hostname if row.hostname is not None else None) == rec["hostname"]
            assert (None if np.isnan(row.timestamp) else int(row.timestamp)) == rec["timestamp"]
        else:
            assert row.route == "reject" and row.route_key == rec["error"]


def test_resume_skips_and_matches(ray_session, corpus_dir, flagship_out, tmp_path_factory):
    """Interrupt simulation: run only the first unit (fresh dir), then a
    full run resumes, skips the committed unit, and produces identical
    aggregates to the uninterrupted run."""
    out = str(tmp_path_factory.mktemp("resume"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    first = run_flagship(files[:2], out, files_per_unit=2)
    assert first["units_run"] == 1
    # simulate a crash AFTER unit u00000 committed: rerun over all files
    full = run_flagship(files, out, files_per_unit=2)
    assert full["units_skipped"] == 1
    assert full["units_run"] == len(files) // 2 - 1
    assert full["sink_counts"] == flagship_out["sink_counts"]
    assert full["reject_by_error"] == flagship_out["reject_by_error"]
    assert full["host_app_histogram"] == flagship_out["host_app_histogram"]


def test_partially_written_unit_is_overwritten(ray_session, corpus_dir, tmp_path_factory):
    """A unit that wrote output but did NOT commit its manifest line is
    re-processed; final counts are unaffected (idempotent retry)."""
    out = str(tmp_path_factory.mktemp("partial"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))[:2]
    r1 = run_flagship(files, out, files_per_unit=2)
    # wipe the manifest (as if we crashed before the commit point) but
    # leave the partial/complete data dir behind
    os.remove(os.path.join(out, "manifest.jsonl"))
    for f in glob.glob(os.path.join(out, "data", "route=reject", "*", "inc0.parquet")):
        os.remove(f)
    r2 = run_flagship(files, out, files_per_unit=2)
    assert r2["units_run"] == 1
    assert r2["sink_counts"] == r1["sink_counts"]
    assert r2["reject_by_error"] == r1["reject_by_error"]


def test_salted_counts_match_plain(ray_session, corpus_dir):
    """Salted two-phase conv_id counts == unsalted == driver-side truth."""
    import ray.data

    ds = ray.data.read_parquet(corpus_dir)
    parsed = parse_enrich(ds)
    salted = salted_group_counts(parsed, "conv_id", salt=8).to_pandas()
    t = synth_batch(np.arange(N_ROWS, dtype=np.int64))
    truth = collections.Counter()
    for cid, text in zip(t.column("conv_id").to_pylist(), t.column("text").to_pylist()):
        if parse_line(text)["ok"]:
            truth[cid] += 1
    got = {r.conv_id: int(r.n) for r in salted.itertuples(index=False)}
    assert got == dict(truth)


def test_sink_counts_dataset_path(ray_session, corpus_dir):
    """The Dataset-returning aggregate API (used by queries())."""
    import ray.data

    ds = ray.data.read_parquet(corpus_dir)
    pdf = sink_counts(parse_enrich(ds)).to_pandas()
    assert pdf.n.sum() > 0
    assert set(pdf.columns) == {"facility", "severity", "n"}


def test_resume_reruns_on_changed_unit_boundaries(ray_session, corpus_dir, tmp_path_factory):
    """A committed unit whose input-file membership no longer matches
    (files_per_unit changed between runs) is wiped and re-run instead of
    silently reusing stale output; global aggregates stay correct, and
    the routed rows on disk are the input rows once (the increments of
    units the new boundaries no longer have are removed)."""
    out = str(tmp_path_factory.mktemp("boundaries"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    r1 = run_flagship(files, out, files_per_unit=2)
    assert r1["units_run"] == len(files) // 2
    # same output dir, different unit boundaries: u00000 now spans 4
    # files -> every committed unit's file list mismatches -> all re-run
    r2 = run_flagship(files, out, files_per_unit=4)
    assert r2["units_skipped"] == 0
    assert r2["units_run"] == (len(files) + 3) // 4
    assert r2["sink_counts"] == r1["sink_counts"]
    assert r2["reject_by_error"] == r1["reject_by_error"]
    assert r2["host_app_histogram"] == r1["host_app_histogram"]
    routed = pq.read_table(
        glob.glob(os.path.join(out, "data", "**", "*.parquet"), recursive=True),
        columns=["conv_id", "turn_idx"])
    t = synth_batch(np.arange(N_ROWS, dtype=np.int64))
    assert collections.Counter(zip(*routed.to_pydict().values())) == \
        collections.Counter(zip(t.column("conv_id").to_pylist(),
                                t.column("turn_idx").to_pylist()))
    # identical boundaries resume cleanly afterwards
    r3 = run_flagship(files, out, files_per_unit=4)
    assert r3["units_run"] == 0 and r3["units_skipped"] == r2["units_run"]
    assert r3["sink_counts"] == r1["sink_counts"]


def test_rollup_counters_come_from_manifest(ray_session, corpus_dir, tmp_path_factory):
    """Sink/reject counters and the host/app histogram all merge from
    manifest commits (zero re-read): tampered manifest counts show up in
    a resumed run, and a resumed run whose routed data is gone returns
    the same rollups."""
    import json

    out = str(tmp_path_factory.mktemp("manifestroll"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))[:2]
    r1 = run_flagship(files, out, files_per_unit=2)
    # tamper with the manifest's counters and re-run (resume: unit skips)
    mpath = os.path.join(out, "manifest.jsonl")
    pristine = open(mpath).read()
    rec = json.loads(pristine.strip())
    key = next(iter(rec["sink_counts"]))
    rec["sink_counts"][key] += 7
    host, app, _n = rec["host_app"][0]
    rec["host_app"][0][2] += 5
    open(mpath, "w").write(json.dumps(rec) + "\n")
    r2 = run_flagship(files, out, files_per_unit=2)
    assert r2["units_skipped"] == 1
    fac, sev = (int(x) for x in key.split("/"))
    assert r2["sink_counts"][(fac, sev)] == r1["sink_counts"][(fac, sev)] + 7
    assert r2["host_app_histogram"][(host, app)] == \
        r1["host_app_histogram"][(host, app)] + 5
    # the rollups never touch the routed output: drop it and resume
    open(mpath, "w").write(pristine)
    shutil.rmtree(os.path.join(out, "data"))
    r3 = run_flagship(files, out, files_per_unit=2)
    assert r3["units_skipped"] == 1 and r3["units_run"] == 0
    assert r3["sink_counts"] == r1["sink_counts"]
    assert r3["reject_by_error"] == r1["reject_by_error"]
    assert r3["host_app_histogram"] == r1["host_app_histogram"]


def test_manifest_records_route_tier(ray_session, corpus_dir, flagship_out,
                                     tmp_path_factory, monkeypatch):
    """Each unit's manifest line names the routed write's tier and the
    routed bytes it was picked from; a resumed run reports the same
    rollups as a fresh one, and so does a run in the exchange tier,
    whose lines carry the same byte counts."""
    import json

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    rollups = ("rows", "parse_ok", "sink_counts", "reject_by_error",
               "host_app_histogram")

    def lines(out):
        with open(os.path.join(out, "manifest.jsonl")) as f:
            recs = [json.loads(ln) for ln in f]
        return {r["partition_id"]: (r["route_tier"], r["routed_bytes"])
                for r in recs}

    out = str(tmp_path_factory.mktemp("tier"))
    first = run_flagship(files[:2], out, files_per_unit=2)
    full = run_flagship(files, out, files_per_unit=2)
    assert first["units_run"] == 1 and full["units_skipped"] == 1
    for k in rollups:
        assert full[k] == flagship_out[k], k
    fresh = lines(out)
    assert len(fresh) == len(files) // 2
    assert all(t == "driver" and n > 0 for t, n in fresh.values())

    exc = str(tmp_path_factory.mktemp("tier_exchange"))
    with monkeypatch.context() as m:
        scale_tier(m)
        s = run_flagship(files, exc, files_per_unit=2)
    for k in rollups:
        assert s[k] == flagship_out[k], k
    assert lines(exc) == {u: ("exchange", n) for u, (_, n) in fresh.items()}


def test_unit_read_hint_comes_from_footers(ray_session, tmp_path,
                                           monkeypatch):
    """The unit's output-block hint is the largest input file's
    uncompressed footer bytes times the parse expansion, capped by the
    context's value; it covers the real parsed block, so no block is
    split; the global context keeps its value."""
    import ray.data

    from sylk.pipelines import flagship
    from sylk.stages.enrich import enrich_batch
    from sylk.stages.parse import parse_batch
    from sylk.stages.router import add_route_columns

    write_transcripts(str(tmp_path), 1500, rows_per_file=1000)
    files = sorted(glob.glob(os.path.join(str(tmp_path), "*.parquet")))
    uncompressed = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        uncompressed.append(sum(md.row_group(i).total_byte_size
                                for i in range(md.num_row_groups)))
    want = max(uncompressed) * flagship._PARSE_EXPANSION
    assert flagship.parsed_block_bytes(files, 1 << 30) == want
    assert flagship.parsed_block_bytes(files, 4096) == 4096
    assert flagship.parsed_block_bytes([], 4096) == 1
    largest = files[uncompressed.index(max(uncompressed))]
    block = add_route_columns(enrich_batch(parse_batch(pq.read_table(largest))))
    assert block.nbytes <= want

    ctx = ray.data.DataContext.get_current()
    before = ctx.target_max_block_size
    seen = []
    hint = flagship.parsed_block_bytes

    def spy(fs, cap):
        seen.append((fs, cap))
        return hint(fs, cap)

    monkeypatch.setattr(flagship, "parsed_block_bytes", spy)
    run_flagship(files, str(tmp_path / "out"), files_per_unit=2)
    assert seen == [(files, before)]
    assert ctx.target_max_block_size == before


def test_raw_text_source_matches_parquet_path(ray_session, tmp_path):
    """Raw .log files feed the identical parse→aggregate results as the
    parquet transcript source (the crate's native input shape)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from sylk.sources.rawlines import read_syslog_lines
    from sylk.sources.transcripts import synth_batch
    from sylk.stages.aggregate import grouped_counts_local
    from sylk.stages.parse import parse_batch

    t = synth_batch(np.arange(3000, dtype=np.int64))
    lines = t.column("text").to_pylist()
    p = tmp_path / "raw.log"
    p.write_text("\n".join(lines) + "\n")

    raw = read_syslog_lines(str(p)).map_batches(
        parse_batch, batch_format="pyarrow", batch_size=None)
    par = ray.data.from_arrow(t.select(["text"])).map_batches(
        parse_batch, batch_format="pyarrow", batch_size=None)
    a = grouped_counts_local(raw, ["facility", "severity"], ok_filter=True) \
        .to_pandas().sort_values(["facility", "severity"]).reset_index(drop=True)
    b = grouped_counts_local(par, ["facility", "severity"], ok_filter=True) \
        .to_pandas().sort_values(["facility", "severity"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert a.n.sum() > 0

    stamped = read_syslog_lines(str(p), include_line_hash=True)
    assert "line_h" in stamped.schema().names


def test_flagship_text_format(ray_session, tmp_path):
    """run_flagship over raw .log shards == over parquet shards (same
    lines), including the routed layout and manifest resume."""
    import numpy as np

    from sylk.pipelines.flagship import run_flagship
    from sylk.sources.transcripts import synth_batch

    t = synth_batch(np.arange(2000, dtype=np.int64))
    lines = t.column("text").to_pylist()
    shards = []
    for i in range(2):
        p = tmp_path / f"shard{i}.log"
        p.write_text("\n".join(lines[i * 1000:(i + 1) * 1000]) + "\n")
        shards.append(str(p))
    out = str(tmp_path / "routed")
    s1 = run_flagship(shards, out, files_per_unit=1, concurrent_units=1,
                      input_format="text")
    assert s1["rows"] == 2000 and s1["units_run"] == 2
    # resume: nothing re-runs
    s2 = run_flagship(shards, out, files_per_unit=1, concurrent_units=1,
                      input_format="text")
    assert s2["units_skipped"] == 2 and s2["rows"] == 2000
    assert s1["sink_counts"] == s2["sink_counts"]


def test_gzip_lines_parity(ray_session, tmp_path):
    """Gzip-compressed .log.gz parses identically to the plain text
    source (decompression streams inside read tasks)."""
    import gzip

    import pandas as pd

    from sylk.sources.rawlines import read_syslog_lines, read_syslog_lines_gz
    from sylk.sources.transcripts import synth_batch
    from sylk.stages.parse import parse_batch

    lines = synth_batch(np.arange(300, dtype=np.int64)).column("text").to_pylist()
    plain = tmp_path / "a.log"
    plain.write_text("\n".join(lines) + "\n")
    gz = tmp_path / "a.log.gz"
    with gzip.open(gz, "wt") as f:
        f.write("\n".join(lines) + "\n")
    p1 = read_syslog_lines([str(plain)]).map_batches(
        parse_batch, batch_format="pyarrow").to_pandas()
    p2 = read_syslog_lines_gz([str(gz)]).map_batches(
        parse_batch, batch_format="pyarrow").to_pandas()
    key = ["text"]
    pd.testing.assert_frame_equal(
        p1.sort_values(key).reset_index(drop=True),
        p2.sort_values(key).reset_index(drop=True))


def test_jsonl_events_parity(ray_session, tmp_path):
    """NDJSON events feed the transcript->parse chain identically to
    parquet events (ts restored to timestamp[us])."""
    import json

    import pandas as pd
    import pyarrow.parquet as pq

    from sylk.sources.rawlines import read_events_jsonl
    from sylk.sources.transcripts import events_to_transcripts
    from sylk.stages.parse import parse_batch

    tbl = pq.read_table("/root/testdata/sf0.001/events.parquet")
    rows = tbl.to_pylist()
    jl = tmp_path / "events.jsonl"
    with open(jl, "w") as f:
        for r in rows:
            r["ts"] = r["ts"].isoformat()
            f.write(json.dumps(r) + "\n")
    ds = read_events_jsonl([str(jl)])
    parsed_j = ds.map_batches(events_to_transcripts, batch_format="pandas") \
        .map_batches(parse_batch, batch_format="pyarrow").to_pandas()
    import ray.data
    parsed_p = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet") \
        .map_batches(events_to_transcripts, batch_format="pandas") \
        .map_batches(parse_batch, batch_format="pyarrow").to_pandas()
    key = ["turn_idx"]
    pd.testing.assert_frame_equal(
        parsed_j.sort_values(key).reset_index(drop=True),
        parsed_p.sort_values(key).reset_index(drop=True))


def test_flagship_text_gz_format(ray_session, tmp_path):
    """run_flagship over gzip .log.gz shards produces the same sink
    counts as plain text shards of the same lines."""
    import gzip

    import numpy as np

    from sylk.pipelines.flagship import run_flagship
    from sylk.sources.transcripts import synth_batch

    t = synth_batch(np.arange(1000, dtype=np.int64))
    lines = t.column("text").to_pylist()
    plain = tmp_path / "s.log"
    plain.write_text("\n".join(lines) + "\n")
    gz = tmp_path / "s.log.gz"
    with gzip.open(gz, "wt") as f:
        f.write("\n".join(lines) + "\n")
    s1 = run_flagship([str(plain)], str(tmp_path / "o1"), files_per_unit=1,
                      concurrent_units=1, input_format="text")
    s2 = run_flagship([str(gz)], str(tmp_path / "o2"), files_per_unit=1,
                      concurrent_units=1, input_format="text_gz")
    assert s1["rows"] == s2["rows"] == 1000
    assert s1["sink_counts"] == s2["sink_counts"]


def test_follow_mode_incremental(ray_session, corpus_dir, tmp_path_factory):
    """Micro-batch follow: first wake processes the initial shards;
    after the corpus GROWS, a later follow wake processes only the new
    units and the cumulative counters equal a one-shot batch run."""
    from sylk.pipelines.flagship import follow_flagship

    src = str(tmp_path_factory.mktemp("growing"))
    out = str(tmp_path_factory.mktemp("follow_out"))
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    for f in files[:4]:
        shutil.copy(f, src)

    s1 = follow_flagship(os.path.join(src, "*.parquet"), out,
                         poll_s=0.05, idle_exit=1, files_per_unit=2,
                         concurrent_units=1)
    assert s1["follow_wakes"] == 1 and s1["units_run"] == 2

    # corpus grows by two append-ordered shards; a fresh follow loop
    # (same manifest) picks up ONLY the new unit
    for f in files[4:6]:
        shutil.copy(f, src)
    s2 = follow_flagship(os.path.join(src, "*.parquet"), out,
                         poll_s=0.05, idle_exit=1, files_per_unit=2,
                         concurrent_units=1)
    assert s2["units_skipped"] == 2 and s2["units_run"] == 1

    ref = run_flagship(files[:6], str(tmp_path_factory.mktemp("ref")),
                       files_per_unit=2, concurrent_units=1)
    assert s2["sink_counts"] == ref["sink_counts"]
    assert s2["reject_by_error"] == ref["reject_by_error"]
    assert s2["host_app_histogram"] == ref["host_app_histogram"]


def test_follow_mode_idle_no_files(tmp_path):
    """A follow loop over a never-matching glob exits idle without
    running Ray work or writing a manifest."""
    from sylk.pipelines.flagship import follow_flagship

    s = follow_flagship(str(tmp_path / "nope" / "*.parquet"),
                        str(tmp_path / "out"), poll_s=0.01, idle_exit=2)
    assert s["follow_wakes"] == 0 and "rows" not in s
    assert not os.path.exists(str(tmp_path / "out"))
