"""Flagship pipeline: transcripts -> parse -> enrich -> route -> aggregate.

The end-to-end composition the north rule names (BASELINE.json):

    read_parquet (transcript shards)
      -> map_batches(parse_batch)            stateless vectorized tasks
      -> map_batches(enrich_batch)           fused tasks, per-worker lookup
      -> route_and_write                     one Hive write as one
                                             routed-store increment: sorted
                                             in the driver up to 64 MiB of
                                             routed rows, else range sort +
                                             write tasks; the write counts
                                             the rows it writes (sink,
                                             reject and host/app counts)
      -> Manifest.commit                     per-partition lineage + counts
      -> rollups                             merged from the manifest lines

Checkpoint granularity is a *partition unit* (a group of input files):
each unit streams through the full pipeline with whole-cluster
parallelism, then commits one manifest line carrying its counts.  The
run's sink, reject and host/app rollups merge those lines, so neither a
fresh nor a resumed run reads any routed data back.

``<out>/data`` is a ``store_fold`` store: unit ``u%05d`` (number ``i``)
is increment ``i``.  A unit commits its sink files, then its marker
(naming its input files), then its manifest line; a resumed run skips
a unit whose line and marker name its current input files.  Before any
unit runs, the increments of units that no longer exist are removed and
those this run re-writes are unmarked; a crashed unit's files are
overwritten by name on retry (idempotent).
"""

from __future__ import annotations

import glob
import os
import time

import pyarrow.parquet as pq
import ray.data

from ..functions.reference_semantics import FACILITY_NAMES, SEVERITY_NAMES
from ..stages.enrich import enrich_batch
from ..stages.parse import parse_batch
from ..stages.router import SINKS, route_and_write
from ..stages.store_fold import (check_watermark, fold, increment_ids,
                                 read_marker, remove_increment, unmark,
                                 write_marker)
from ..state.manifest import Manifest

_FAC_ID = {n: i for i, n in enumerate(FACILITY_NAMES)}
_SEV_ID = {n: i for i, n in enumerate(SEVERITY_NAMES)}
# in-memory bytes of a parsed, enriched and route-columned block per
# uncompressed byte of its transcript file (Parquet footer): 2.82 on the
# synthetic corpus (1,554,953 B -> 4,391,759 B per 14,400-row file)
_PARSE_EXPANSION = 3


def parse_enrich(ds):
    """parse + enrich stages on any transcript Dataset.

    ``batch_size=None`` = whole Arrow blocks per call: the parse regex
    compiles once per block instead of once per 1024 rows, and the
    vectorized kernels amortize.  The enrich lookup runs as fused
    stateless tasks with a per-worker cached table (see
    ``enrich_batch``) — measured ~4x faster end-to-end than an actor
    pool at this state size, because warm task workers are reused
    across executions."""
    ds = ds.map_batches(
        parse_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ds.map_batches(
        enrich_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def parsed_block_bytes(files: list[str], cap: int) -> int:
    """The output-block size hint of a unit reading ``files`` one block
    each: the largest file's uncompressed bytes (from its Parquet
    footer) times ``_PARSE_EXPANSION``, at most ``cap``.

    Ray Data sizes a map task's output as ``target_max_block_size``
    (128 MiB) per generator-buffer block until its first task finishes,
    so under a small object store it admits one parse task at a time;
    a unit's Dataset that states its real block size launches every
    parse task of the unit at once."""
    def _uncompressed(f):
        md = pq.read_metadata(f)
        return sum(md.row_group(i).total_byte_size
                   for i in range(md.num_row_groups))

    size = max(map(_uncompressed, files), default=0)
    return max(1, min(cap, size * _PARSE_EXPANSION))


def _unit_counts(route_counts, host_app_counts):
    """Manifest fields of one unit from the router's count tables:
    (sink_counts "fac/sev" -> n, reject_by_error -> n,
    host_app [[hostname, appname, n], ...])."""
    sinks: dict = {}
    rejects: dict = {}
    for route, key, n in zip(*route_counts.to_pydict().values()):
        if route == "reject":
            rejects[key] = n
        else:
            sinks[f"{_FAC_ID[route]}/{_SEV_ID[key]}"] = n
    host_app = sorted(map(list, zip(*host_app_counts.to_pydict().values())))
    return sinks, rejects, host_app


def _committed(store: str, inc: int, rec: dict | None) -> bool:
    """Whether unit ``inc``'s manifest line ``rec`` feeds the rollups
    and describes the rows on disk: the unit's increment is marked, and
    its marker names the line's input files."""
    m = read_marker(store, inc)
    return (rec is not None and "host_app" in rec and m is not None
            and m.get("input_files") == rec.get("input_files"))


def compact_routed(store_dir: str) -> dict:
    """Fold a run's routed store ``<out>/data`` (``sylk compact --kind
    routed``) up to its longest prefix of committed units.  A marker
    alone does not commit a unit: units finish out of order, and a
    crash can land between a marker and its line; folding such a unit
    would make its rerun hit the compaction watermark."""
    done = Manifest(os.path.dirname(os.path.normpath(store_dir))).completed()
    k = -1
    while _committed(store_dir, k + 1, done.get(f"u{k + 1:05d}")):
        k += 1
    return fold(store_dir, SINKS, cap=k)


def run_flagship(
    input_files: list[str],
    out_dir: str,
    files_per_unit: int = 16,
    concurrent_units: int = 2,
    input_format: str = "parquet",
) -> dict:
    """Run the full pipeline over ``input_files`` with checkpoint/resume.

    Returns a summary dict: total rows, parse_ok, per-sink counts,
    reject counts, the host/app histogram, units run vs skipped.  All
    three rollups merge from the manifest lines of the run's units.

    ``concurrent_units`` > 1 overlaps that many unit pipelines (each a
    full Ray Data execution) from driver threads: units are independent
    (own increment files, own manifest commit line), so this preserves the
    checkpoint/resume semantics while hiding per-unit barrier latency
    (the sort→write tail of one unit overlaps the read→parse head of
    the next).
    """
    import concurrent.futures as cf

    mf = Manifest(out_dir)
    done = mf.completed()
    store = os.path.join(out_dir, "data")
    units = [
        (f"u{ui:05d}", input_files[i : i + files_per_unit])
        for ui, i in enumerate(range(0, len(input_files), files_per_unit))
    ]
    totals = {"rows": 0, "parse_ok": 0, "units_run": 0, "units_skipped": 0}
    pending = []
    on_disk = increment_ids(store, SINKS)

    for inc, (uid, files) in enumerate(units):
        rec = done.get(uid)
        # a line from an older run without the host_app counts cannot
        # feed the rollups: treat it as not committed and re-run the unit
        if rec and rec.get("input_files") == files and "host_app" in rec:
            if inc not in on_disk:
                # the routed rows were removed: the line still holds the
                # unit's counts; mark the empty increment so folds pass it
                os.makedirs(store, exist_ok=True)
                write_marker(store, inc,
                             {"rows": rec["rows"], "input_files": files})
            if _committed(store, inc, rec):
                totals["units_skipped"] += 1
                totals["rows"] += rec["rows"]
                totals["parse_ok"] += rec["parse_ok"]
                continue
        # uid absent, committed under a DIFFERENT file list (the unit
        # boundaries moved: files_per_unit or the input set changed), or
        # its increment holds another run's rows — reusing the stale
        # output would corrupt the global aggregates, so re-run; the
        # fresh commit line supersedes the old
        pending.append((uid, files, inc))

    # increments of units this run does not have (fewer units after the
    # boundaries moved) would leave their rows beside the re-run ones;
    # one that is folded already cannot be removed or re-run
    stale = on_disk - set(range(len(units)))
    rerun = [inc for *_, inc in pending]
    for inc in sorted(stale) + rerun:
        check_watermark(store, inc)
    for inc in stale:
        remove_increment(store, SINKS, inc)
    # units finish out of order: unmark every increment this run
    # rewrites before any unit starts, so a fold never takes an old
    # increment of a half-rewritten run for a committed one
    for inc in rerun:
        unmark(store, inc)

    def _run_unit(uid, files, inc):
        t0 = time.time()
        # one block per input file -> the planner fuses the read into the
        # parse/enrich/route chain (no SplitBlocks, no extra plasma hop)
        if input_format == "text":
            # raw RFC 5424 line files (the crate's native input shape)
            ds = ray.data.read_text(files, drop_empty_lines=False)
        elif input_format == "text_gz":
            # rotated syslog archives; decompression streams in-task
            from ..sources.rawlines import read_syslog_lines_gz

            ds = read_syslog_lines_gz(files)
        else:
            ds = ray.data.read_parquet(files, override_num_blocks=len(files))
            # this Dataset's own context copy: the global one is untouched
            ds.context.target_max_block_size = parsed_block_bytes(
                files, ds.context.target_max_block_size)
        # the router replaces whatever a crashed earlier attempt left of
        # increment inc and returns the counts of the rows it wrote: the
        # unit's manifest metrics cost no read of the routed output
        *counts, tier = route_and_write(parse_enrich(ds), store, inc,
                                        {"input_files": files})
        sink_counts, reject_counts, host_app = _unit_counts(*counts)
        ok_rows = sum(sink_counts.values())
        rows = ok_rows + sum(reject_counts.values())
        mf.commit(
            uid,
            input_files=files,
            rows=rows,
            parse_ok=ok_rows,
            sink_counts=sink_counts,
            reject_by_error=reject_counts,
            host_app=host_app,
            wall_s=round(time.time() - t0, 3),
            **tier,
        )
        return rows, ok_rows

    if pending:
        with cf.ThreadPoolExecutor(max_workers=max(1, concurrent_units)) as ex:
            for rows, ok_rows in ex.map(lambda a: _run_unit(*a), pending):
                totals["rows"] += rows
                totals["parse_ok"] += ok_rows
                totals["units_run"] += 1

    # every rollup comes from the MANIFEST — every unit in this run
    # (fresh or resumed) committed its per-unit counts, so no run
    # re-reads any routed bytes for them
    done = mf.completed()
    sink: dict = {}
    rejects: dict = {}
    hostapp: dict = {}
    for uid, _files in units:
        rec = done[uid]
        for k, n in rec["sink_counts"].items():
            key = tuple(int(x) for x in k.split("/"))
            sink[key] = sink.get(key, 0) + int(n)
        for err, n in rec["reject_by_error"].items():
            rejects[err] = rejects.get(err, 0) + int(n)
        for host, app, n in rec["host_app"]:
            hostapp[(host, app)] = hostapp.get((host, app), 0) + int(n)
    return {
        **totals,
        "sink_counts": sink,
        "reject_by_error": rejects,
        "host_app_histogram": hostapp,
        "out_dir": out_dir,
    }


def follow_flagship(input_glob: str, out_dir: str, poll_s: float = 2.0,
                    idle_exit: int = 3, max_polls: int | None = None,
                    **run_kw) -> dict:
    """Micro-batch follow mode — the Ray-Data shape of the crate's
    sustained syslog-server ingestion (reference: rust-syslog-rfc5424
    is built to parse a continuous server feed; here the feed is a
    growing directory of rotated shards).

    Polls ``input_glob`` every ``poll_s`` seconds; whenever the sorted
    file list grows, re-enters :func:`run_flagship` — committed units
    skip via the manifest, so each wake processes ONLY the new shards
    (append-ordered names keep unit boundaries stable; a file that
    sorts before existing shards shifts boundaries and re-runs from the
    first moved unit, which is correct, just not incremental).  Exits
    after ``idle_exit`` consecutive empty polls (or ``max_polls``).

    Returns the last run's summary plus follow-loop counters.  Crash
    safety is inherited: a killed follow loop resumes exactly like a
    killed batch run."""
    seen: list[str] | None = None
    summary: dict = {}
    polls = wakes = idle = 0
    while True:
        polls += 1
        files = sorted(glob.glob(input_glob))
        if files and files != seen:
            summary = run_flagship(files, out_dir, **run_kw)
            seen = files
            wakes += 1
            idle = 0
        else:
            idle += 1
        if idle >= idle_exit or (max_polls is not None
                                 and polls >= max_polls):
            break
        time.sleep(poll_s)
    return {**summary, "follow_polls": polls, "follow_wakes": wakes}
