"""Per-layer metrics of a traced run.

Three sources, all outside sylk:

* the spans of the traced operations (:mod:`perfbench.trace`);
* a kernel pass: ``parse_batch``, ``enrich_batch`` and
  ``add_route_columns`` in this process, one core, no Ray, over the
  workload's own input blocks;
* a walk of the routed output: files, bytes and rows per sink from the
  Hive layout and the Parquet footers.
"""

from __future__ import annotations

import os
import re
import statistics
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

from .trace import Patches, Tracer

# the SD field is the 7th space-separated header field; "-" is nil SD
_NIL_SD = r"^\S+ \S+ \S+ \S+ \S+ \S+ -( |$)"

# (metric, unit): the per_layer list of BENCHMARK.json,
# in the order the report prints them
METRICS = [
    ("parse.busy_s", "s"), ("parse.us_per_row", "us"),
    ("parse.us_per_row_sd", "us"), ("parse.us_per_row_nosd", "us"),
    ("parse.fallback_rows", "count"), ("parse.fallback_s", "s"),
    ("parse.fast_share", "ratio"), ("parse.reject_rows", "count"),
    ("enrich.busy_s", "s"),
    ("router.route_cols_s", "s"), ("router.exec_s", "s"),
    ("router.files_written", "count"), ("router.bytes_written", "bytes"),
    ("router.out_bytes_per_in_byte", "ratio"), ("router.sink_skew", "ratio"),
    ("aggregate.counts_s", "s"), ("aggregate.hist_s", "s"),
    ("aggregate.hist_files_read", "count"),
    ("flagship.self_s", "s"), ("flagship.units_run", "count"),
    ("flagship.units_skipped", "count"),
    ("manifest.commit_s", "s"), ("manifest.completed_s", "s"),
    ("manifest.lines", "count"),
    ("text_index.ingest_s", "s"), ("text_index.bm25_s_p50", "s"),
    ("text_index.and_s_p50", "s"), ("text_index.phrase_s_p50", "s"),
    ("text_index.delete_s", "s"), ("text_index.probe_files", "count"),
    ("ann_store.ingest_s", "s"), ("ann_store.query_s_p50", "s"),
    ("ann_store.probe_files", "count"),
    ("store_fold.compact_s", "s"), ("store_fold.files_in", "count"),
    ("store_fold.files_out", "count"),
    ("trace.overhead_s", "s"),
]
UNITS = dict(METRICS)

# ratio metrics and their bases, printed with the value
BASES = {
    "parse.us_per_row": "input rows of the kernel pass",
    "parse.us_per_row_sd": "rows whose SD is not '-'",
    "parse.us_per_row_nosd": "rows whose SD is '-'",
    "parse.fast_share": "input rows of the kernel pass",
    "router.out_bytes_per_in_byte": "input text bytes of the operation",
    "router.sink_skew": "mean rows per non-empty sink",
    "text_index.probe_files": "traced text_index probes",
    "ann_store.probe_files": "traced ann_store probes",
}


# the wrapped names, and the metrics that come from each
PATCHED = {
    "sylk.pipelines.flagship.route_and_write": ["router.exec_s"],
    "sylk.pipelines.flagship.grouped_counts_local": [
        "aggregate.hist_s", "aggregate.hist_files_read"],
    "sylk.state.manifest.Manifest.commit": ["manifest.commit_s"],
    "sylk.state.manifest.Manifest.completed": ["manifest.completed_s"],
    "sylk.stages.text_index.probe_files": ["text_index.probe_files"],
    "sylk.stages.ann_store.probe_files": ["ann_store.probe_files"],
    "sylk.stages.parse.parse_line": ["parse.fallback_rows", "parse.fast_share"],
    "sylk.stages.parse.parse_rows": ["parse.fallback_s"],
}


def install(tracer: Tracer) -> Patches:
    """Wrap the names sylk's own code calls into each layer."""
    p = Patches(tracer)
    fl = "sylk.pipelines.flagship"
    p.span(f"{fl}.route_and_write", "router.route_and_write")

    def hist_files(res, args, kwargs):
        try:
            tracer.count("aggregate.hist_files_read", len(args[0].input_files()))
        except (AttributeError, IndexError):
            pass
    p.span(f"{fl}.grouped_counts_local", "aggregate.grouped_counts_local",
           after=hist_files)
    p.span("sylk.state.manifest.Manifest.commit", "manifest.commit")
    p.span("sylk.state.manifest.Manifest.completed", "manifest.completed")
    p.counter("sylk.stages.text_index.probe_files", "text_index.probe_files",
              measure=len)
    p.counter("sylk.stages.ann_store.probe_files", "ann_store.probe_files",
              measure=len)
    return p


def kernel_pass(files: list[str], tracer: Tracer) -> dict:
    """Time the parse, enrich and route-column kernels over ``files``
    (one block per file, as the pipeline reads them)."""
    from sylk.stages import parse as parse_mod
    from sylk.stages.enrich import enrich_batch
    from sylk.stages.router import add_route_columns

    out = {"rows": 0, "parse_s": 0.0, "enrich_s": 0.0, "route_cols_s": 0.0,
           "sd_rows": 0, "sd_s": 0.0, "nosd_rows": 0, "nosd_s": 0.0,
           "reject_rows": 0, "fallback_rows": 0, "fallback_s": 0.0}
    blocks = [pq.read_table(f) for f in files]
    p = Patches(tracer)
    p.counter("sylk.stages.parse.parse_line", "parse.fallback_rows")
    p.span("sylk.stages.parse.parse_rows", "parse.parse_rows")
    try:
        for b in blocks:
            t0 = time.perf_counter()
            parsed = parse_mod.parse_batch(b)
            t1 = time.perf_counter()
            enriched = enrich_batch(parsed)
            t2 = time.perf_counter()
            add_route_columns(enriched)
            t3 = time.perf_counter()
            out["rows"] += b.num_rows
            out["parse_s"] += t1 - t0
            out["enrich_s"] += t2 - t1
            out["route_cols_s"] += t3 - t2
            out["reject_rows"] += int(pc.sum(pc.invert(
                enriched.column("ok"))).as_py() or 0)
    finally:
        p.restore()
    out["absent"] = dict(p.absent)
    out["fallback_rows"] = int(tracer.counts.get("parse.fallback_rows", 0))
    out["fallback_s"] = sum(tracer.durations("parse.parse_rows"))
    # the same blocks again, split by whether the SD field is nil
    for b in blocks:
        nil = pc.match_substring_regex(b.column("text"), _NIL_SD)
        for part, key in ((b.filter(pc.invert(nil)), "sd"),
                          (b.filter(nil), "nosd")):
            t0 = time.perf_counter()
            parse_mod.parse_batch(part)
            out[f"{key}_s"] += time.perf_counter() - t0
            out[f"{key}_rows"] += part.num_rows
    return out


_SINK = re.compile(r"route=([^/]+)/route_key=([^/]+)/")


def walk_output(files: list[str]) -> dict:
    """Files, bytes and rows per sink of routed output files, from the
    Hive layout and the Parquet footers only."""
    sinks: dict[str, int] = {}
    for f in files:
        m = _SINK.search(f)
        key = m.group(0) if m else f
        sinks[key] = sinks.get(key, 0) + pq.ParquetFile(f).metadata.num_rows
    nonempty = [n for n in sinks.values() if n]
    return {"files": len(files), "bytes": sum(os.path.getsize(f) for f in files),
            "sink_skew": (max(nonempty) / (sum(nonempty) / len(nonempty))
                          if nonempty else 0.0)}


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def compute(tracer: Tracer, ops, kernel: dict | None, walks: list[dict],
            in_bytes: list[int], overhead: float, absent_patches: dict,
            workload: str) -> tuple[dict, dict]:
    """(metric -> value, metric -> reason it is absent)."""
    traced = [o for o in ops if o.traced and o.error is None]
    pipeline = [o for o in traced if "summary" in o.payload
                or "rollups" in o.payload]
    n = max(1, len(pipeline))

    def per_op(name):
        return sum(tracer.durations(name)) / n if pipeline else 0.0

    v: dict[str, float] = {}
    absent: dict[str, str] = {}
    if kernel and kernel["rows"]:
        rows = kernel["rows"]
        v["parse.busy_s"] = kernel["parse_s"]
        v["parse.us_per_row"] = 1e6 * kernel["parse_s"] / rows
        v["parse.us_per_row_sd"] = (1e6 * kernel["sd_s"] / kernel["sd_rows"]
                                    if kernel["sd_rows"] else 0.0)
        v["parse.us_per_row_nosd"] = (1e6 * kernel["nosd_s"] / kernel["nosd_rows"]
                                      if kernel["nosd_rows"] else 0.0)
        v["parse.fallback_rows"] = kernel["fallback_rows"]
        v["parse.fallback_s"] = kernel["fallback_s"]
        v["parse.fast_share"] = 1 - kernel["fallback_rows"] / rows
        v["parse.reject_rows"] = kernel["reject_rows"]
        v["enrich.busy_s"] = kernel["enrich_s"]
        v["router.route_cols_s"] = kernel["route_cols_s"]
    summaries = [o.payload["summary"] for o in pipeline if "summary" in o.payload]
    if summaries:
        v["router.exec_s"] = per_op("router.route_and_write")
        v["router.files_written"] = sum(w["files"] for w in walks) / len(walks)
        v["router.bytes_written"] = sum(w["bytes"] for w in walks) / len(walks)
        v["router.out_bytes_per_in_byte"] = (sum(w["bytes"] for w in walks)
                                             / sum(in_bytes))
        v["router.sink_skew"] = sum(w["sink_skew"] for w in walks) / len(walks)
        v["aggregate.hist_s"] = per_op("aggregate.grouped_counts_local")
        v["aggregate.hist_files_read"] = (
            tracer.counts.get("aggregate.hist_files_read", 0) / n)
        v["flagship.self_s"] = sum(tracer.self_times(o.root).get("flagship", 0.0)
                                   for o in pipeline) / n
        v["flagship.units_run"] = sum(s["units_run"] for s in summaries) / n
        v["flagship.units_skipped"] = sum(s["units_skipped"] for s in summaries) / n
        v["manifest.commit_s"] = per_op("manifest.commit")
        v["manifest.completed_s"] = per_op("manifest.completed")
        v["manifest.lines"] = [o.payload["manifest_lines"] for o in pipeline
                               if "manifest_lines" in o.payload][-1]
    if any("rollups" in o.payload for o in pipeline):
        v["aggregate.counts_s"] = (per_op("aggregate.combined_counts")
                                   + per_op("aggregate.rollups_from_combined"))
    store = [o for o in traced if ":" in o.kind]
    if store:
        def probes(kind):
            return sum(1 for o in store if o.kind == f"probe:{kind}")
        n_text = probes("bm25") + probes("and") + probes("phrase")
        v["text_index.ingest_s"] = _p50(tracer.durations("text_index.index_ingest"))
        v["text_index.bm25_s_p50"] = _p50(tracer.durations("text_index.index_query_bm25"))
        v["text_index.and_s_p50"] = _p50(tracer.durations("text_index.index_match_docs"))
        v["text_index.phrase_s_p50"] = _p50(tracer.durations("text_index.index_phrase_docs"))
        v["text_index.delete_s"] = _p50(tracer.durations("text_index.index_delete"))
        v["text_index.probe_files"] = (tracer.counts.get("text_index.probe_files", 0)
                                       / max(1, n_text))
        v["ann_store.ingest_s"] = _p50(tracer.durations("ann_store.ann_ingest"))
        v["ann_store.query_s_p50"] = _p50(tracer.durations("ann_store.ann_store_query"))
        v["ann_store.probe_files"] = (tracer.counts.get("ann_store.probe_files", 0)
                                      / max(1, probes("ann")))
        folds = [o.payload["fold"] for o in store if "fold" in o.payload]
        v["store_fold.compact_s"] = (sum(tracer.durations("store_fold.compact_text"))
                                     + sum(tracer.durations("store_fold.compact_ann")))
        v["store_fold.files_in"] = sum(f["files_in"] for f in folds)
        v["store_fold.files_out"] = sum(f["files_out"] for f in folds)
    v["trace.overhead_s"] = overhead
    for name, _ in METRICS:
        if name not in v:
            layer = name.split(".", 1)[0]
            absent[name] = f"{workload} never calls the {layer} layer"
            v[name] = 0.0
    for path, why in absent_patches.items():
        for name in PATCHED.get(path, []):
            absent[name] = f"{path} {why}"
    return v, absent
