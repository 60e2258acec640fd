"""Router stage: fan-out to per-(facility, severity) Parquet sinks.

The reference has no dataflow layer; routing semantics here honor its
enum surface (facility.rs:87-114, severity.rs:57-68) — each parsed row
lands in sink ``facility_name/severity_name``; each failed row lands in
``reject/<ParseErr variant>`` (parser.rs:13-45).

Implementation is ONE hash-partitioned ``write_parquet`` with Hive
partition columns — a single streaming pass, no per-sink re-execution
of the pipeline, and the Hive directory layout IS the fan-out (readers
open exactly the sinks they need).  Deterministic directory names make
retried writes idempotent at the partition level.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.reference_semantics import ERROR_VARIANTS

# error variant -> dense id, for the int sort key (order is arbitrary but
# fixed; parser.rs:13-45 variant list)
_ERROR_NAMES = sorted(ERROR_VARIANTS)


def add_route_columns(batch: pa.Table) -> pa.Table:
    """Append ``route`` / ``route_key`` partition columns and the dense
    ``route_id`` clustering key.

    ok rows   -> route=<facility_name>, route_key=<severity_name>,
                 route_id = facility*8 + severity (0..191)
    fail rows -> route=reject, route_key=<error variant>,
                 route_id = 192 + error_id
    """
    ok = batch.column("ok")
    route = pc.if_else(ok, batch.column("facility_name"), pa.scalar("reject"))
    route_key = pc.if_else(ok, batch.column("severity_name"), batch.column("error"))
    sink_id = pc.add(
        pc.multiply(
            pc.cast(pc.fill_null(batch.column("facility"), 0), pa.int16()), 8
        ),
        pc.cast(pc.fill_null(batch.column("severity"), 0), pa.int16()),
    )
    err_idx = pc.index_in(
        pc.fill_null(batch.column("error"), _ERROR_NAMES[0]),
        pa.array(_ERROR_NAMES, pa.string()),
    )
    err_id = pc.add(pc.cast(err_idx, pa.int16()), 192)
    route_id = pc.if_else(ok, sink_id, err_id)
    batch = batch.append_column("route", route)
    batch = batch.append_column("route_key", route_key)
    return batch.append_column("route_id", route_id)


def route_and_write(parsed_ds, out_dir: str):
    """Write the routed fan-out in one pass.  ``parsed_ds`` must already
    carry facility_name/severity_name (post-enrich).

    The write range-partitions on the sink key (Ray ``sort`` — the
    Dataset-API expression of a hash-partitioned router) first, so each
    sink directory gets O(1) files per block range instead of one file
    per (input block x sink): without it a uniform key mixture writes
    blocks x 193 tiny files, which at 10^12 rows means millions of
    sub-MB objects per checkpoint unit.
    The sort key is the dense int16 ``route_id`` (same clustering as the
    string pair, far cheaper to exchange/compare).

    Measured alternative (12M rows, 32 cpus, interleaved best-of-4;
    BASELINE.md round 4): ``repartition(keys=["route_id"])`` under
    HASH_SHUFFLE gives the same 1 file/sink but runs ~2.7x slower
    (~39 s vs ~12-15 s — the hash-shuffle operator's fixed aggregator
    overhead dominates at 201 distinct keys), and skipping the exchange
    writes 91 files/sink.  The range sort is also the shape that keeps
    working when one sink is hot: ranges split a hot key across tasks,
    a hash bucket cannot."""
    ds = parsed_ds.map_batches(add_route_columns, batch_format="pyarrow")
    ds = ds.sort("route_id")
    ds.write_parquet(out_dir, partition_cols=["route", "route_key"])
    return out_dir


def route_and_write_jsonl(parsed_ds, out_dir: str):
    """Routed fan-out to newline-delimited JSON sinks — the shape a
    downstream log consumer (the crate's serde surface) ingests
    directly.  Same Hive layout and range-partition-by-sink policy as
    the parquet sink (this Ray version's ``write_json`` lacks
    ``partition_cols``, so each task writes its block's few route
    groups itself — the pre-sort keeps groups-per-block O(1)).  Use
    :func:`route_and_write` when the consumer is columnar (parquet
    footers also power the manifest metrics)."""
    import os
    import uuid

    ds = parsed_ds.map_batches(add_route_columns, batch_format="pyarrow")
    ds = ds.sort("route_id")

    def _write(df) -> "pa.Table":
        for (r, k), g in df.groupby(["route", "route_key"], sort=False):
            d = os.path.join(out_dir, f"route={r}", f"route_key={k}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"part-{uuid.uuid4().hex}.json")
            g.drop(columns=["route", "route_key", "route_id"]).to_json(
                path, orient="records", lines=True)
        return pa.table({"n": pa.array([len(df)], pa.int64())})

    ds.map_batches(_write, batch_format="pandas", batch_size=None).count()
    return out_dir
