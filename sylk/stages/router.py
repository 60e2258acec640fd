"""Router stage: fan-out to per-(facility, severity) Parquet sinks.

The reference has no dataflow layer; routing semantics here honor its
enum surface (facility.rs:87-114, severity.rs:57-68) — each parsed row
lands in sink ``facility_name/severity_name``; each failed row lands in
``reject/<ParseErr variant>`` (parser.rs:13-45).

Implementation is ONE range sort on the sink key followed by ONE write
through :class:`RoutedSink` (a public ``ray.data.Datasink``): each write
task writes its rows into the Hive layout ``route=<r>/route_key=<k>/``
— the directory layout IS the fan-out (readers open exactly the sinks
they need) — and counts the same in-memory rows as it goes, so the
per-sink, per-reject and host/app counts come back from the write pass
itself with no second read of the output.

Retries are idempotent: file names are ``part-<task index>-<i>``, so a
retried write task overwrites its own files, and the sink clears the
``route=*`` tree of its output directory when a write starts, so a
re-executed write (whose range sort may sample other boundaries and give
a sink to another task) never leaves a stale file beside a new one.
"""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
from ray.data import Datasink
from ray.data.block import BlockAccessor

from ..functions.reference_semantics import ERROR_VARIANTS
from .aggregate import _partial_counts

# error variant -> dense id, for the int sort key (order is arbitrary but
# fixed; parser.rs:13-45 variant list)
_ERROR_NAMES = sorted(ERROR_VARIANTS)

_ROUTE_KEYS = ["route", "route_key"]
_HOST_APP_KEYS = ["hostname", "appname"]
ROUTE_COUNTS_SCHEMA = pa.schema(
    [("route", pa.string()), ("route_key", pa.string()), ("n", pa.int64())])
HOST_APP_SCHEMA = pa.schema(
    [("hostname", pa.string()), ("appname", pa.string()), ("n", pa.int64())])


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


def _merge(tables: list, keys: list, schema: pa.Schema) -> pa.Table:
    """Sum the ``n`` column of per-task count tables by ``keys``."""
    if not tables:
        return schema.empty_table()
    merged = pa.concat_tables(tables).group_by(keys).aggregate([("n", "sum")])
    return merged.rename_columns(keys + ["n"]).cast(schema)


class RoutedSink(Datasink):
    """The routed write: each task writes its rows into the Hive sink
    layout and returns the counts of the rows it wrote.

    ``fmt="parquet"`` writes with ``pyarrow.dataset.write_dataset`` (the
    same call, layout and file schema as Ray's own Parquet sink: the
    partition columns live in the directory names only);
    ``fmt="json"`` writes one newline-delimited JSON file per sink
    group.  A write first removes the ``route=*`` directories already
    under ``out_dir``: the directory then holds exactly the rows of the
    last write.  After the write, ``counts`` holds two driver-merged tables:
    ``(route, route_key, n)`` over every row, and ``(hostname, appname,
    n)`` over the ok rows (null terms count under "")."""

    def __init__(self, out_dir: str, fmt: str = "parquet"):
        self.out_dir = out_dir
        self.fmt = fmt
        self.counts = (ROUTE_COUNTS_SCHEMA.empty_table(),
                       HOST_APP_SCHEMA.empty_table())

    def on_write_start(self) -> None:
        for d in glob.glob(os.path.join(self.out_dir, "route=*")):
            shutil.rmtree(d)
        os.makedirs(self.out_dir, exist_ok=True)

    def write(self, blocks, ctx):
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return None
        table = pa.concat_tables(tables, promote_options="default")
        name = f"part-{ctx.task_idx:05d}"
        if self.fmt == "json":
            self._write_json(table, name)
        else:
            pads.write_dataset(
                table,
                self.out_dir,
                format="parquet",
                partitioning=_ROUTE_KEYS,
                partitioning_flavor="hive",
                basename_template=name + "-{i}.parquet",
                existing_data_behavior="overwrite_or_ignore",
                use_threads=True,
            )
        routes = table.group_by(_ROUTE_KEYS).aggregate([([], "count_all")])
        return (routes.rename_columns(_ROUTE_KEYS + ["n"]),
                _partial_counts(table, _HOST_APP_KEYS, True))

    def _write_json(self, table: pa.Table, name: str) -> None:
        df = table.drop_columns(["route_id"]).to_pandas()
        for (r, k), g in df.groupby(_ROUTE_KEYS, sort=False):
            d = os.path.join(self.out_dir, f"route={r}", f"route_key={k}")
            os.makedirs(d, exist_ok=True)
            g.drop(columns=_ROUTE_KEYS).to_json(
                os.path.join(d, name + "-0.json"), orient="records", lines=True)

    def on_write_complete(self, write_result) -> None:
        rets = [r for r in write_result.write_returns if r is not None]
        self.counts = (
            _merge([r[0] for r in rets], _ROUTE_KEYS, ROUTE_COUNTS_SCHEMA),
            _merge([r[1] for r in rets], _HOST_APP_KEYS, HOST_APP_SCHEMA),
        )


def _route(parsed_ds, out_dir: str, fmt: str):
    sink = RoutedSink(out_dir, fmt)
    ds = parsed_ds.map_batches(add_route_columns, batch_format="pyarrow")
    ds.sort("route_id").write_datasink(sink)
    return sink.counts


def route_and_write(parsed_ds, out_dir: str):
    """Write the routed fan-out in one pass and return its counts.
    ``parsed_ds`` must already carry facility_name/severity_name
    (post-enrich).

    Returns ``(route_counts, host_app_counts)``: Arrow tables
    ``(route, route_key, n)`` over every routed row and ``(hostname,
    appname, n)`` over the ok rows, counted by the write tasks from the
    rows they wrote (see :class:`RoutedSink`); typed and empty when the
    input has no rows.

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
    writes 91 files/sink.  Ray's range partition keeps every row of one
    ``route_id`` in one task, so a sink directory gets one file per
    unit."""
    return _route(parsed_ds, out_dir, "parquet")


def route_and_write_jsonl(parsed_ds, out_dir: str):
    """Routed fan-out to newline-delimited JSON sinks — the shape a
    downstream log consumer (the crate's serde surface) ingests
    directly.  Same sink, Hive layout, range-partition-by-sink policy,
    file naming and returned counts as :func:`route_and_write`; each
    write task writes one JSON file per sink group it holds (the
    pre-sort keeps groups-per-task O(1))."""
    return _route(parsed_ds, out_dir, "json")
