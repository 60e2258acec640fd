"""Router stage: fan-out to per-(facility, severity) Parquet sinks.

The reference has no dataflow layer; routing semantics here honor its
enum surface (facility.rs:87-114, severity.rs:57-68) — each parsed row
lands in sink ``facility_name/severity_name``; each failed row lands in
``reject/<ParseErr variant>`` (parser.rs:13-45).

Implementation is ONE pass through :class:`RoutedSink` (a public
``ray.data.Datasink``): it writes the rows into the Hive layout
``route=<r>/route_key=<k>/`` — the directory layout IS the fan-out
(readers open exactly the sinks they need) — and counts the same
in-memory rows as it goes, so the per-sink, per-reject and host/app
counts come back from the write pass itself with no second read of the
output.

The routed output is a :mod:`store_fold` store whose partitions are the
sinks and whose increments are write units: increment ``inc_id`` writes
``route=<r>/route_key=<k>/inc<inc_id>.parquet`` (``.json`` for the
JSONL sink) and its ``_done_inc<inc_id>.json`` marker LAST, so
``read_set`` (with ``as_of``) and ``fold(store_dir, SINKS)`` work on it
unchanged.  Every row of one ``route_id`` reaches one write call, so
each sink gets one file per increment under a name that does not depend
on how the rows were partitioned: a rerun or a Ray task retry
overwrites its own files by name.

The write has two tiers, picked from size alone (the block metadata of
the routed rows, materialized once), which run the same sink steps
(``on_write_start``, :meth:`RoutedSink.write_table`,
``on_write_complete``):

* up to ``store_fold._DRIVER_READ_LIMIT`` bytes of routed rows the
  driver collects them, stable-sorts them by ``route_id`` and writes
  them in one call — no exchange and no write task;
* above it, Ray's range sort (the default pull-based strategy) merges
  each key range into one block, and ``write_datasink`` hands each
  block to one task whole.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
from ray.data import Datasink
from ray.data.block import BlockAccessor
from ray.data.datasource import WriteResult

from ..functions.reference_semantics import ERROR_VARIANTS
from . import store_fold
from .aggregate import _partial_counts
from .collect import collect
from .store_fold import (atomic_write, check_watermark, remove_increment,
                         write_marker)

# error variant -> dense id, for the int sort key (order is arbitrary but
# fixed; parser.rs:13-45 variant list)
_ERROR_NAMES = sorted(ERROR_VARIANTS)

_ROUTE_KEYS = ["route", "route_key"]
SINKS = os.path.join("route=*", "route_key=*")  # the store's partitions
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


class RoutedSink(Datasink):
    """The routed write as one store ingest: each write call (a Ray
    write task, or the driver tier's one call) writes its rows into the
    Hive sink layout as increment ``inc_id`` and returns the counts of
    the rows it wrote.

    ``fmt="parquet"`` writes with ``pyarrow.dataset.write_dataset`` (the
    same call, layout and file schema as Ray's own Parquet sink: the
    partition columns live in the directory names only) under a tmp
    name, then renames each file to ``inc<inc_id>.parquet``;
    ``fmt="json"`` writes each sink group to ``inc<inc_id>.json`` the
    same way.  A write first checks the compaction watermark and removes
    this increment's marker and files; it writes the marker last, with
    the row count and the fields of ``info``.  ``counts`` then holds
    ``(route, route_key, n)`` over every row and ``(hostname, appname,
    n)`` over the ok rows (null terms count under "")."""

    def __init__(self, store_dir: str, inc_id: int, fmt: str = "parquet",
                 info: dict | None = None):
        self.store_dir = store_dir
        self.inc_id = inc_id
        self.fmt = fmt
        self.info = info or {}
        self.counts = (ROUTE_COUNTS_SCHEMA.empty_table(),
                       HOST_APP_SCHEMA.empty_table())

    def on_write_start(self) -> None:
        check_watermark(self.store_dir, self.inc_id)
        os.makedirs(self.store_dir, exist_ok=True)
        remove_increment(self.store_dir, SINKS, self.inc_id)

    def write(self, blocks, ctx):
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return None
        return self.write_table(
            pa.concat_tables(tables, promote_options="default"))

    def write_table(self, table: pa.Table):
        """The write body of both tiers: write ``table`` (non-empty,
        holding every row of each sink it names) as this increment's
        files of those sinks, and return its ``(routes, host_app)``
        counts."""
        name = f"inc{self.inc_id}"
        if self.fmt == "json":
            self._write_json(table, name)
        else:
            written = []
            pads.write_dataset(
                table,
                self.store_dir,
                format="parquet",
                partitioning=_ROUTE_KEYS,
                partitioning_flavor="hive",
                basename_template=name + ".{i}.tmp",
                existing_data_behavior="overwrite_or_ignore",
                use_threads=True,
                file_visitor=lambda f: written.append(f.path),
            )
            dirs = [os.path.dirname(p) for p in written]
            if len(set(dirs)) != len(dirs):
                raise RuntimeError(
                    f"increment {self.inc_id} wrote two files into one sink"
                    f" directory: {sorted(written)}")
            for p, d in zip(written, dirs):
                os.replace(p, os.path.join(d, name + ".parquet"))
        routes = table.group_by(_ROUTE_KEYS).aggregate([([], "count_all")])
        return (routes.rename_columns(_ROUTE_KEYS + ["n"]),
                _partial_counts(table, _HOST_APP_KEYS, True))

    def _write_json(self, table: pa.Table, name: str) -> None:
        df = table.drop_columns(["route_id"]).to_pandas()
        for (r, k), g in df.groupby(_ROUTE_KEYS, sort=False):
            d = os.path.join(self.store_dir, f"route={r}", f"route_key={k}")
            os.makedirs(d, exist_ok=True)
            atomic_write(os.path.join(d, name + ".json"),
                         lambda p: g.drop(columns=_ROUTE_KEYS).to_json(
                             p, orient="records", lines=True))

    def on_write_complete(self, write_result) -> None:
        rets = [r for r in write_result.write_returns if r is not None]
        routes = ROUTE_COUNTS_SCHEMA.empty_table()
        host_app = HOST_APP_SCHEMA.empty_table()
        if rets:
            routes = pa.concat_tables([r[0] for r in rets]).cast(routes.schema)
            host_app = pa.concat_tables([r[1] for r in rets]).group_by(
                _HOST_APP_KEYS).aggregate([("n", "sum")]).rename_columns(
                _HOST_APP_KEYS + ["n"]).cast(host_app.schema)
        # two tasks naming one sink wrote one file name twice
        if routes.group_by(_ROUTE_KEYS).aggregate([]).num_rows != routes.num_rows:
            raise RuntimeError(
                f"increment {self.inc_id}: two write tasks wrote one sink")
        self.counts = (routes, host_app)
        write_marker(self.store_dir, self.inc_id,
                     {"rows": int(pc.sum(routes.column("n")).as_py() or 0),
                      **self.info})


def _route(parsed_ds, store_dir: str, inc_id: int, fmt: str, info):
    sink = RoutedSink(store_dir, inc_id, fmt, info)
    ds = parsed_ds.map_batches(add_route_columns,
                               batch_format="pyarrow").materialize()
    # None only when the plan produced no block at all
    size = ds.size_bytes() or 0
    if size <= store_fold._DRIVER_READ_LIMIT:
        tier = "driver"
        _, tbl = collect(ds)
        sink.on_write_start()
        # stable sort: a sink's rows keep their input order
        rets = [sink.write_table(tbl.sort_by("route_id"))] \
            if tbl.num_rows else []
        sink.on_write_complete(WriteResult(tbl.num_rows, size, rets))
    else:
        tier = "exchange"
        ds.sort("route_id").write_datasink(sink)
    return (*sink.counts, {"route_tier": tier, "routed_bytes": size})


def route_and_write(parsed_ds, store_dir: str, inc_id: int,
                    info: dict | None = None):
    """Write the routed fan-out in one pass as increment ``inc_id`` of
    the routed store ``store_dir`` and return its counts.  ``parsed_ds``
    must already carry facility_name/severity_name (post-enrich);
    ``info`` adds fields to the increment's marker.

    Returns ``(route_counts, host_app_counts, tier)``: Arrow tables
    ``(route, route_key, n)`` over every routed row and ``(hostname,
    appname, n)`` over the ok rows, counted by the write calls from the
    rows they wrote (see :class:`RoutedSink`), typed and empty when the
    input has no rows; and ``{"route_tier": "driver" | "exchange",
    "routed_bytes": n}``, the tier that wrote and the block-metadata
    size of the routed rows it was chosen from.

    Up to ``store_fold._DRIVER_READ_LIMIT`` bytes (a flagship unit of a
    few files: 28,800 rows are 8.8 MB) the driver writes the collected,
    sorted rows in one call; a unit that fits in the driver needs no
    repartition, and the Ray range sort (sample, map and reduce stages)
    plus write operator was nearly the whole cost of such a unit.
    Above it the write range-partitions on the sink key first (Ray
    ``sort`` — the Dataset-API expression of a hash-partitioned
    router), so each sink directory gets O(1) files per block range
    instead of one file per (input block x sink): without it a uniform
    key mixture writes blocks x 193 tiny files, which at 10^12 rows
    means millions of sub-MB objects per checkpoint unit.  Either way
    the key is the dense int16 ``route_id`` (same clustering as the
    string pair, far cheaper to exchange/compare).

    Measured alternative (12M rows, 32 cpus, interleaved best-of-4;
    BASELINE.md round 4): ``repartition(keys=["route_id"])`` under
    HASH_SHUFFLE gives the same 1 file/sink but runs ~2.7x slower
    (~39 s vs ~12-15 s — the hash-shuffle operator's fixed aggregator
    overhead dominates at 201 distinct keys), and skipping the exchange
    writes 91 files/sink."""
    return _route(parsed_ds, store_dir, inc_id, "parquet", info)


def route_and_write_jsonl(parsed_ds, store_dir: str, inc_id: int,
                          info: dict | None = None):
    """Routed fan-out to newline-delimited JSON sinks — the shape a
    downstream log consumer (the crate's serde surface) ingests
    directly.  Same sink, Hive layout, tiers, store protocol and
    returned counts as :func:`route_and_write`; each write call writes
    one ``inc<inc_id>.json`` per sink group it holds (the sort keeps
    groups per call O(1))."""
    return _route(parsed_ds, store_dir, inc_id, "json", info)
