"""The one store core: layout, completeness markers, read set,
watermark, tombstones and compaction fold, shared by every increment
store (dedup_store's exact and near-dup stores, upsert_store,
ann_store, text_index).

Layout::

    store_dir/<part>=<k>/inc<id>.parquet       # write_increment's names
    store_dir/<part>=<k>/compact<upto>.parquet # reserved fold names
    store_dir/_done_inc<id>.json               # completeness marker
    store_dir/_compact.json                    # compaction watermark
    store_dir/_deletes/del<id>.parquet         # tombstoned ids
    store_dir/_deletes/_done_del<id>.json      # tombstone marker

Contract:

* :func:`write_increment` is the one partitioned increment write: it
  refuses ``inc_id`` at or below the watermark, then a rerun removes
  its own increment first (marker, then files), so no file of an
  earlier attempt outlives it; one partition writer writes each
  partition's file tmp -> rename under its deterministic
  :func:`inc_file` name, and the ``_done_inc<id>`` marker is written
  LAST.  An increment without its marker does not exist: no read set
  holds it and no fold consumes it.
* A partition's read set (:func:`read_set`) is its highest
  ``compact<u>`` file plus the marker-complete ``inc<i>`` files with
  ``u < i <= as_of``.  Files with ``i <= u`` are shadowed — folded
  already, or left behind by a fold that crashed before deleting its
  sources — so no probe ever sees a row twice.
* :func:`fold` folds each partition's read set up to ``upto``, the
  highest complete id with no unmarked ``inc`` file at or below it,
  into ``compact<upto>`` (tmp -> rename, then delete the sources), and
  then persists the watermark that makes ingest refuse
  ``inc_id <= upto``: a rerun below the horizon would land in a
  shadowed file.  ``compact`` is a name no increment can produce, so a
  rerun never overwrites folded history.
* Writes pick their tier from size alone, too, against the one driver
  budget (``collect.fits``), and each tier runs the same per-partition
  function.  An increment whose input (materialized once, sized from
  block metadata) fits eight times over is mapped, sorted by partition
  and written slice by slice in the driver; above it one
  ``groupby(part).map_groups`` exchange writes the partitions.  A fold
  whose partition files (``os.stat``) fit folds its partitions in a
  driver loop; above it, in one Ray task each.
* Tombstones follow the same marker-last rule; the fold's ``reduce``
  hook (:func:`purge`) is where tombstoned rows stop existing on disk.
  The purge and :func:`driver_read` share one tombstone reader.
* Probes pick their tier from the on-disk size of what they open,
  alone: :func:`driver_read` sums the ``os.stat`` sizes of a read set
  plus the marker-complete tombstone files, and when those Parquet
  bytes fit the budget returns the read set as one driver table with
  tombstoned ids already dropped (no Ray Data plan);
  above it, it returns None and the probe builds its exchange plan.

Single writer: ingests, deletes and folds run one at a time."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .collect import collect, fits, to_dataset

__all__ = ["atomic_write", "atomic_json", "complete_increments",
           "write_marker", "read_marker", "increment_ids", "unmark",
           "remove_increment", "inc_file", "write_increment", "read_set",
           "watermark", "check_watermark", "check_as_of", "delete_files",
           "write_tombstones", "driver_read", "typed_result", "purge", "fold"]


def atomic_write(path: str, write_fn) -> None:
    write_fn(path + ".tmp")
    os.replace(path + ".tmp", path)


def atomic_json(path: str, obj) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(path + ".tmp", path)


def _num(path: str, prefix: str) -> int:
    """The id in ``<prefix><id>.<ext>``."""
    return int(os.path.basename(path)[len(prefix):].split(".", 1)[0])


def complete_increments(store_dir: str) -> list[int]:
    """Increment ids whose completeness marker is on disk, ascending."""
    return sorted(_num(f, "_done_inc") for f in
                  glob.glob(os.path.join(store_dir, "_done_inc*.json")))


def _marker(store_dir: str, inc_id: int) -> str:
    return os.path.join(store_dir, f"_done_inc{inc_id}.json")


def write_marker(store_dir: str, inc_id: int, info: dict) -> None:
    """Mark increment ``inc_id`` complete — an ingest's LAST write."""
    atomic_json(_marker(store_dir, inc_id), info)


def read_marker(store_dir: str, inc_id: int) -> dict | None:
    """The info increment ``inc_id``'s marker holds (None: unmarked)."""
    try:
        with open(_marker(store_dir, inc_id)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def increment_ids(store_dir: str, part_glob: str) -> set[int]:
    """Ids of the increments with a marker or a ``part_glob`` partition
    file on disk (complete, or left unmarked by a crash)."""
    return set(complete_increments(store_dir)).union(
        _num(f, "inc") for f in
        glob.glob(os.path.join(store_dir, part_glob, "inc*.*")))


def unmark(store_dir: str, inc_id: int) -> None:
    """Remove increment ``inc_id``'s marker: the increment stops
    existing, and its files wait for a rerun to overwrite them."""
    if os.path.exists(_marker(store_dir, inc_id)):
        os.remove(_marker(store_dir, inc_id))


def remove_increment(store_dir: str, part_glob: str, inc_id: int) -> None:
    """Remove increment ``inc_id``: its marker first, then its
    partition files."""
    unmark(store_dir, inc_id)
    for f in glob.glob(os.path.join(store_dir, part_glob, f"inc{inc_id}.*")):
        os.remove(f)


def inc_file(store_dir: str, part_name: str, k, inc_id: int) -> str:
    """The one name of increment ``inc_id``'s file in partition
    ``<part_name>=<k>``."""
    return os.path.join(store_dir, f"{part_name}={k}", f"inc{inc_id}.parquet")


def write_increment(ds, store_dir: str, inc_id: int, part_col: str,
                    part_name: str, fn, reduce=None,
                    info=None) -> pa.Table:
    """Write increment ``inc_id`` of ``ds`` mapped by the block kernel
    ``fn``, partitioned by the int column ``part_col`` that ``fn``
    adds: one ``<part_name>=<k>/inc<id>.parquet`` per value ``k``,
    without ``part_col`` and mapped by ``reduce`` first.  Refuses an
    ``inc_id`` at or below the watermark, and removes the increment's
    marker and files before writing, so a rerun leaves exactly what a
    clean write leaves.  The input is materialized once and sized from
    block metadata: when eight times its bytes fit the driver budget,
    ``fn`` runs once over the collected table and the driver writes its
    sorted
    per-partition slices; above it, ``fn`` runs per block and one
    ``groupby(part).map_groups`` exchange writes the partitions.  Both
    tiers write with the same ``_one``, and ``fn`` must map each row
    independently of its block.  Returns the ``(part_col, n_rows)``
    stats of the written files; the marker, written last, holds
    ``parts``, ``rows`` and whatever ``info(stats)`` adds, and ``info``
    runs after every partition file is in place."""
    os.makedirs(store_dir, exist_ok=True)
    check_watermark(store_dir, inc_id)
    remove_increment(store_dir, f"{part_name}=*", inc_id)
    empty = pa.table({part_col: pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64())})

    def _one(g: pa.Table) -> pa.Table:
        if g.num_columns == 0 or g.num_rows == 0:
            return empty
        k = int(g.column(part_col)[0].as_py())
        out = g.drop_columns([part_col])
        if reduce is not None:
            out = reduce(out)
        path = inc_file(store_dir, part_name, k, inc_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, lambda p: pq.write_table(out, p))
        return pa.table({part_col: pa.array([k], pa.int64()),
                         "n_rows": pa.array([out.num_rows], pa.int64())})

    ds = ds.materialize()
    # text postings take ~9x their input (604,596 B of docs gave
    # 5,444,162 B of postings)
    if fits(8 * (ds.size_bytes() or 0)):
        _, tbl = collect(ds)
        slices = []
        if tbl.num_rows:
            # stable sort: a partition's rows keep their input order
            tbl = fn(tbl).sort_by(part_col)
            keys = tbl.column(part_col).to_numpy()
            cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1),
                    len(keys)]
            slices = [tbl.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
        stats = pa.concat_tables([empty, *map(_one, slices)])
    else:
        _, stats = collect(ds.map_batches(
            fn, batch_format="pyarrow", batch_size=None).groupby(
            part_col).map_groups(_one, batch_format="pyarrow"))
    stats = (stats if stats.num_columns else empty).sort_by(part_col)
    write_marker(store_dir, inc_id, {
        "parts": stats.num_rows,
        "rows": int(pc.sum(stats.column("n_rows")).as_py() or 0),
        **(info(stats) if info is not None else {})})
    return stats


def read_set(store_dir: str, pdirs, as_of: int | None = None,
             exclude: int | None = None, done=None) -> list[str]:
    """The files a reader opens in each of ``pdirs``: the highest
    ``compact<u>`` plus the marker-complete ``inc<i>`` with
    ``u < i <= as_of`` (and ``i != exclude``).  ``done`` is the
    complete-increment set; without it the markers are globbed once."""
    done = set(complete_increments(store_dir) if done is None else done)
    out = []
    for pdir in pdirs:
        u = max((_num(f, "compact") for f in
                 glob.glob(os.path.join(pdir, "compact*.parquet"))),
                default=-1)
        if u >= 0:
            out.append(os.path.join(pdir, f"compact{u}.parquet"))
        out.extend(os.path.join(pdir, f"inc{i}.parquet") for i in sorted(
            _num(f, "inc")
            for f in glob.glob(os.path.join(pdir, "inc*.parquet")))
            if u < i and i in done and i != exclude
            and (as_of is None or i <= as_of))
    return out


def watermark(store_dir: str) -> int:
    """Highest increment id folded into compact files (-1 = none)."""
    p = os.path.join(store_dir, "_compact.json")
    if not os.path.exists(p):
        return -1
    with open(p) as f:
        return int(json.load(f)["upto"])


def check_watermark(store_dir: str, inc_id: int) -> None:
    """Refuse an ingest at/below the compaction horizon: its files
    would be shadowed by the compact files that already hold the
    increment.  Only marker-complete increments below the lowest
    unmarked one are folded, so with one writer ingesting in order the
    rerun of a crashed increment is never refused."""
    wm = watermark(store_dir)
    if inc_id <= wm:
        raise ValueError(
            f"inc_id {inc_id} <= compaction watermark {wm}: the "
            "increment is already folded into reserved compact files; "
            "a rerun's files would be shadowed by them.")


def check_as_of(store_dir: str, as_of: int | None) -> None:
    """Refuse a snapshot read below the compaction watermark: those
    increments are irreversibly folded into compact files, so the
    snapshot no longer exists on disk."""
    if as_of is None:
        return
    wm = watermark(store_dir)
    if wm > as_of:
        raise ValueError(
            f"as_of={as_of} is below the compaction watermark {wm}: "
            "increments up to the watermark are irreversibly folded "
            "into compact files, so that snapshot no longer exists on "
            "disk.  Compact less often (or keep a store copy) if you "
            "need deeper time travel.")


def delete_files(store_dir: str, exclude: int | None = None) -> list[str]:
    """Marker-complete tombstone files (a del file without its marker
    is invisible, exactly like an unmarked ingest)."""
    ddir = os.path.join(store_dir, "_deletes")
    return sorted(
        p for p in (os.path.join(ddir, f"del{_num(f, '_done_del')}.parquet")
                    for f in glob.glob(os.path.join(ddir, "_done_del*.json"))
                    if _num(f, "_done_del") != exclude)
        if os.path.exists(p))


def write_tombstones(store_dir: str, del_id: int, ids: pa.Table,
                     info: dict) -> None:
    """Persist one delete batch: the id file, then its marker LAST."""
    ddir = os.path.join(store_dir, "_deletes")
    os.makedirs(ddir, exist_ok=True)
    atomic_write(os.path.join(ddir, f"del{del_id}.parquet"),
                 lambda p: pq.write_table(ids, p))
    atomic_json(os.path.join(ddir, f"_done_del{del_id}.json"), info)


def _drop_tombstoned(tbl: pa.Table, files: list[str],
                     id_col: str) -> pa.Table:
    """``tbl`` without the rows whose ``id_col`` one of the tombstone
    ``files`` holds: the store core's one tombstone reader."""
    ids = pq.read_table(files, columns=[id_col],
                        partitioning=None).column(id_col)
    return tbl.filter(pc.invert(pc.is_in(
        tbl.column(id_col), value_set=ids.combine_chunks())))


def driver_read(store_dir: str, files: list[str], columns: list[str],
                id_col: str, exclude: int | None = None) -> pa.Table | None:
    """The driver tier of a store read: ``files`` (a non-empty read set)
    concatenated into one table of ``columns``, without the rows whose
    ``id_col`` a marker-complete tombstone (other than ``exclude``)
    holds.  None when the read set plus those tombstone files do not
    fit the driver budget on disk; the sizes come from ``os.stat``
    alone, so the tier is chosen before anything is read."""
    dels = delete_files(store_dir, exclude=exclude)
    if not fits(*(os.stat(f).st_size for f in files + dels)):
        return None
    # partitioning=None: the partition key (``term=``, ``cell=``) is a
    # data column too, so a Hive read would merge it with the path's
    tbl = pq.read_table(files, columns=columns, partitioning=None)
    return _drop_tombstoned(tbl, dels, id_col) if dels else tbl


def typed_result(ds, empty: pa.Table):
    """An exchange-tier probe answer that keeps its schema when empty:
    Ray drops the schema of an all-empty result, so the plan is
    materialized here and an empty answer becomes ``empty``."""
    ds = ds.materialize()
    return ds if ds.count() else to_dataset(empty)


def purge(store_dir: str, id_col: str):
    """The fold's tombstone purge: a ``reduce`` dropping every row whose
    ``id_col`` is in a marker-complete tombstone file, or None when
    there is none.  Each partition re-reads the tombstone files (deletes
    are small next to the corpus)."""
    files = delete_files(store_dir)
    if not files:
        return None

    def _purge(tbl: pa.Table) -> pa.Table:
        return _drop_tombstoned(tbl, files, id_col)
    return _purge


def fold(store_dir: str, part_glob: str, reduce=None,
         cap: int | None = None) -> dict:
    """Compact every ``part_glob`` partition: its read set up to
    ``upto`` becomes one ``compact<upto>.parquet`` (``reduce`` maps the
    concatenated table first; ``cap``, when given, bounds ``upto`` from
    above), written tmp -> rename; then the sources and shadowed
    leftovers are deleted, and the watermark is written last.  When the
    partition files (``os.stat`` sizes) fit the driver budget the
    partitions fold in a driver loop, above it in one Ray task each
    (``reduce`` is pickled to them); both run the same ``_one``.  A
    crash anywhere leaves every read set answering as before; rerunning
    the fold finishes the job."""
    wm = watermark(store_dir)
    done = set(complete_increments(store_dir))
    # the lowest increment with files but no marker (a crashed ingest
    # awaiting its rerun) caps the fold below it
    gap = min((i for i in (_num(f, "inc") for f in glob.glob(
        os.path.join(store_dir, part_glob, "inc*.parquet")))
        if i > wm and i not in done), default=float("inf"))
    upto = max([wm] + [i for i in done
                       if i < gap and (cap is None or i <= cap)])
    if upto < 0:
        return {"files_in": 0, "files_out": 0, "upto": wm}

    def _one(pdir: str) -> tuple:
        src = read_set(store_dir, [pdir], as_of=upto, done=done)
        # shadowed leftovers: older compact files and inc files at or
        # below the new horizon that the read set skipped
        stale = [f for f in glob.glob(os.path.join(pdir, "compact*.parquet"))
                 if f not in src] + [
                 f for f in glob.glob(os.path.join(pdir, "inc*.parquet"))
                 if f not in src and _num(f, "inc") <= upto]
        cf = os.path.join(pdir, f"compact{upto}.parquet")
        if src and (reduce is not None or src != [cf]):
            tbl = pa.concat_tables([pq.read_table(f) for f in src])
            if reduce is not None:
                tbl = reduce(tbl)
            atomic_write(cf, lambda p: pq.write_table(tbl, p))
        for f in src + stale:
            if f != cf:
                os.remove(f)
        return (len(src) + len(stale), int(bool(src)))

    pdirs = sorted(glob.glob(os.path.join(store_dir, part_glob)))
    if fits(*(os.stat(f).st_size for d in pdirs
              for f in glob.glob(os.path.join(d, "*.parquet")))):
        res = [_one(d) for d in pdirs]
    else:
        import ray

        task = ray.remote(_one)
        res = ray.get([task.remote(d) for d in pdirs])
    atomic_json(os.path.join(store_dir, "_compact.json"), {"upto": upto})
    return {"files_in": sum(r[0] for r in res),
            "files_out": sum(r[1] for r in res), "upto": upto}
