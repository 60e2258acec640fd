"""The one store core: layout, completeness markers, read set,
watermark, tombstones and compaction fold, shared by every increment
store (dedup_store's exact and near-dup stores, upsert_store,
ann_store, text_index).

Layout::

    store_dir/<part>=<k>/inc<id>.parquet       # deterministic names
    store_dir/<part>=<k>/compact<upto>.parquet # reserved fold names
    store_dir/_done_inc<id>.json               # completeness marker
    store_dir/_compact.json                    # compaction watermark
    store_dir/_deletes/del<id>.parquet         # tombstoned ids
    store_dir/_deletes/_done_del<id>.json      # tombstone marker

Contract:

* An increment writes its partition files tmp -> rename under
  deterministic (partition, inc_id) names, so a rerun overwrites its
  own partial work, and writes its ``_done_inc<id>`` marker LAST.  An
  increment without its marker does not exist: no read set holds it
  and no fold consumes it.
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
* Tombstones follow the same marker-last rule; the fold's ``reduce``
  hook (:func:`purge`) is where tombstoned rows stop existing on disk.
  The purge and :func:`driver_read` share one tombstone reader.
* Probes pick their tier from the on-disk size of what they open,
  alone: :func:`driver_read` sums the ``os.stat`` sizes of a read set
  plus the marker-complete tombstone files, and up to
  ``_DRIVER_READ_LIMIT`` bytes of Parquet returns the read set as one
  driver table with tombstoned ids already dropped (no Ray Data plan);
  above it, it returns None and the probe builds its exchange plan.

Single writer: ingests, deletes and folds run one at a time."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

__all__ = ["atomic_write", "atomic_json", "complete_increments",
           "write_marker", "read_marker", "increment_ids", "unmark",
           "remove_increment", "read_set", "watermark", "check_watermark",
           "check_as_of", "delete_files", "write_tombstones",
           "driver_read", "typed_result", "purge", "fold"]

# bytes of Parquet (read set + tombstones) up to which a probe reads its
# files in the driver; the full-size benchmark stores hold 2-6 MB
_DRIVER_READ_LIMIT = 64 << 20


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
    holds.  None when the read set plus those tombstone files exceed
    ``_DRIVER_READ_LIMIT`` bytes on disk; the sizes come from
    ``os.stat`` alone, so the tier is chosen before anything is read."""
    dels = delete_files(store_dir, exclude=exclude)
    if sum(os.stat(f).st_size for f in files + dels) > _DRIVER_READ_LIMIT:
        return None
    # partitioning=None: the partition key (``term=``, ``cell=``) is a
    # data column too, so a Hive read would merge it with the path's
    tbl = pq.read_table(files, columns=columns, partitioning=None)
    return _drop_tombstoned(tbl, dels, id_col) if dels else tbl


def typed_result(ds, empty: pa.Table):
    """An exchange-tier probe answer that keeps its schema when empty:
    Ray drops the schema of an all-empty result, so the plan is
    materialized here and an empty answer becomes ``empty``."""
    import ray.data

    ds = ds.materialize()
    return ds if ds.count() else ray.data.from_arrow(empty)


def purge(store_dir: str, id_col: str):
    """The fold's tombstone purge: a ``reduce`` dropping every row whose
    ``id_col`` is in a marker-complete tombstone file, or None when
    there is none.  Each partition task re-reads the tombstone files
    (deletes are small next to the corpus)."""
    files = delete_files(store_dir)
    if not files:
        return None

    def _purge(tbl: pa.Table) -> pa.Table:
        return _drop_tombstoned(tbl, files, id_col)
    return _purge


def fold(store_dir: str, part_glob: str, reduce=None,
         cap: int | None = None) -> dict:
    """Compact every ``part_glob`` partition: its read set up to
    ``upto`` becomes one ``compact<upto>.parquet`` (``reduce``, pickled
    to the per-partition tasks, maps the concatenated table first;
    ``cap``, when given, bounds ``upto`` from above),
    written tmp -> rename; then the sources and shadowed leftovers are
    deleted, and the watermark is written last.  A crash anywhere
    leaves every read set answering as before; rerunning the fold
    finishes the job."""
    import ray

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

    @ray.remote
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

    res = ray.get([_one.remote(d) for d in
                   sorted(glob.glob(os.path.join(store_dir, part_glob)))])
    atomic_json(os.path.join(store_dir, "_compact.json"), {"upto": upto})
    return {"files_in": sum(r[0] for r in res),
            "files_out": sum(r[1] for r in res), "upto": upto}
