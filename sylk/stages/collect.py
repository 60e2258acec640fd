"""The one driver gather, its inverse and the one driver budget.

Every tiered operator picks its driver or exchange tier by one rule:
its input fits in the driver when :func:`fits` its bytes, in-memory
bytes from block metadata (``size_bytes()``) or Parquet bytes on disk
(``os.stat``), against ``DRIVER_BUDGET`` (64 MiB).  Row counts decide no
tier: at 8-322 B per row a row limit lets wide rows fill the driver.
``fits`` reads the budget when it is called, so tests reach every
exchange tier by setting ``DRIVER_BUDGET`` to -1 (``scale_tier`` in
tests/conftest.py).

Every operator that moves rows to the driver (a tier decision, a
vocabulary-sized partial merge, a broadcast side) goes through
:func:`collect`, because the obvious spellings trip over three quirks of
the installed Ray Data (2.49):

* **Double execution.**  ``to_arrow_refs()`` on a plan that is not
  materialized runs the plan a second time (a ``limit=1`` pass) to read
  its schema, so a ``map_batches(f)`` upstream calls ``f`` twice per
  block; ``count()`` followed by another consumer (``unique()``, a
  block read) runs it again too.  ``collect`` materializes once and
  reads the size, the schema and the blocks from that one result.
* **Schemaless blocks.**  Empty blocks (from filters, joins and
  ``map_groups``) can arrive with zero columns, which ``concat_tables``
  rejects against typed blocks; they are dropped.  So are 0-row blocks
  when any block has rows: they add nothing but a schema, and that one
  can be stale (``select_columns`` over an aggregate leaves its 0-row
  blocks unprojected).
* **Pandas blocks.**  Blocks of a stage that emits
  ``batch_format="pandas"`` can come back as pandas frames; they are
  converted.  Such a block's all-null column arrives typed ``null``,
  and the concatenation promotes it to the other blocks' type.

The way back is :func:`to_dataset`: every driver-held result (a probe
answer, a driver tier's output, a typed empty) becomes a Dataset
through it.  Measured on 4 CPUs: ``ray.data.from_arrow`` on a driver
table costs a remote metadata task the driver waits for (6-7 ms), and
the caller's first consumer then starts a streaming executor (20-22
ms, a 10 ms poll sleep included): a 10-row answer took 25.7-26.7 ms
to hand back and read with ``take_all``.  ``ray.data.from_blocks``
computes the block metadata in the driver, and ``materialize`` of that
source-only plan sets its snapshot without an executor, so
``take_all``, ``to_pandas`` and ``iter_rows`` read the blocks
directly: 10.7-11.3 ms for the same answer.  A result that feeds
another map costs what it did (42-44 ms against 41-43 ms for
``from_arrow`` + ``map_batches`` + ``take_all``).
"""

from __future__ import annotations

import pyarrow as pa

# bytes a driver tier may hold: every full-size benchmark unit and store
# fits (a flagship unit of 28,800 rows is 8.8 MB, stores hold 2-6 MB)
DRIVER_BUDGET = 64 << 20


def fits(*nbytes) -> bool:
    """True when the summed ``nbytes`` fit in the driver budget.  A
    ``None`` (``size_bytes()`` of a plan that produced no block) counts
    as 0 bytes."""
    return sum(n or 0 for n in nbytes) <= DRIVER_BUDGET


def collect(ds, tiered: bool = False):
    """Materialize ``ds`` once and return ``(materialized_ds, table)``.

    ``table`` is the whole dataset as one Arrow table.  With ``tiered``
    it is ``None`` when the in-memory bytes (block metadata) do not
    :func:`fit <fits>`: the driver never holds rows it is about to
    reject, and the caller's exchange tier runs on ``materialized_ds``
    without recomputing it.  An empty result is typed from the
    materialized schema (``pa.table({})`` when there is none)."""
    import ray

    mds = ds.materialize()
    if tiered and not fits(mds.size_bytes()):
        return mds, None
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(mds.to_arrow_refs())]
    blocks = [b for b in blocks if b.num_columns > 0]
    if any(b.num_rows for b in blocks):
        return mds, pa.concat_tables([b for b in blocks if b.num_rows],
                                     promote_options="default")
    if blocks:
        return mds, blocks[0]
    schema = mds.schema()
    if schema is None:
        return mds, pa.table({})
    return mds, pa.Table.from_pydict(
        {f.name: pa.array([], f.type) for f in schema.base_schema})


def to_dataset(tables):
    """The inverse of :func:`collect`: a materialized Dataset over the
    driver-held ``tables`` (one Arrow table, or a list of them, one
    block each, so a caller's block count survives).  An empty table
    keeps its schema."""
    import ray.data

    if isinstance(tables, pa.Table):
        tables = [tables]
    return ray.data.from_blocks(list(tables)).materialize()
