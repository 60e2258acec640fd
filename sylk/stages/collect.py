"""The one driver gather: bring a small Dataset to the driver as one
Arrow table.

Every operator that moves rows to the driver (a tier decision, a
vocabulary-sized partial merge, a broadcast side) goes through
:func:`collect`, because the obvious spellings trip over three quirks of
the installed Ray Data (2.49):

* **Double execution.**  ``to_arrow_refs()`` on a plan that is not
  materialized runs the plan a second time (a ``limit=1`` pass) to read
  its schema, so a ``map_batches(f)`` upstream calls ``f`` twice per
  block; ``count()`` followed by another consumer (``unique()``, a
  block read) runs it again too.  ``collect`` materializes once and
  reads the count, the schema and the blocks from that one result.
* **Schemaless blocks.**  Empty blocks (from filters, joins and
  ``map_groups``) can arrive with zero columns, which ``concat_tables``
  rejects against typed blocks; they are dropped.  So are 0-row blocks
  when any block has rows: they add nothing but a schema, and that one
  can be stale (``select_columns`` over an aggregate leaves its 0-row
  blocks unprojected).
* **Pandas blocks.**  Blocks of a stage that emits
  ``batch_format="pandas"`` can come back as pandas frames; they are
  converted.
"""

from __future__ import annotations

import pyarrow as pa


def collect(ds, limit: int | None = None):
    """Materialize ``ds`` once and return ``(materialized_ds, table)``.

    ``table`` is the whole dataset as one Arrow table, or ``None`` when
    the row count (read from block metadata) is above ``limit``: the
    driver never holds rows it is about to reject, and the caller's
    exchange tier runs on ``materialized_ds`` without recomputing it.
    An empty result is typed from the materialized schema (``pa.table({})``
    when there is none)."""
    import ray

    mds = ds.materialize()
    if limit is not None and mds.count() > limit:
        return mds, None
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(mds.to_arrow_refs())]
    blocks = [b for b in blocks if b.num_columns > 0]
    if any(b.num_rows for b in blocks):
        return mds, pa.concat_tables([b for b in blocks if b.num_rows])
    if blocks:
        return mds, blocks[0]
    schema = mds.schema()
    if schema is None:
        return mds, pa.table({})
    return mds, pa.Table.from_pydict(
        {f.name: pa.array([], f.type) for f in schema.base_schema})
