"""Enrich stage: facility/severity name lookup.

Mirrors the reference's enum->string surface (facility.rs:87-114
``as_str``, severity.rs:57-68) as a cached lookup: the 24+8 name
tables are built ONCE per worker process (``Enricher.__init__``, held
by :func:`enrich_batch`) and applied per batch with
``pyarrow.compute.take`` (null indices propagate nulls, so failed rows
keep null names).  Usage::

    ds.map_batches(enrich_batch, batch_format="pyarrow", batch_size=None)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.reference_semantics import FACILITY_NAMES, SEVERITY_NAMES


class Enricher:
    def __init__(self):
        self._fac_names = pa.array(FACILITY_NAMES, pa.string())
        self._sev_names = pa.array(SEVERITY_NAMES, pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        fac = batch.column("facility")
        sev = batch.column("severity")
        batch = batch.append_column(
            "facility_name", pc.take(self._fac_names, fac)
        )
        batch = batch.append_column(
            "severity_name", pc.take(self._sev_names, sev)
        )
        return batch


_WORKER_ENRICHER: Enricher | None = None


def enrich_batch(batch: pa.Table) -> pa.Table:
    """Task variant with a per-worker-process cached lookup.

    Measured (1.5M rows, 32 cpus, local): the task form runs the whole
    parse->enrich->aggregate pipeline ~4x faster than the actor-pool
    form, because Ray fuses adjacent map stages into one task chain and
    reuses WARM worker processes across Dataset executions, while an
    actor pool pays fresh process spawn + imports per execution.  The
    module-level cache gives the same build-state-once-per-worker
    semantics an actor ``__init__`` would."""
    global _WORKER_ENRICHER
    if _WORKER_ENRICHER is None:
        _WORKER_ENRICHER = Enricher()
    return _WORKER_ENRICHER(batch)
