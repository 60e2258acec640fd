"""Checkpoint / resume manifest: per-partition lineage + metrics.

A pipeline run over N input shards is driven as a sequence of partition
units (one or more input files each).  After a unit's outputs are fully
written, one JSON line is appended to ``manifest.jsonl``:

    {"partition_id": "u00000", "committed_at": <unix s>,
     "input_files": [...], "rows": <int>, "parse_ok": <int>,
     "sink_counts": {"<facility>/<severity>": <int>, ...},
     "reject_by_error": {"<ParseErr variant>": <int>, ...},
     "host_app": [[<hostname>, <appname>, <int>], ...],
     "wall_s": <float>}

``rows`` counts every input row of the unit and ``parse_ok`` its
accepted rows.  ``sink_counts`` keys are the numeric facility/severity
ids of the routed ok rows; ``reject_by_error`` counts the failed rows
per variant; ``host_app`` counts the ok rows per (hostname, appname),
with a nil term as "".  All three come from the routed write itself,
and a run's rollups merge them across its units' lines.  A line without
``host_app`` (written by an older version) counts as not committed: its
unit re-runs.

Unit ``u<n>`` writes its routed rows as increment ``<n>`` of the
``store_fold`` store ``<out>/data``, then its ``_done_inc<n>.json``
marker (holding the same ``input_files``), then this line: appending
the line is the commit point, and a unit is committed when its line and
marker name the same input files.  A resumed run skips every committed
partition, so a crash mid-partition re-processes only that partition
(its increment files are overwritten by name — idempotent retry).  This
is the lineage/metrics design the north rule requires; the reference
itself keeps no state at all (single-shot library, lib.rs:13-25).
"""

from __future__ import annotations

import json
import os
import threading
import time


class Manifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.jsonl")
        self._lock = threading.Lock()  # concurrent units commit safely
        os.makedirs(out_dir, exist_ok=True)

    def completed(self) -> dict[str, dict]:
        done = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    done[rec["partition_id"]] = rec
        return done

    def commit(self, partition_id: str, **fields) -> dict:
        rec = {"partition_id": partition_id, "committed_at": time.time(), **fields}
        # locked single-line append; the line is the atomic commit point
        with self._lock, open(self.path, "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())
        return rec
