"""Expected outputs, and the comparisons the correctness gate runs.

Transcript counts come from ``reference_semantics.parse_line`` (the
quirk-exact port of the reference parser), one file at a time, so a
follow run can sum the files it has landed.  Store probe answers come
from ``text.bm25_scores`` and ``similarity.ann_topk_bruteforce`` over
the live documents, and from plain Python token scans for the AND and
phrase probes.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_ROW_KEY = ["turn_idx", "conv_id", "text"]


def transcript_file_counts(path: str) -> dict:
    """Per-sink, per-reject-variant and host/app counts of one file."""
    from sylk.functions.reference_semantics import parse_line

    sinks: dict = {}
    rejects: dict = {}
    hostapp: dict = {}
    texts = pq.read_table(path, columns=["text"]).column("text").to_pylist()
    for line in texts:
        rec = parse_line(line)
        if rec["ok"]:
            k = f"{rec['facility']}/{rec['severity']}"
            sinks[k] = sinks.get(k, 0) + 1
            # null keys count under "", as the pipeline's aggregates fill them
            ha = f"{rec['hostname'] or ''}\x1f{rec['appname'] or ''}"
            hostapp[ha] = hostapp.get(ha, 0) + 1
        else:
            rejects[rec["error"]] = rejects.get(rec["error"], 0) + 1
    return {"rows": len(texts), "ok": sum(sinks.values()), "sinks": sinks,
            "rejects": rejects, "hostapp": hostapp}


def sum_counts(parts: list[dict]) -> dict:
    out = {"rows": 0, "ok": 0, "sinks": {}, "rejects": {}, "hostapp": {}}
    for p in parts:
        out["rows"] += p["rows"]
        out["ok"] += p["ok"]
        for key in ("sinks", "rejects", "hostapp"):
            for k, n in p[key].items():
                out[key][k] = out[key].get(k, 0) + n
    return out


def from_flagship(summary: dict) -> dict:
    """``run_flagship``'s summary in the oracle's shape."""
    return {
        "rows": int(summary["rows"]), "ok": int(summary["parse_ok"]),
        "sinks": {f"{f}/{s}": int(n)
                  for (f, s), n in summary["sink_counts"].items()},
        "rejects": {k: int(n) for k, n in summary["reject_by_error"].items()},
        "hostapp": {f"{h}\x1f{a}": int(n)
                    for (h, a), n in summary["host_app_histogram"].items()},
    }


def from_rollups(sink, rej, hostapp) -> dict:
    """``rollups_from_combined``'s three frames in the oracle's shape."""
    sinks = {f"{int(f)}/{int(s)}": int(n)
             for f, s, n in zip(sink.facility, sink.severity, sink.n)}
    rejects = {str(e): int(n) for e, n in zip(rej.error, rej.n)}
    ha = {f"{h}\x1f{a}": int(n)
          for h, a, n in zip(hostapp.hostname, hostapp.appname, hostapp.n)}
    return {"rows": sum(sinks.values()) + sum(rejects.values()),
            "ok": sum(sinks.values()), "sinks": sinks, "rejects": rejects,
            "hostapp": ha}


def diff_counts(got: dict, want: dict) -> str | None:
    """None when equal, else a one-line description of the first
    difference."""
    for key in ("rows", "ok"):
        if got[key] != want[key]:
            return f"{key}: got {got[key]}, want {want[key]}"
    for key in ("sinks", "rejects", "hostapp"):
        g, w = got[key], want[key]
        if g != w:
            bad = sorted(k for k in set(g) | set(w) if g.get(k) != w.get(k))
            k = bad[0]
            return (f"{key}[{k!r}]: got {g.get(k)}, want {w.get(k)}"
                    f" ({len(bad)} keys differ)")
    return None


def _row_table(paths: list[str]) -> pa.Table:
    parts = [pq.read_table(p, columns=_ROW_KEY) for p in paths]
    t = pa.concat_tables(
        [pa.table({"turn_idx": p.column("turn_idx").cast(pa.int64()),
                   "conv_id": p.column("conv_id").cast(pa.string()),
                   "text": p.column("text").cast(pa.string())})
         for p in parts])
    return t.take(pc.sort_indices(t, [(c, "ascending") for c in _ROW_KEY]))


def routed_files(out_dir: str) -> set[str]:
    """Every routed Parquet file under a run_flagship output directory."""
    return set(glob.glob(os.path.join(out_dir, "data", "**", "*.parquet"),
                         recursive=True))


def routed_rows_diff(out_dir: str, input_paths: list[str]) -> str | None:
    """None when the multiset of (conv_id, turn_idx, text) read back from
    every routed sink under ``out_dir`` equals the input's."""
    files = sorted(routed_files(out_dir))
    if not files:
        return "no routed files"
    got = _row_table(files).combine_chunks()
    want = _row_table(input_paths).combine_chunks()
    if got.num_rows != want.num_rows:
        return f"routed rows: got {got.num_rows}, want {want.num_rows}"
    if not got.equals(want):
        return "routed rows differ from the input rows"
    return None


# ---------------------------------------------------------------- stores

def bm25_top(docs: pa.Table, terms: list[str], k: int = 10) -> list:
    import ray.data

    from sylk.stages.text import bm25_scores

    df = bm25_scores(ray.data.from_arrow(docs), terms).to_pandas()
    # a doc scores > 0 exactly when it holds a query term, which is the
    # set the index probe returns
    return sort_bm25([(d, s) for d, s in zip(df.doc_id, df.bm25) if s > 0])[:k]


def sort_bm25(rows) -> list:
    out = [[int(d), float(s)] for d, s in rows]
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


def _token_lists(docs: pa.Table):
    return zip(docs.column("doc_id").to_pylist(),
               (t.split() for t in docs.column("text").to_pylist()))


def and_docs(docs: pa.Table, terms: list[str]) -> list[int]:
    need = set(terms)
    return sorted(d for d, toks in _token_lists(docs) if need <= set(toks))


def phrase_docs(docs: pa.Table, phrase: list[str]) -> list[int]:
    n = len(phrase)
    return sorted(d for d, toks in _token_lists(docs)
                  if any(toks[i:i + n] == phrase
                         for i in range(len(toks) - n + 1)))


def ann_top(embs: pa.Table, queries, k: int = 10) -> list:
    import ray.data

    from sylk.stages.similarity import ann_topk_bruteforce

    return sort_ann(ann_topk_bruteforce(
        ray.data.from_arrow(embs), np.asarray(queries, dtype=np.float64),
        k=k).take_all())


def sort_ann(rows) -> list:
    out = [[int(r["query_idx"]), int(r["vec_id"]), float(r["cosine"])]
           for r in rows]
    out.sort(key=lambda r: (r[0], -r[2], r[1]))
    return out
