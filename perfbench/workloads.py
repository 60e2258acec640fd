"""The four workloads.  Each drives sylk only through public entry
points, one closed-loop client: the next operation starts when the
previous one returns.

A workload is a plan (``steps``) of operations for the timed window,
plus the set-up around it and the correctness check after it:

* ``prepare``  seeded inputs (cached, untimed);
* ``warm``     one untimed warm-up execution: a full-size operation,
               because the first one in a session runs up to twice as long;
* ``build``    the starting state, in fresh directories (timed, it is
               part of ``setup_s``);
* ``steps``    yields ``(kind, fn)``; ``fn(tracer)`` runs one operation
               and returns ``(rows, payload)``;
* ``phase``    the state the next operation runs in, or None when the
               workload has one state only;
* ``check``    compares every operation's output with the oracle.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import inputs as inp
from . import oracle as orc
from .trace import NullTracer

_NULL = NullTracer()


@dataclass
class Op:
    kind: str
    wall: float
    rows: int
    traced: bool
    root: int | None = None  # root span index when traced
    payload: dict = field(default_factory=dict)
    error: str | None = None
    session: int = 0
    phase: int | None = None  # the workload's state when the op ran


@dataclass
class Ctx:
    work: str  # this run's scratch directory
    cache: str  # input/oracle cache directory
    seed: int
    scale_name: str
    scale: inp.Scale
    seconds: float  # one session's share of the window
    traced: bool = False  # a --trace 1 run


def _run_remote_counts(paths: list[str]) -> list[dict]:
    """Oracle counts of each file, one Ray task per file."""
    import ray

    task = ray.remote(orc.transcript_file_counts)
    return ray.get([task.remote(p) for p in paths])


def _file_oracle(ctx: Ctx, files: list[str]) -> dict[str, dict]:
    """Per-file oracle counts, cached beside the inputs."""
    path = os.path.join(os.path.dirname(files[0]),
                        f"oracle-{inp.oracle_hash()}.json")
    cached = inp.load_json(path) or {}
    todo = [f for f in files if os.path.basename(f) not in cached]
    if todo:
        for f, counts in zip(todo, _run_remote_counts(todo)):
            cached[os.path.basename(f)] = counts
        inp.save_json(path, cached)
    return {f: cached[os.path.basename(f)] for f in files}


def text_bytes(files: list[str]) -> int:
    """Summed UTF-8 bytes of the ``text`` column of ``files``."""
    return sum(int(pc.sum(pc.binary_length(
        pq.read_table(f, columns=["text"]).column("text"))).as_py())
        for f in files)


class Workload:
    name = ""
    why = ""
    rows_label = "rows_per_s"
    op_label = ""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx

    def prepare(self) -> None: ...

    def warm(self) -> None: ...

    def build(self, k: int):
        return None

    def phase(self) -> int | None:
        return None

    def check(self, ops: list[Op]) -> list[tuple[int, str]]:
        return []

    def kernel_files(self, ops: list[Op]) -> list[str]:
        return []

    def _dir(self, name: str) -> str:
        d = os.path.join(self.ctx.work, name)
        shutil.rmtree(d, ignore_errors=True)
        return d


# ------------------------------------------------------------ batch

class _Batch(Workload):
    op_label = "batch_s_p50"

    def prepare(self) -> None:
        s = self.ctx.scale
        cdir = inp.cache_dir(self.ctx.cache, "transcripts", self.ctx.seed,
                             self.ctx.scale_name)
        self.files = inp.transcript_files(cdir, self.ctx.seed, s.batch_files,
                                          s.batch_rows_per_file)
        self.rows = s.batch_files * s.batch_rows_per_file

    def steps(self, clock):
        i = 0
        while True:
            yield "batch", (lambda tr, i=i: self.op(tr, i))
            i += 1
            if clock() >= self.ctx.seconds:
                return

    def kernel_files(self, ops):
        return self.files

    def e2e(self, ops):
        walls = [o.wall for o in ops if o.kind == "batch" and not o.traced]
        return {"rows_per_s": statistics.median(self.rows / w for w in walls),
                "op_s_p50": statistics.median(walls),
                "rows_basis": f"{self.rows} input rows / wall, median of"
                              f" {len(walls)} runs",
                "op_basis": f"median of {len(walls)} runs"}


class BatchRoute(_Batch):
    name = "batch_route"
    why = ("fresh run_flagship over the seeded corpus: every pipeline layer;"
           " range sort and Hive write dominate")

    def warm(self):
        self.op(_NULL, "warm")
        shutil.rmtree(os.path.join(self.ctx.work, "route-warm"))

    def op(self, tr, i):
        from sylk.pipelines import flagship as fl

        out = self._dir(f"route-{i}")
        with tr.span("flagship.run_flagship"):
            summary = fl.run_flagship(self.files, out,
                                      files_per_unit=self.ctx.scale.files_per_unit)
        return self.rows, {"summary": summary, "out": out,
                           "new": self.files}

    def check(self, ops):
        want = orc.sum_counts(list(_file_oracle(self.ctx, self.files).values()))
        bad = []
        for i, o in enumerate(ops):
            if o.error:
                continue
            msg = (orc.diff_counts(orc.from_flagship(o.payload["summary"]), want)
                   or orc.routed_rows_diff(o.payload["out"], self.files))
            if msg:
                bad.append((i, msg))
            shutil.rmtree(o.payload["out"], ignore_errors=True)
        return bad


class BatchCount(_Batch):
    name = "batch_count"
    why = ("parse_enrich + combined_counts on the same corpus, no sort or"
           " write: parse is a ~4x larger share of it than of batch_route")

    def _count(self, tr, files):
        import ray.data

        from sylk.pipelines import flagship as fl
        from sylk.stages import aggregate as agg

        ds = ray.data.read_parquet(files, override_num_blocks=len(files))
        with tr.span("aggregate.combined_counts"):
            pdf = agg.combined_counts(fl.parse_enrich(ds))
        with tr.span("aggregate.rollups_from_combined"):
            return agg.rollups_from_combined(pdf)

    def warm(self):
        self._count(_NULL, self.files)

    def op(self, tr, i):
        return self.rows, {"rollups": self._count(tr, self.files)}

    def check(self, ops):
        want = orc.sum_counts(list(_file_oracle(self.ctx, self.files).values()))
        bad = []
        for i, o in enumerate(ops):
            if o.error:
                continue
            msg = orc.diff_counts(orc.from_rollups(*o.payload["rollups"]), want)
            if msg:
                bad.append((i, msg))
        return bad


# ------------------------------------------------------------ follow

class FollowIncremental(Workload):
    name = "follow_incremental"
    why = ("one sylk-follow wake: a shard lands beside committed history;"
           " small writes, a manifest skip and a re-read of every routed file")
    op_label = "wake_s_p50"

    # Every wake starts from a fresh copy of the same starting state (the
    # history shards committed), so each wake does the same work and the
    # median does not depend on how many wakes fit in the window.  With a
    # growing history it would: wake time grows with every routed file
    # the histogram re-reads.

    def prepare(self):
        s = self.ctx.scale
        cdir = inp.cache_dir(self.ctx.cache, "shards", self.ctx.seed,
                             self.ctx.scale_name)
        self.shards = inp.transcript_files(cdir, self.ctx.seed,
                                           s.follow_history + 1,
                                           s.follow_rows_per_shard)

    @staticmethod
    def _land(in_dir: str, shard: str) -> None:
        dest = os.path.join(in_dir, os.path.basename(shard))
        shutil.copyfile(shard, dest + ".tmp")
        os.replace(dest + ".tmp", dest)

    @staticmethod
    def _wake(in_dir: str, out: str):
        from sylk.pipelines import flagship as fl

        files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
        return fl.run_flagship(files, out, files_per_unit=1)

    def warm(self):
        d = self._dir("warm")
        os.makedirs(os.path.join(d, "in"))
        for shard in self.shards:
            self._land(os.path.join(d, "in"), shard)
        self._wake(os.path.join(d, "in"), os.path.join(d, "out"))
        shutil.rmtree(d)

    def build(self, k):
        """The history: every shard but the last, committed in one run.
        It is built at the live path, because the manifest records input
        paths and a wake skips only units whose paths match, then moved
        aside as the pristine copy each wake starts from."""
        live = self._dir("follow")
        os.makedirs(os.path.join(live, "in"))
        for shard in self.shards[:-1]:
            self._land(os.path.join(live, "in"), shard)
        self._wake(os.path.join(live, "in"), os.path.join(live, "out"))
        self.pristine = self._dir(f"follow-pristine-{k}")
        os.rename(live, self.pristine)
        return self.pristine

    def steps(self, clock):
        live = os.path.join(self.ctx.work, "follow")
        while True:
            shutil.rmtree(live, ignore_errors=True)
            shutil.copytree(self.pristine, live)
            before = orc.routed_files(os.path.join(live, "out"))
            # the shard lands before the operation's clock starts: a wake
            # is timed from the landing to run_flagship's return
            self._land(os.path.join(live, "in"), self.shards[-1])
            yield "wake", (lambda tr, before=before: self.op(tr, live, before))
            if clock() >= self.ctx.seconds:
                return

    def op(self, tr, live, before):
        with tr.span("flagship.run_flagship"):
            summary = self._wake(os.path.join(live, "in"),
                                 os.path.join(live, "out"))
        return self.ctx.scale.follow_rows_per_shard, {
            "summary": summary, "new": self.shards[-1:],
            "routed_before": before}

    def kernel_files(self, ops):
        return self.shards[-1:]

    def e2e(self, ops):
        wakes = [o for o in ops if o.kind == "wake" and not o.traced]
        walls = [o.wall for o in wakes]
        return {"rows_per_s": sum(o.rows for o in wakes) / sum(walls),
                "op_s_p50": statistics.median(walls),
                "rows_basis": f"{sum(o.rows for o in wakes)} new rows /"
                              f" {sum(walls):.3f} s summed over {len(walls)} wakes",
                "op_basis": f"median of {len(walls)} wakes"}

    def check(self, ops):
        want = orc.sum_counts(list(_file_oracle(self.ctx, self.shards).values()))
        bad = []
        for i, o in enumerate(ops):
            if o.error:
                continue
            # the resumed run (history skipped via the manifest) must
            # report what a fresh run over all shards would
            msg = orc.diff_counts(orc.from_flagship(o.payload["summary"]), want)
            if msg:
                bad.append((i, msg))
        done = [i for i, o in enumerate(ops) if not o.error]
        if done:  # the last wake's output is the one still on disk
            msg = orc.routed_rows_diff(os.path.join(self.ctx.work, "follow", "out"),
                                       self.shards)
            if msg:
                bad.append((done[-1], "routed rows: " + msg))
        return bad


# ------------------------------------------------------------ stores

PROBES = ("bm25", "and", "phrase", "ann")


class StoreSearch(Workload):
    name = "store_search"
    why = ("BM25/AND/phrase/ANN probes, an ingest, deletes and a compaction:"
           " the only workload on text_index, ann_store and store_fold")
    rows_label = "ingest_docs_per_s"
    op_label = "probe_s_p50"

    def prepare(self):
        s, seed = self.ctx.scale, self.ctx.seed
        self.queries = inp.store_queries(seed, s.dim)
        n_inc = s.store_initial + 1
        self.docs = {i: inp.docs_increment(seed, i, s.store_docs)
                     for i in range(1, n_inc + 1)}
        self.embs = {i: inp.emb_increment(seed, i, s.store_docs, s.dim)
                     for i in range(1, n_inc + 1)}
        self.deleted = inp.delete_ids(seed, list(range(1, n_inc + 1)),
                                      s.store_docs)
        self.ingests: list[tuple[int, float, str]] = []  # (docs, s, store) per call

    def _ingest(self, tr, which: str, d: str, inc: int, tbl: pa.Table) -> int:
        import ray.data

        from sylk.stages import ann_store, text_index

        s = self.ctx.scale
        t0 = time.perf_counter()
        if which == "text":
            with tr.span("text_index.index_ingest"):
                text_index.index_ingest(ray.data.from_arrow(tbl), d, inc_id=inc,
                                        n_buckets=s.n_buckets)
        else:
            with tr.span("ann_store.ann_ingest"):
                stats = ann_store.ann_ingest(ray.data.from_arrow(tbl), d,
                                             inc_id=inc, n_cells=s.n_cells)
            n = int(pc.sum(stats.column("n_rows")).as_py())
            if n != tbl.num_rows:
                raise AssertionError(f"ann_ingest stored {n} of"
                                     f" {tbl.num_rows} vectors")
        self.ingests.append((tbl.num_rows, time.perf_counter() - t0, which))
        return tbl.num_rows

    def warm(self):
        d = self._dir("warm")
        st = {"ti": os.path.join(d, "ti"), "ann": os.path.join(d, "ann")}
        # a full increment: after a 64-row warm-up, the session's first
        # full-size text ingest still took about 1.6x the later ones
        self._ingest(_NULL, "text", st["ti"], 1, self.docs[1])
        self._ingest(_NULL, "ann", st["ann"], 1, self.embs[1])
        for kind in PROBES:
            self._probe(_NULL, st, kind)
        shutil.rmtree(d)
        del self.ingests[-2:]  # the warm-up's calls are not ingest samples

    def build(self, k):
        d = self._dir(f"store-{k}")
        self.state = {"ti": os.path.join(d, "ti"), "ann": os.path.join(d, "ann"),
                      "state": 0}
        for inc in range(1, self.ctx.scale.store_initial + 1):
            self._ingest(_NULL, "text", self.state["ti"], inc, self.docs[inc])
            self._ingest(_NULL, "ann", self.state["ann"], inc, self.embs[inc])
        return d

    def _probe(self, tr, st, kind: str):
        from sylk.stages import ann_store, text_index

        qs = self.queries[kind]
        if kind == "bm25":
            with tr.span("text_index.index_query_bm25"):
                rows = text_index.index_query_bm25(st["ti"], qs, k=10).take_all()
            return orc.sort_bm25((r["doc_id"], r["bm25"]) for r in rows)
        if kind == "and":
            with tr.span("text_index.index_match_docs"):
                rows = text_index.index_match_docs(st["ti"], qs).take_all()
            return sorted(int(r["doc_id"]) for r in rows)
        if kind == "phrase":
            with tr.span("text_index.index_phrase_docs"):
                rows = text_index.index_phrase_docs(st["ti"], qs).take_all()
            return sorted(int(r["doc_id"]) for r in rows)
        with tr.span("ann_store.ann_store_query"):
            rows = ann_store.ann_store_query(
                st["ann"], np.asarray(qs), k=10,
                nprobe=self.ctx.scale.n_cells).take_all()
        return orc.sort_ann(rows)

    def phase(self):
        return self.state["state"]

    def steps(self, clock):
        """State 0 (the built stores) for the first half of the session's
        window, state 1 (compacted) for the second; at least one round
        each.  Each state has a fixed share of the window and counts once
        in ``op_s_p50``, so a faster program gets more rounds in both
        states without shifting their weights.  A
        traced run yields every probe twice, back to back: the run
        alternates untraced and traced operations, so each traced probe
        has an untraced twin in the same session and store state."""
        st = self.state
        r = 0
        for state, until in ((0, self.ctx.seconds / 2), (1, self.ctx.seconds)):
            if state:
                # the fixed point: one new increment, one delete batch, then
                # the compaction that folds them
                new_inc = self.ctx.scale.store_initial + 1
                for which in ("text", "ann"):
                    yield f"ingest:{which}", self._ingest_op(which, new_inc)
                yield "delete:text", self._delete_op("text")
                yield "delete:ann", self._delete_op("ann")
                st["state"] = 1
                for which in ("text", "ann"):
                    yield f"compact:{which}", self._compact_op(which)
            while True:
                for kind in PROBES:
                    for _ in range(2 if self.ctx.traced else 1):
                        yield f"probe:{kind}", self._probe_op(kind, r)
                r += 1
                if clock() >= until:
                    break

    def _probe_op(self, kind, r):
        def fn(tr):
            st = self.state
            return 0, {"got": self._probe(tr, st, kind), "state": st["state"],
                       "probe": kind, "round": r}
        return fn

    def _ingest_op(self, which, inc):
        def fn(tr):
            if which == "text":
                return self._ingest(tr, which, self.state["ti"], inc,
                                    self.docs[inc]), {}
            return self._ingest(tr, which, self.state["ann"], inc,
                                self.embs[inc]), {}
        return fn

    def _delete_op(self, which):
        def fn(tr):
            from sylk.stages import ann_store, text_index

            if which == "text":
                with tr.span("text_index.index_delete"):
                    res = text_index.index_delete(self.state["ti"],
                                                  self.deleted, del_id=1)
                n = res["deleted"]
            else:
                with tr.span("ann_store.ann_delete"):
                    res = ann_store.ann_delete(self.state["ann"], self.deleted,
                                               del_id=1)
                n = res["tombstoned"]
            if n != len(self.deleted):
                raise AssertionError(f"{which} delete removed {n} of "
                                     f"{len(self.deleted)} ids")
            return 0, {}
        return fn

    def _compact_op(self, which):
        def fn(tr):
            from sylk.stages import ann_store, text_index

            with tr.span(f"store_fold.compact_{which}"):
                if which == "text":
                    res = text_index.compact_text_index(self.state["ti"])
                else:
                    res = ann_store.compact_ann_store(self.state["ann"])
            if res["files_out"] > res["files_in"]:
                raise AssertionError(f"compaction grew the store: {res}")
            return 0, {"fold": res}
        return fn

    def _live(self, state: int):
        """The documents and vectors a probe sees in ``state``: 0 before
        the fixed point, 1 after its ingest, deletes and compaction."""
        n_inc = self.ctx.scale.store_initial + state
        docs = pa.concat_tables([self.docs[i] for i in range(1, n_inc + 1)])
        embs = pa.concat_tables([self.embs[i] for i in range(1, n_inc + 1)])
        if state:
            gone = pa.array(self.deleted, pa.int64())
            docs = docs.filter(pc.invert(
                pc.is_in(docs.column("doc_id"), value_set=gone)))
            embs = embs.filter(pc.invert(
                pc.is_in(embs.column("vec_id"), value_set=gone)))
        return docs, embs

    def _oracle(self, states) -> dict:
        cdir = inp.cache_dir(self.ctx.cache, "stores", self.ctx.seed,
                             self.ctx.scale_name)
        os.makedirs(cdir, exist_ok=True)
        path = os.path.join(cdir, f"oracle-{inp.oracle_hash()}.json")
        cached = inp.load_json(path) or {}
        for key in sorted({str(s) for s in states} - set(cached)):
            docs, embs = self._live(int(key))
            cached[key] = {
                "bm25": orc.bm25_top(docs, self.queries["bm25"]),
                "and": orc.and_docs(docs, self.queries["and"]),
                "phrase": orc.phrase_docs(docs, self.queries["phrase"]),
                "ann": orc.ann_top(embs, self.queries["ann"]),
            }
            inp.save_json(path, cached)
        return cached

    def check(self, ops):
        probes = [(i, o) for i, o in enumerate(ops)
                  if o.kind.startswith("probe:") and not o.error]
        want = self._oracle({o.payload["state"] for _, o in probes})
        bad = []
        for i, o in probes:
            p = o.payload
            exp = want[str(p["state"])][p["probe"]]
            # JSON round-trips lists; compare in the same shape
            if [list(x) if isinstance(x, (list, tuple)) else x
                    for x in p["got"]] != exp:
                bad.append((i, f"{p['probe']} in state {p['state']}:"
                               f" {len(p['got'])} rows differ from the oracle's"
                               f" {len(exp)}"))
        return bad

    def e2e(self, ops):
        # the four probe kinds differ in cost by up to 4x, so the median of
        # single probes jumps between kinds as the count per kind shifts;
        # the per-probe mean of each complete round-robin is steady.  Each
        # state counts once, whatever number of rounds it got.
        rounds: dict[tuple[int, int], list[float]] = {}
        phase = {}
        for o in ops:
            if o.kind.startswith("probe:") and not o.traced:
                key = (o.session, o.payload["round"])
                rounds.setdefault(key, []).append(o.wall)
                phase[key] = o.phase
        per_state = {}
        for key, w in rounds.items():
            if len(w) == len(PROBES):
                per_state.setdefault(phase[key], []).append(sum(w) / len(w))
        state_p50 = {s: statistics.median(m) for s, m in sorted(per_state.items())}
        # every ingest call of the run: the starting-state builds and the
        # timed loop's increment (one increment alone is too few samples)
        docs = sum(n for n, _, _ in self.ingests)
        secs = sum(t for _, t, _ in self.ingests)
        return {"rows_per_s": docs / secs,
                "op_s_p50": statistics.fmean(state_p50.values()),
                "rows_basis": f"{docs} docs / {secs:.3f} s of {len(self.ingests)}"
                              " ingest calls, both stores, set-up builds included: "
                              + ", ".join(f"{w} {t:.3f}" for _, t, w in self.ingests),
                "op_basis": "mean over the store states of the median, over"
                            " the state's complete rounds, of a round's mean"
                            " probe latency: " + "; ".join(
                                f"state {s} {v:.4f} s of {len(per_state[s])}"
                                " rounds" for s, v in state_p50.items())}

WORKLOADS = {w.name: w for w in (BatchRoute, BatchCount, FollowIncremental,
                                 StoreSearch)}
