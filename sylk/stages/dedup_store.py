"""Incremental exact dedup across ingest increments: a persistent
hash-key store partitioned by key-hash prefix, so each new increment
anti-joins only against the matching store partitions and appends its
novel keys — "have I seen this content before?" across a growing corpus
WITHOUT recomputing past increments or holding a global key set
anywhere.

Store layout (the :mod:`store_fold` contract)::

    store_dir/p=<bucket>/inc<id>.parquet    # one int64 column 'h'
    store_dir/p=<bucket>/compact<upto>.parquet
    store_dir/_done_inc<id>.json            # completeness marker
    store_dir/_compact.json                 # compaction watermark

``bucket = h >> (64 - bits)`` — a contiguous hash range per partition,
so an increment's probe reads ONLY its buckets' read sets (at corpus
scale the store is large but each increment touches every bucket with
a tiny slice; :func:`compact_ingest_store` / ``sylk compact`` bounds
the per-bucket file count).

Semantics: the FIRST increment containing a key accepts it; within an
increment, the row with the smallest ``order_col`` wins (a total order
per key makes the result deterministic — the requirement every carry
operator in this engine shares).  Increments must be ingested with
monotonically increasing ``inc_id``.

Idempotence / crash safety (the :mod:`store_fold` contract):
* a rerun first removes its own increment (marker, store files,
  accepted output); all files are written ``.tmp`` then atomically
  renamed, with DETERMINISTIC names keyed by (inc_id, bucket)
  (:func:`store_fold.inc_file`); the increment's marker is written
  last;
* the probe reads marker-complete increments only and also excludes
  the current increment's own file, so a rerun — after a crash
  anywhere, even after the marker — re-accepts the same rows (same
  files, same contents).

Distribution: :func:`dedup_ingest` runs one hash-shuffle of the
increment by bucket (``groupby(bucket).map_groups``), then each bucket
task is independent: in-bucket first-per-key reduction (vectorized
lexsort), store-partition read, anti-filter, two file writes.  No
driver state at any size.  :func:`neardup_ingest` writes its band rows
through :func:`store_fold.write_increment`, so a small increment's
bands are partitioned and written in the driver (up to an eighth of
the one driver budget, ``collect.fits``); both stores fold through
:func:`store_fold.fold`, in the driver while the partition files fit
the budget.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .collect import collect, to_dataset
from .store_fold import (check_watermark, complete_increments, fold,
                         inc_file, read_set, remove_increment,
                         write_increment, write_marker)


def _bucket_of(h: np.ndarray, bits: int) -> np.ndarray:
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def compact_ingest_store(store_dir: str) -> dict:
    """Bound an ingest store's per-bucket file count — the shared
    :func:`store_fold.fold` over the ``p=`` dirs of either ingest store
    (the dedup_ingest hash store or the near-dup band store).  The exact
    store's fold shrinks each bucket to its distinct hashes; band rows
    are concatenated as they are."""
    def _shrink(tbl: pa.Table) -> pa.Table:
        if tbl.schema.names != ["h"]:   # band store
            return tbl
        return pa.table({"h": pa.array(np.unique(
            tbl.column("h").to_numpy(zero_copy_only=False)), pa.int64())})
    return fold(store_dir, "p=*", reduce=_shrink)


def dedup_ingest(ds, store_dir: str, out_dir: str, key_col: str,
                 order_col: str, inc_id: int, bits: int = 6):
    """Ingest one increment.  Eager: the files and the completeness
    marker are on disk on return.  Returns a small per-bucket stats
    Dataset (bucket, accepted, rejected); accepted rows land under
    ``out_dir/inc=<inc_id>/`` as parquet (read back with read_parquet).

    ``key_col`` (string) is the content identity — hashed with the
    md5-parity ``content_hash64`` kernel; ``order_col`` (int64) breaks
    in-increment ties (smallest wins)."""
    from .sample import content_hash64

    os.makedirs(store_dir, exist_ok=True)
    check_watermark(store_dir, inc_id)
    # a rerun starts from nothing of its own earlier attempt
    remove_increment(store_dir, "p=*", inc_id)
    done = complete_increments(store_dir)
    acc_dir = os.path.join(out_dir, f"inc={inc_id}")
    shutil.rmtree(acc_dir, ignore_errors=True)
    os.makedirs(acc_dir)

    def _tag(b: pa.Table) -> pa.Table:
        h = content_hash64(b.column(key_col))
        b = b.append_column("_h", pa.array(h.view(np.int64), pa.int64()))
        return b.append_column(
            "_bkt", pa.array(_bucket_of(h, bits), pa.int64()))

    def _one_bucket(g: pa.Table) -> pa.Table:
        if g.num_columns == 0 or g.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "accepted": pa.array([], pa.int64()),
                             "rejected": pa.array([], pa.int64())})
        bkt = int(g.column("_bkt")[0].as_py())
        h = g.column("_h").to_numpy(zero_copy_only=False).astype(np.uint64)
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        # in-increment first-per-key: smallest order_col per hash
        sel = np.lexsort((order, h))
        first = np.ones(len(sel), dtype=bool)
        first[1:] = h[sel][1:] != h[sel][:-1]
        keep_idx = sel[first]
        n_in_dupes = len(h) - len(keep_idx)
        kh = h[keep_idx]
        # probe: the bucket's read set minus our own file (a rerun
        # after a crashed output rename must re-accept)
        pdir = os.path.join(store_dir, f"p={bkt}")
        seen_parts = [
            pq.read_table(f, columns=["h"]).column("h")
            .to_numpy(zero_copy_only=False).astype(np.uint64)
            for f in read_set(store_dir, [pdir], exclude=inc_id, done=done)
        ]
        if seen_parts:
            seen = np.sort(np.concatenate(seen_parts))
            novel = ~np.isin(kh, seen)
        else:
            novel = np.ones(len(kh), dtype=bool)
        acc = g.take(pa.array(keep_idx[novel])) \
            .drop_columns(["_h", "_bkt"])
        # deterministic names + tmp/rename: reruns overwrite, never append
        os.makedirs(pdir, exist_ok=True)
        store_f = inc_file(store_dir, "p", bkt, inc_id)
        pq.write_table(pa.table({"h": pa.array(kh[novel].view(np.int64),
                                               pa.int64())}),
                       store_f + ".tmp")
        out_f = os.path.join(acc_dir, f"bucket_{bkt:04d}.parquet")
        pq.write_table(acc, out_f + ".tmp")
        os.replace(store_f + ".tmp", store_f)
        os.replace(out_f + ".tmp", out_f)
        return pa.table({
            "bucket": pa.array([bkt], pa.int64()),
            "accepted": pa.array([int(novel.sum())], pa.int64()),
            "rejected": pa.array([int((~novel).sum()) + n_in_dupes],
                                 pa.int64())})

    stats = (ds.map_batches(_tag, batch_format="pyarrow", batch_size=None)
             .groupby("_bkt")
             .map_groups(_one_bucket, batch_format="pyarrow")
             .to_pandas())
    write_marker(store_dir, inc_id, {"buckets": int(len(stats))})
    return to_dataset(pa.Table.from_pandas(stats, preserve_index=False))


def read_accepted(out_dir: str, store_dir: str, inc_id: int | None = None):
    """Dataset of accepted rows — one increment or the whole history —
    of the increments whose marker is in ``store_dir``.  An ingest
    writes its accepted rows before its marker, so after a crash in
    between they stay unread until the rerun completes the increment.
    No accepted row reads as a typed empty Dataset, with the schema of
    any accepted file on disk (zero columns while there is none)."""
    import ray.data

    ids = [i for i in complete_increments(store_dir)
           if inc_id is None or i == inc_id]
    files = sorted(f for i in ids for f in glob.glob(
        os.path.join(out_dir, f"inc={i}", "*.parquet")))
    if files:
        return ray.data.read_parquet(files)
    any_file = glob.glob(os.path.join(out_dir, "inc=*", "*.parquet"))[:1]
    return to_dataset(
        ray.data.read_parquet(any_file).schema().base_schema.empty_table()
        if any_file else pa.table({}))


# --- incremental near-dup (MinHash-LSH) store --------------------------------

def _neardup_probe_files(store_dir: str, inc_id: int,
                         buckets) -> list[str]:
    """Prior-increment band files for the given band-hash buckets ONLY
    — the probe's read set.  Factored out so the pruning contract is
    directly testable (tests assert only colliding ``p=`` dirs open)."""
    return read_set(store_dir, [os.path.join(store_dir, f"p={b}")
                                for b in sorted(buckets)], exclude=inc_id)


def neardup_ingest(ds, store_dir: str, out_dir: str, inc_id: int,
                   threshold: float = 0.8, text_col: str = "text",
                   id_col: str = "doc_id", bits: int = 6):
    """Incremental NEAR-dup dedup across increments: the MinHash sibling
    of :func:`dedup_ingest`.  Semantics (deterministic given the LSH
    recall argument documented at ``dedup.minhash_dup_pairs``):

    1. in-increment: exact-verified LSH pairs -> connected components ->
       keep the min-id representative per cluster;
    2. cross-increment: a kept doc is REJECTED iff one of its 16 band
       buckets collides with a PRIOR ACCEPTED doc AND exact 3-gram
       Jaccard against that doc's stored text >= ``threshold``;
    3. survivors' (doc_id, band, band_hash) rows land under
       ``store_dir/p=<bucket>/inc<id>.parquet`` with
       ``bucket = band_hash >> (64 - bits)`` — the same hash-prefix
       partitioning :func:`dedup_ingest` uses — through
       :func:`store_fold.write_increment` (watermark refusal, a rerun
       replaces the increment); then their rows land under
       ``out_dir/inc=<id>/`` (scratch dir atomically renamed into
       place), and the increment's marker is written last.

    The probe is PRUNED: an increment collects its distinct band-hash
    buckets (<= 2**bits values of metadata, never rows) and reads only
    those ``p=`` partitions' prior files — at corpus scale the store is
    large but the probe IO is bounded by the increment's colliding hash
    ranges, not the store (raise ``bits`` as the corpus grows).
    Verification texts are semi-joined down to candidate doc ids before
    the pair join, and cross-rejected ids are removed with an anti-join
    (bounded broadcast tier with a distributed fallback) — no driver-held
    id set at any size.

    Doc ids must be globally unique across increments (they key the
    text lookup for verification).

    Returns ``{"accepted": n, "rejected_in_inc": n, "rejected_cross": n}``.
    """
    import ray.data

    from .aggregate import grouped_counts
    from .dedup import (connected_components, minhash_bands_batch,
                        minhash_dup_pairs, ngram_jaccard,
                        _verify_broadcast, _verify_pairs)
    from .join import anti_join, hash_join, semi_join

    n_inc = ds.count()
    pairs = minhash_dup_pairs(ds, threshold=threshold, text_col=text_col)
    nodes = ds.map_batches(lambda b: b.select([id_col]),
                           batch_format="pyarrow", batch_size=None)
    cc = connected_components(nodes, pairs, node_col=id_col)

    def _reps(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if b.num_columns == 0:
            return pa.table({"_rep": pa.array([], pa.int64())})
        keep = pc.equal(b.column(id_col), b.column("cluster_id"))
        return pa.table({"_rep": b.column(id_col).filter(keep)})

    reps = cc.map_batches(_reps, batch_format="pyarrow", batch_size=None)
    kept = hash_join(ds, reps, on=id_col, right_on="_rep").materialize()
    n_kept = kept.count()

    def _bands_bkt(b: pa.Table) -> pa.Table:
        t = _bands_i64(b, text_col, id_col)
        bh = t.column("band_hash").to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        return t.append_column(
            "_bkt", pa.array((bh >> np.uint64(64 - bits)).astype(np.int64),
                             pa.int64()))

    # ---- cross-increment probe (bucket-pruned) ----
    # materialize: consumed by the bucket collection AND the candidate
    # join — shared lineage would otherwise recompute the bands
    # (CLAUDE.md's two-consumer rule); size is 16 rows per kept doc.
    new_bands = kept.map_batches(_bands_bkt, batch_format="pyarrow",
                                 batch_size=None).materialize()
    # distinct buckets hit by THIS increment: per-block unique first, so
    # the driver receives <= blocks x 2**bits bucket ids — metadata,
    # never band rows
    import pyarrow.compute as pc

    _, bkts = collect(new_bands.map_batches(
        lambda b: (pa.table({"_bkt": pc.unique(b.column("_bkt"))})
                   if b.num_columns else
                   pa.table({"_bkt": pa.array([], pa.int64())})),
        batch_format="pyarrow", batch_size=None))
    hit = set(bkts.column("_bkt").to_pylist()) if bkts.num_columns else set()
    prior_files = _neardup_probe_files(store_dir, inc_id, hit)
    n_rej_cross = 0
    if prior_files:
        store_bands = ray.data.read_parquet(prior_files)

        def _ren(b: pa.Table) -> pa.Table:
            # by name: the reader adds the p=<bucket> dir as a column
            if b.num_columns == 0:
                return pa.table({"_old": pa.array([], pa.int64()),
                                 "_sband": pa.array([], pa.int32()),
                                 "_sbh": pa.array([], pa.int64())})
            return pa.table({"_old": b.column("doc_id"),
                             "_sband": b.column("band"),
                             "_sbh": b.column("band_hash")})

        cand = hash_join(new_bands.drop_columns(["_bkt"]),
                         store_bands.map_batches(_ren,
                                                 batch_format="pyarrow",
                                                 batch_size=None),
                         on=("band", "band_hash"),
                         right_on=("_sband", "_sbh"))

        def _ab(b: pa.Table) -> pa.Table:
            return pa.table({"a": b.column("doc_id"),
                             "b": b.column("_old")})

        cand = grouped_counts(
            cand.map_batches(_ab, batch_format="pyarrow",
                             batch_size=None), ["a", "b"]) \
            .drop_columns(["n"]).materialize()

        def _sel_texts(b: pa.Table) -> pa.Table:
            # upstream joins/map_groups can emit schemaless empty
            # blocks — rebuild the schema so the union's block schemas
            # agree
            if b.num_columns == 0:
                return pa.table({id_col: pa.array([], pa.int64()),
                                 text_col: pa.array([], pa.string())})
            return b.select([id_col, text_col])

        def _cand_ids(b: pa.Table) -> pa.Table:
            if b.num_columns == 0:
                return pa.table({"_cid": pa.array([], pa.int64())})
            return pa.table({"_cid": pa.array(np.concatenate(
                [b.column("a").to_numpy(zero_copy_only=False),
                 b.column("b").to_numpy(zero_copy_only=False)]),
                pa.int64())})

        texts = kept.map_batches(
            _sel_texts, batch_format="pyarrow", batch_size=None) \
            .union(read_accepted(out_dir, store_dir).map_batches(
                _sel_texts, batch_format="pyarrow", batch_size=None))

        def _jac(ta, tb):
            j = ngram_jaccard(ta or "", tb or "")
            return j if j >= threshold else None

        # tiered verify (each distributed exchange costs seconds of
        # fixed overhead — CLAUDE.md): a bounded candidate collect
        # routes small pair sets through the broadcast verifier (texts
        # arrive via a worker-side is-in filter, never a full stream);
        # above the budget, semi-join-pruned texts + the edge-join path.
        cand, ctbl = collect(cand, tiered=True)
        verified = None
        if ctbl is not None:
            if ctbl.num_rows:
                verified = _verify_broadcast(
                    ctbl.to_pandas()[["a", "b"]], texts, id_col,
                    text_col, _jac, "jaccard")
        else:
            # prune the verification corpus to candidate docs BEFORE
            # the pair join: only colliding texts enter the exchange
            texts = semi_join(texts, cand.map_batches(
                _cand_ids, batch_format="pyarrow", batch_size=None),
                on=id_col, right_key="_cid")
            verified = _verify_pairs(cand, texts, id_col, text_col,
                                     _jac, "jaccard")

        def _sel_a(b: pa.Table) -> pa.Table:
            if b.num_columns == 0:
                return pa.table({"a": pa.array([], pa.int64())})
            return b.select(["a"])

        if verified is not None:
            # cross-rejected ids leave via an ANTI-JOIN (bounded
            # broadcast tier, distributed left_anti fallback) — the
            # driver never holds an unbounded id set
            kept = anti_join(kept, verified.map_batches(
                _sel_a, batch_format="pyarrow", batch_size=None),
                on=id_col, right_key="a")

    # ---- writes ----
    # ORDER MATTERS: band store FIRST, accepted output second (in the
    # marker info hook), marker last.  A crash before the marker leaves
    # the increment invisible to every probe and fold (the caller
    # reruns, which removes the increment's band files first); the
    # reverse order would leave accepted docs whose bands never reached
    # the store — silent recall loss for every later increment.  Probes
    # ignore the current inc's store files, so early store writes never
    # poison their own rerun.
    accepted = kept.materialize()
    n_acc = accepted.count()
    n_rej_cross = n_kept - n_acc

    def _publish(stats: pa.Table) -> dict:
        final = os.path.join(out_dir, f"inc={inc_id}")
        tmp = os.path.join(out_dir, f".build-inc{inc_id}")
        shutil.rmtree(tmp, ignore_errors=True)
        # made first: a fully-rejected increment writes no files, and
        # its (empty) dir must still exist for reruns and readers
        os.makedirs(tmp)
        accepted.write_parquet(tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        return {"accepted": int(n_acc)}

    write_increment(accepted, store_dir, inc_id, "_bkt", "p", fn=_bands_bkt,
                    info=_publish)
    return {"accepted": int(n_acc),
            "rejected_in_inc": int(n_inc - n_kept),
            "rejected_cross": int(n_rej_cross)}


def _bands_i64(b: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(doc_id, band, band_hash) rows with the hash bit-reinterpreted as
    int64 — Ray's keyed shuffle overflows uint64 > 2^63 (CLAUDE.md)."""
    from .dedup import minhash_bands_batch

    if b.num_columns == 0:  # schemaless empty block
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "band": pa.array([], pa.int32()),
                         "band_hash": pa.array([], pa.int64())})
    t = minhash_bands_batch(b, text_col, id_col)
    bh = t.column("band_hash").to_numpy(zero_copy_only=False) \
        .astype(np.uint64).view(np.int64)
    return pa.table({"doc_id": t.column("doc_id"),
                     "band": t.column("band").cast(pa.int32()),
                     "band_hash": pa.array(bh, pa.int64())})
