"""CLI entry point: run the flagship pipeline over transcript parquet.

Usage (also works under `ray job submit -- python -m sylk ...`)::

    python -m sylk run --input '/data/transcripts/*.parquet' --out /data/routed \
        [--files-per-unit 16] [--concurrent-units 2] [--num-cpus N]
    python -m sylk synth --out /tmp/corpus --rows 1000000
    python -m sylk serve --proto udp --port 5514   # live syslog server loop
    python -m sylk index --input 'docs/*.parquet' --store S --inc-id 1
    python -m sylk search --store S --terms 'hash join' --mode bm25 --k 10
    python -m sylk forget --kind index --store S --ids 4,10 --del-id 1
    python -m sylk compact --kind ingest --store S --out O
    python -m sylk compact --kind upsert --store S --key-col k --order-col o

``run`` streams parse -> enrich -> route -> aggregate with per-unit
checkpointing; re-running with the same --out resumes (committed units
skip).  Prints the summary JSON (sink counts, rejects, histogram sizes).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sylk")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="flagship pipeline with checkpoint/resume")
    run.add_argument("--input", required=True, help="glob of transcript parquet files")
    run.add_argument("--out", required=True, help="output directory (routed sinks + manifest)")
    run.add_argument("--files-per-unit", type=int, default=16)
    run.add_argument("--concurrent-units", type=int, default=2)
    run.add_argument("--num-cpus", type=int, default=None)
    run.add_argument("--format", choices=("parquet", "text", "text_gz"),
                     default="parquet",
                     help="input shards: transcript parquet or raw .log lines")

    fol = sub.add_parser(
        "follow",
        help="micro-batch follow mode: poll the input glob, process new "
             "shards incrementally (manifest resume), exit when idle")
    fol.add_argument("--input", required=True)
    fol.add_argument("--out", required=True)
    fol.add_argument("--files-per-unit", type=int, default=16)
    fol.add_argument("--concurrent-units", type=int, default=2)
    fol.add_argument("--num-cpus", type=int, default=None)
    fol.add_argument("--format", choices=("parquet", "text", "text_gz"),
                     default="parquet")
    fol.add_argument("--poll-s", type=float, default=2.0)
    fol.add_argument("--idle-exit", type=int, default=3,
                     help="exit after this many consecutive empty polls")

    synth = sub.add_parser("synth", help="write the deterministic synthetic corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--rows-per-file", type=int, default=250_000)

    srv = sub.add_parser(
        "serve",
        help="live syslog server (the crate's doc-example loop): bind a "
             "UDP (RFC 5426) or TCP (RFC 6587) socket, parse each "
             "message through the flagship stages, print per-sink "
             "counts on exit")
    srv.add_argument("--proto", choices=("udp", "tcp"), default="udp")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="0 = OS-assigned (printed on start)")
    srv.add_argument("--poll-s", type=float, default=0.5)
    srv.add_argument("--idle-exit", type=int, default=20,
                     help="exit after this many consecutive empty drains")
    srv.add_argument("--num-cpus", type=int, default=None)

    idx = sub.add_parser(
        "index",
        help="ingest one document-parquet increment into an inverted "
             "text-index store (term-hash positional postings; "
             "increments are marker-gated and crash-safe)")
    idx.add_argument("--input", required=True,
                     help="glob of document parquet files")
    idx.add_argument("--store", required=True)
    idx.add_argument("--inc-id", type=int, required=True)
    idx.add_argument("--n-buckets", type=int, default=32)
    idx.add_argument("--no-positions", action="store_true",
                     help="~35%% smaller postings; disables phrase search")
    idx.add_argument("--text-col", default="text")
    idx.add_argument("--id-col", default="doc_id")
    idx.add_argument("--num-cpus", type=int, default=None)

    srch = sub.add_parser(
        "search",
        help="probe an inverted text-index store (opens only the query "
             "terms' buckets)")
    srch.add_argument("--store", required=True)
    srch.add_argument("--terms", required=True,
                      help="space-separated query terms (for phrase "
                           "mode: the phrase, in order)")
    srch.add_argument("--mode", choices=("bm25", "and", "phrase"),
                      default="bm25")
    srch.add_argument("--k", type=int, default=None,
                      help="bm25 only: top-k cut")
    srch.add_argument("--num-cpus", type=int, default=None)

    fgt = sub.add_parser(
        "forget",
        help="right-to-be-forgotten: tombstone ids in an index or ANN "
             "store (logical mask now, physical purge at the next "
             "`sylk compact`)")
    fgt.add_argument("--kind", choices=("index", "ann"), required=True)
    fgt.add_argument("--store", required=True)
    fgt.add_argument("--ids", required=True,
                     help="comma-separated doc_ids / vec_ids")
    fgt.add_argument("--del-id", type=int, required=True)
    fgt.add_argument("--num-cpus", type=int, default=None)

    cmp_ = sub.add_parser(
        "compact",
        help="store maintenance: fold each partition's marker-complete "
             "increments into one reserved compact file and advance the "
             "watermark (run between increments; see "
             "sylk/stages/store_fold.py for the crash discipline)")
    cmp_.add_argument("--kind", choices=("ingest", "upsert", "ann",
                                         "index"),
                      required=True,
                      help="ingest = dedup_ingest/neardup_ingest hash or"
                           " band store; upsert = CDC upsert store; "
                           "ann = IVF-cell ANN vector store; "
                           "index = inverted text-index store")
    cmp_.add_argument("--store", required=True, help="store directory")
    cmp_.add_argument("--key-col", help="upsert: key column")
    cmp_.add_argument("--order-col", help="upsert: order column")
    cmp_.add_argument("--tombstone-col", default=None)
    cmp_.add_argument("--num-cpus", type=int, default=None)

    args = ap.parse_args(argv)

    import ray

    # only shut down a session WE started: under `ray job submit` (or a
    # test harness) the ambient session belongs to the caller
    started = False
    if not ray.is_initialized():
        kw = {"num_cpus": args.num_cpus} if getattr(args, "num_cpus", None) else {}
        ray.init(address="local", include_dashboard=False, **kw)
        started = True
    try:
        if args.cmd == "synth":
            from sylk.sources.transcripts import write_transcripts

            write_transcripts(args.out, args.rows, rows_per_file=args.rows_per_file)
            print(json.dumps({"out": args.out, "rows": args.rows}))
            return 0

        if args.cmd == "serve":
            from sylk.sources.socket_source import (TCPLineReceiver,
                                                    UDPLineReceiver,
                                                    serve_counts)

            cls = UDPLineReceiver if args.proto == "udp" else TCPLineReceiver
            recv = cls.remote(host=args.host, port=args.port)
            host, port = ray.get(recv.address.remote())
            print(json.dumps({"listening": f"{args.proto}://{host}:{port}"}),
                  flush=True)
            try:
                totals, rows = serve_counts(recv, poll_s=args.poll_s,
                                            idle_exit=args.idle_exit)
            finally:
                ray.get(recv.stop.remote())
            print(json.dumps({
                "rows": rows,
                "dropped": ray.get(recv.dropped.remote()),
                "sink_counts": {
                    f"{f}/{s}": int(n) for f, s, n in zip(
                        totals.column("facility").to_pylist(),
                        totals.column("severity").to_pylist(),
                        totals.column("n").to_pylist())},
            }))
            return 0

        if args.cmd == "index":
            import ray.data

            from sylk.stages.text_index import index_ingest

            files = sorted(glob.glob(args.input))
            if not files:
                ap.error(f"no files match {args.input}")
            stats = index_ingest(
                ray.data.read_parquet(files,
                                      columns=[args.id_col, args.text_col]),
                args.store, inc_id=args.inc_id, n_buckets=args.n_buckets,
                text_col=args.text_col, id_col=args.id_col,
                positions=not args.no_positions)
            print(json.dumps({"inc_id": args.inc_id,
                              "buckets": stats.num_rows,
                              "rows": int(stats.column("n_rows")
                                          .to_pandas().sum())}))
            return 0

        if args.cmd == "search":
            from sylk.stages.text_index import (index_match_docs,
                                                index_phrase_docs,
                                                index_query_bm25)

            terms = args.terms.split()
            if args.mode == "bm25":
                out = index_query_bm25(args.store, terms, k=args.k)
            elif args.mode == "and":
                out = index_match_docs(args.store, terms)
            else:
                out = index_phrase_docs(args.store, terms)
            rows = out.take_all()
            head = [{k: (v.item() if hasattr(v, "item") else v)
                     for k, v in r.items()} for r in rows[:100]]
            print(json.dumps({"mode": args.mode, "terms": terms,
                              "n": len(rows), "rows": head}))
            return 0

        if args.cmd == "forget":
            ids = [int(x) for x in args.ids.split(",") if x]
            if args.kind == "index":
                from sylk.stages.text_index import index_delete

                print(json.dumps(index_delete(args.store, ids,
                                              del_id=args.del_id)))
            else:
                from sylk.stages.ann_store import ann_delete

                print(json.dumps(ann_delete(args.store, ids,
                                            del_id=args.del_id)))
            return 0

        if args.cmd == "compact":
            if args.kind == "ingest":
                from sylk.stages.dedup_store import compact_ingest_store

                print(json.dumps(compact_ingest_store(args.store)))
            elif args.kind == "ann":
                from sylk.stages.ann_store import compact_ann_store

                print(json.dumps(compact_ann_store(args.store)))
            elif args.kind == "index":
                from sylk.stages.text_index import compact_text_index

                print(json.dumps(compact_text_index(args.store)))
            else:
                if not (args.key_col and args.order_col):
                    ap.error("--kind upsert requires --key-col and "
                             "--order-col")
                from sylk.stages.upsert_store import compact_store

                print(json.dumps(compact_store(
                    args.store, args.key_col, args.order_col,
                    tombstone_col=args.tombstone_col)))
            return 0

        if args.cmd == "follow":
            from sylk.pipelines.flagship import follow_flagship

            summary = follow_flagship(
                args.input,
                args.out,
                poll_s=args.poll_s,
                idle_exit=args.idle_exit,
                files_per_unit=args.files_per_unit,
                concurrent_units=args.concurrent_units,
                input_format=args.format,
            )
            if not summary.get("sink_counts") and "rows" not in summary:
                print(f"no files ever matched {args.input!r}",
                      file=sys.stderr)
                return 2
        else:
            files = sorted(glob.glob(args.input))
            if not files:
                print(f"no files match {args.input!r}", file=sys.stderr)
                return 2
            from sylk.pipelines.flagship import run_flagship

            summary = run_flagship(
                files,
                args.out,
                files_per_unit=args.files_per_unit,
                concurrent_units=args.concurrent_units,
                input_format=args.format,
            )
        # JSON-safe: tuple keys -> "f/s"
        summary["sink_counts"] = {
            f"{k[0]}/{k[1]}": v for k, v in summary["sink_counts"].items()
        }
        summary["host_app_histogram_size"] = len(summary.pop("host_app_histogram"))
        print(json.dumps(summary, default=str))
        return 0
    finally:
        if started:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
