"""Run one sylk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch_route --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  It starts a local Ray session with
as many CPUs as this process may use, sets up the workload, runs its
operations in a closed loop for ``--seconds``, checks every output
against the oracle, and prints a report.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  The exit code is 0 only when every operation
succeeded and matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench_state")
SESSIONS = 2  # Ray sessions per run, each with its own set-up and window
RUN_LIMIT_S = 170  # a run that is still going is stopped, without a result
OP_TIMEOUT_S = 60  # an operation slower than this counts as failed
# Ray's session files go to a short per-run directory, removed after each
# session, not under the checkout: Ray's AF_UNIX socket paths may not
# exceed 107 bytes, and a deep checkout path would break that limit
RAY_TMP = f"/tmp/pbray-{os.getpid()}"

# the E2E metrics of BENCHMARK.json, with units
E2E = {"rows_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    return ap.parse_args(argv)


def _env() -> None:
    os.chdir(ROOT)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    # Ray workers import sylk and perfbench through PYTHONPATH
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    for k, v in (("RAY_USAGE_STATS_ENABLED", "0"),
                 ("RAY_DATA_DISABLE_PROGRESS_BARS", "1"),
                 ("RAY_DEDUP_LOGS", "0"),
                 ("RAY_memory_monitor_refresh_ms", "0")):
        os.environ.setdefault(k, v)


def _watchdog() -> threading.Timer:
    def fire():
        from perfbench.host import descendants, stop_all

        print(f"perfbench: run exceeded {RUN_LIMIT_S} s; stopping",
              file=sys.stderr, flush=True)
        stop_all(descendants(os.getpid()), grace_s=0)
        shutil.rmtree(RAY_TMP, ignore_errors=True)
        os._exit(3)

    t = threading.Timer(RUN_LIMIT_S, fire)
    t.daemon = True
    t.start()
    return t


def _ray_init(cpus: int) -> None:
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2**20,
             _system_config={"idle_worker_killing_time_threshold_ms": 600_000},
             _temp_dir=RAY_TMP)


def _median(xs, default=0.0):
    xs = list(xs)
    return statistics.median(xs) if xs else default


def _run_window(wl, tracer, seen, absent, session):
    """One session's share of the timed window: the workload's plan,
    closed loop.  ``seen`` counts operations per (kind, phase) across
    sessions, so a traced run alternates traced and untraced operations
    throughout, within each phase of the workload's state."""
    from perfbench import layers, oracle
    from perfbench.trace import NullTracer
    from perfbench.workloads import Op, text_bytes

    always = ("ingest", "delete", "compact")  # few of each: trace them all
    null = NullTracer()
    ops = []
    t0 = time.perf_counter()
    for kind, fn in wl.steps(lambda: time.perf_counter() - t0):
        phase = wl.phase()
        k = seen.get((kind, phase), 0)
        seen[(kind, phase)] = k + 1
        # a traced run alternates: every other operation of a kind and
        # phase is traced, so the untraced ones give the overhead's
        # reference in the same state of the workload
        traced = tracer is not None and (k % 2 == 1
                                         or kind.split(":")[0] in always)
        patches = layers.install(tracer) if traced else None
        root, err, rows, payload = None, None, 0, {}
        t1 = time.perf_counter()
        try:
            if traced:
                with tracer.span(f"bench.{kind}") as root:
                    rows, payload = fn(tracer)
            else:
                rows, payload = fn(null)
        except Exception as e:  # the loop records the failure and goes on
            traceback.print_exc(file=sys.stderr)
            err = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t1
        if patches is not None:
            patches.restore()
            absent.update(patches.absent)
        if err is None and wall > OP_TIMEOUT_S:
            err = f"timeout: {wall:.1f} s > {OP_TIMEOUT_S} s"
        if traced and "summary" in payload:
            # what the operation wrote, walked now: a later operation may
            # replace the directory (follow_incremental restores its state)
            new = (oracle.routed_files(payload["summary"]["out_dir"])
                   - payload.get("routed_before", set()))
            payload["walk"] = layers.walk_output(sorted(new))
            payload["in_bytes"] = text_bytes(payload["new"])
            with open(os.path.join(payload["summary"]["out_dir"],
                                   "manifest.jsonl")) as f:
                payload["manifest_lines"] = sum(1 for line in f if line.strip())
        ops.append(Op(kind, wall, rows, traced, root, payload, err, session,
                      phase))
    return ops


def _trace_report(wl, tracer, ops, absent_patches, out):
    """Per-layer metrics and the self-time table of a traced run."""
    from perfbench import layers

    traced = [o for o in ops if o.traced and o.error is None]
    kernel = None
    files = wl.kernel_files(ops)
    if files:
        kernel = layers.kernel_pass(files, tracer)
        absent_patches.update(kernel.pop("absent"))
    walks = [o.payload["walk"] for o in traced if "walk" in o.payload]
    in_bytes = [o.payload["in_bytes"] for o in traced if "walk" in o.payload]
    # overhead: each traced operation against the median untraced
    # operation of the same kind in the same phase
    ref = {}
    for o in ops:
        if not o.traced and o.error is None:
            ref.setdefault((o.kind, o.phase), []).append(o.wall)
    matched = [o for o in traced if (o.kind, o.phase) in ref]
    untraced_ref = sum(_median(ref[(o.kind, o.phase)]) for o in matched)
    overhead = sum(o.wall for o in matched) - untraced_ref
    values, absent = layers.compute(tracer, ops, kernel, walks, in_bytes,
                                    overhead, absent_patches, wl.name)

    wall = sum(o.wall for o in traced)
    selfs: dict[str, float] = {}
    for o in traced:
        for layer, s in tracer.self_times(o.root).items():
            selfs[layer] = selfs.get(layer, 0.0) + s
    out.append(f"  traced operations: {len(traced)}, traced wall {wall:.3f} s")
    out.append("  layer        self_s   share  (time at each instant goes to the"
               " innermost open spans, split evenly when spans run at once)")
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        out.append(f"  {layer:<12} {s:7.3f}  {s / wall if wall else 0:6.1%}")
    out.append(f"  sum of self times {sum(selfs.values()):.3f} s = traced wall"
               f" {wall:.3f} s; untraced reference for the {len(matched)}"
               f" traced operations with an untraced twin {untraced_ref:.3f} s;"
               f" tracing overhead {overhead:+.3f} s")
    out.append("  per-layer metrics (per traced operation unless named p50):")
    for name, unit in layers.METRICS:
        line = f"    {name:<30} {values[name]:>14.6g} {unit}"
        if name in layers.BASES:
            line += f"  (base: {layers.BASES[name]})"
        if name in absent:
            line += f"  absent: {absent[name]}"
        out.append(line)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.METRICS}


def main(argv=None) -> int:
    args = _args(argv)
    _env()
    t_start = time.perf_counter()
    try:
        import ray
        import ray.data

        import sylk.pipelines.flagship  # noqa: F401
        import sylk.stages.aggregate  # noqa: F401
        import sylk.stages.ann_store  # noqa: F401
        import sylk.stages.text_index  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import sylk ({e}); run it from the root of"
              " a sylk checkout", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - t_start

    from perfbench import host, inputs
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    watchdog = _watchdog()
    cpus = len(os.sched_getaffinity(0))
    work = os.path.join(STATE, f"work-{os.getpid()}")
    ctx = Ctx(work=work, cache=os.path.join(STATE, "cache"), seed=args.seed,
              scale_name=args.scale, scale=inputs.SCALES[args.scale],
              seconds=args.seconds / SESSIONS, traced=bool(args.trace))
    wl = WORKLOADS[args.workload](ctx)
    report = [f"perfbench {wl.name}: seed {args.seed}, {args.seconds:g} s,"
              f" trace {args.trace}, scale {args.scale}, {cpus} CPUs"
              " (os.sched_getaffinity), one closed-loop client",
              f"  why: {wl.why}"]
    control = [host.drift_control()]
    steal0 = host.cpu_steal()
    t = time.perf_counter()
    wl.prepare()
    gen_s = time.perf_counter() - t
    tracer = Tracer(f"{wl.name}-s{args.seed}-{os.getpid()}") if args.trace else None
    ops, failures, setups, peaks, window_s, seen, absent = [], {}, [], [], 0.0, {}, {}
    mem_samples, mem_busy = 0, 0.0
    for k in range(SESSIONS):
        # Each session is a fresh Ray session with its own set-up and its
        # share of the window.  Run-to-run spread comes mostly from the
        # session (the same operation's median moved by up to 30% between
        # back-to-back sessions), so a run measures several.
        try:
            parts = []
            for step in (lambda: _ray_init(cpus), wl.warm, lambda: wl.build(k)):
                t = time.perf_counter()
                step()
                parts.append(time.perf_counter() - t)
            setups.append(parts)
            with host.PeakPss() as mem:
                t = time.perf_counter()
                new = _run_window(wl, tracer, seen, absent, k)
                window_s += time.perf_counter() - t
            peaks.append(mem.peak)
            mem_samples += mem.samples
            mem_busy += mem.busy_s
            base = len(ops)
            ops += new
            failures.update({base + i: o.error for i, o in enumerate(new) if o.error})
            for i, msg in wl.check(new):
                failures.setdefault(base + i, f"oracle mismatch: {msg}")
        finally:
            # Ray's workers are the raylet's children: take the whole tree
            # before the shutdown can re-parent any of them
            session = host.descendants(os.getpid())
            ray.shutdown()
            killed = host.stop_all(session)
            if killed:
                print(f"perfbench: killed {len(killed)} processes left after"
                      " ray.shutdown()", file=sys.stderr)
            shutil.rmtree(work, ignore_errors=True)
            shutil.rmtree(RAY_TMP, ignore_errors=True)
    setup_s = imports_s + _median(sum(p) for p in setups)
    layer_report: list[str] = []
    layer_metrics = None
    if tracer:
        layer_metrics = _trace_report(wl, tracer, ops, absent, layer_report)
        spans = os.path.join(STATE, f"spans-{tracer.run_id}.jsonl")
        tracer.dump(spans)
        layer_report.append(f"  {len(tracer.spans)} spans written to"
                            f" {os.path.relpath(spans, ROOT)}")
    e2e = wl.e2e([o for o in ops if o.error is None])
    control.append(host.drift_control())
    steal1 = host.cpu_steal()
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    watchdog.cancel()

    failed = len(failures)
    peak = max(peaks) / 2**20
    report += [
        f"  host control (no sylk code; fixed sha256+regex loops/s): before"
        f" {control[0]:.1f}, after {control[1]:.1f}; CPU steal {steal:.1%} of"
        " the machine's CPU time over the run",
        f"  setup_s {setup_s:.3f} s = imports {imports_s:.3f} + median over"
        f" {SESSIONS} sessions of (Ray start + warm-up + starting state): "
        + "; ".join(" + ".join(f"{x:.3f}" for x in p) for p in setups)
        + f"; inputs {gen_s:.3f} s outside setup",
        f"  {wl.rows_label} {e2e['rows_per_s']:.1f} 1/s ({e2e['rows_basis']})",
        f"  {wl.op_label} {e2e['op_s_p50']:.4f} s ({e2e['op_basis']})",
        "  operations (kind[@phase] wall_s): " + ", ".join(
            f"{o.kind}{'' if o.phase is None else f'@{o.phase}'} {o.wall:.3f}"
            f"{'*' if o.traced else ''}" for o in ops)
        + (" (* traced)" if args.trace else ""),
        f"  peak_rss_mb {peak:.1f} MiB (peak summed PSS of the driver and its"
        f" Ray session, {mem_samples} samples over {window_s:.1f} s, sampling"
        f" took {mem_busy:.3f} s)",
        f"  fail_share {failed / max(1, len(ops)):.4f} ({failed} of {len(ops)}"
        " operations failed: exception, timeout or oracle mismatch)",
    ]
    report += [f"  FAILED op {i} ({ops[i].kind}): {msg}"
               for i, msg in sorted(failures.items())]
    report += layer_report
    print("\n".join(report), flush=True)
    if layer_metrics is not None:
        metrics = layer_metrics
    else:
        values = {"rows_per_s": e2e["rows_per_s"], "op_s_p50": e2e["op_s_p50"],
                  "peak_rss_mb": peak, "setup_s": setup_s}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
