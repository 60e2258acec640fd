"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q

The smoke runs start one Ray session each, in a child process, at the
tiny scale; the rest is in-process and needs no Ray.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import inputs, layers, oracle, run
from perfbench.trace import Tracer
from perfbench.workloads import PROBES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_match_benchmark_json():
    spec = _bench_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == dict(layers.METRICS))
    # batch_count and follow_incremental run by name but are not among the
    # benchmark's workloads (README: the time budget of a full measurement)
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["batch_route", "store_search"]
    assert set(names) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    """A tiny run of every workload, checks included, prints exactly the
    metric names of BENCHMARK.json and exits 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    spec = _bench_json()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "store_search" and trace:
        # the overhead's reference: every probe kind runs traced and
        # untraced in both store states
        line = next(x for x in proc.stdout.splitlines()
                    if x.startswith("  operations (kind"))
        ops = line.split(": ", 1)[1].removesuffix(" (* traced)").split(", ")
        seen = {(kind, wall.endswith("*")) for kind, wall in map(str.split, ops)}
        assert {(f"probe:{p}@{s}", t) for p in PROBES for s in (0, 1)
                for t in (False, True)} <= seen


def test_missing_program_exits_nonzero(tmp_path):
    """In a directory holding only the benchmark, the run fails without
    printing a result."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_route",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _kind_shares(paths):
    idx = np.concatenate([pq.read_table(p, columns=["turn_idx"]).column(
        "turn_idx").to_numpy() for p in paths])
    kind = idx % 100
    return [float(np.mean(kind < 80)), float(np.mean((kind >= 80) & (kind < 90))),
            float(np.mean((kind >= 90) & (kind < 97))), float(np.mean(kind >= 97))]


def test_seed_determinism(tmp_path):
    def make(seed, where):
        return inputs.transcript_files(str(tmp_path / where), seed, 2,
                                       inputs.ROW_CYCLE)

    a1, a2, b = make(5, "a1"), make(5, "a2"), make(6, "b")
    assert inputs.input_digest(a1) == inputs.input_digest(a2)
    assert inputs.input_digest(a1) != inputs.input_digest(b)
    assert _kind_shares(a1) == _kind_shares(b) == [0.8, 0.1, 0.07, 0.03]
    d5 = inputs.docs_increment(5, 1, 50)
    assert d5.equals(inputs.docs_increment(5, 1, 50))
    assert not d5.equals(inputs.docs_increment(6, 1, 50))
    assert inputs.store_queries(5, 8) == inputs.store_queries(5, 8)
    assert inputs.store_queries(5, 8) != inputs.store_queries(6, 8)


@pytest.mark.parametrize("seed", [0, 1, 2, 99, 123456789, 2**40])
def test_row_base_is_aligned_and_int32_safe(seed):
    n = inputs.FULL.batch_files * inputs.FULL.batch_rows_per_file
    base = inputs.row_base(seed, n)
    assert base % inputs.ROW_CYCLE == 0
    assert 0 <= base and base + n < 2**31


def test_gate_detects_count_and_row_mismatches(tmp_path):
    want = {"rows": 3, "ok": 2, "sinks": {"1/2": 2}, "rejects": {"X": 1},
            "hostapp": {"h\x1fa": 2}}
    assert oracle.diff_counts(json.loads(json.dumps(want)), want) is None
    off = json.loads(json.dumps(want))
    off["sinks"] = {"1/2": 1, "1/3": 1}
    assert "sinks" in oracle.diff_counts(off, want)

    src = tmp_path / "in.parquet"
    rows = pa.table({"conv_id": ["a", "b"], "turn_idx": pa.array([1, 2], pa.int32()),
                     "text": ["x", "y"]})
    pq.write_table(rows, src)
    sink = tmp_path / "out" / "data" / "unit=u0" / "route=kern" / "route_key=err"
    sink.mkdir(parents=True)
    pq.write_table(rows.slice(1).append_column("ok", pa.array([True])),
                   sink / "p1.parquet")
    pq.write_table(rows.slice(0, 1).append_column("ok", pa.array([True])),
                   sink / "p0.parquet")
    assert oracle.routed_rows_diff(str(tmp_path / "out"), [str(src)]) is None
    pq.write_table(rows.slice(0, 1), sink / "p2.parquet")  # a duplicate row
    assert oracle.routed_rows_diff(str(tmp_path / "out"), [str(src)]) is not None


def test_self_times_sum_to_wall_with_concurrent_children():
    tr = Tracer("t")
    tr.spans = []
    from perfbench.trace import Span

    # root 0..10; a child 1..9 with two overlapping grandchildren
    tr.spans = [Span("bench.op", 0.0, 10.0, -1, "t"),
                Span("flagship.run", 1.0, 9.0, 0, "t"),
                Span("router.a", 2.0, 6.0, 1, "t"),
                Span("router.b", 4.0, 8.0, 1, "t"),
                Span("manifest.c", 5.0, 7.0, 1, "t")]
    st = tr.self_times(0)
    assert sum(st.values()) == pytest.approx(10.0)
    assert st["bench"] == pytest.approx(2.0)
    assert st["flagship"] == pytest.approx(2.0)  # 1..2 and 8..9
    # 2..4 a alone, 4..5 a+b, 5..6 a+b+c, 6..7 b+c, 7..8 b alone
    assert st["router"] == pytest.approx(2 + 1 + 2 / 3 + 0.5 + 1)
    assert st["manifest"] == pytest.approx(1 / 3 + 0.5)
