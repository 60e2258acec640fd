"""The one driver gather: ``collect`` runs an unmaterialized plan once,
returns one Arrow table whatever the block kinds, and types its empty
result; ``semi_join`` decides its tier, the first ``ann_ingest`` trains
and writes, and ``ann_topk_ivf`` trains and probes, without running
their input twice."""

import pyarrow as pa
import pytest
from conftest import scale_tier

import sylk.stages.join as join
from sylk.stages.collect import collect


def _counted(log):
    """A map_batches UDF that appends one line to ``log`` per call (a
    file, so calls in Ray workers are counted too)."""
    def _f(b: pa.Table) -> pa.Table:
        with open(log, "a") as fh:
            fh.write("call\n")
        return b
    return _f


def _calls(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def _two_blocks(log):
    import ray.data

    return ray.data.from_arrow([pa.table({"k": [1, 2]}),
                                pa.table({"k": [3, None]})]).map_batches(
        _counted(str(log)), batch_format="pyarrow", batch_size=None)


def test_collect_runs_the_plan_once_per_block(ray_session, tmp_path):
    log = tmp_path / "calls"
    mds, tbl = collect(_two_blocks(log))
    assert sorted(tbl.column("k").to_pylist(), key=str) == [1, 2, 3, None]
    assert mds.count() == 4
    assert _calls(log) == 2
    # above the limit: no table, and the materialized side is reused
    log2 = tmp_path / "calls2"
    mds, tbl = collect(_two_blocks(log2), limit=3)
    assert tbl is None and mds.count() == 4
    assert _calls(log2) == 2


def test_collect_converts_pandas_and_types_empty(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    _, tbl = collect(ds.map_batches(lambda df: df[df.k > 1],
                                    batch_format="pandas"))
    assert isinstance(tbl, pa.Table) and tbl.column("k").to_pylist() == [2, 3]
    _, empty = collect(ds.filter(expr="k > 10"))
    assert empty.num_rows == 0 and empty.schema.names == ["k"]
    assert empty.schema.field("k").type == pa.int64()


def test_collect_drops_empty_blocks_with_a_stale_schema(ray_session):
    """A 0-row block whose schema differs from the blocks with rows
    (an unprojected empty aggregate block) adds no rows and is dropped.
    An all-empty result keeps its first block's schema, so a projection
    runs in a map (as ``join._distinct_rows`` does): no unprojected
    block survives it, and ``hash_join`` types such a schemaless side
    as its key columns (tests/test_join.py::
    test_set_ops_keep_the_projected_schema)."""
    import ray.data

    stale = pa.table({"g": pa.array([], pa.int64()),
                      "df": pa.array([], pa.int64())})
    rows = pa.table({"g": pa.array([1, 2], pa.int64())})
    _, tbl = collect(ray.data.from_arrow([stale, rows]))
    assert tbl.schema.names == ["g"] and tbl.column("g").to_pylist() == [1, 2]
    _, empty = collect(ray.data.from_arrow([stale, rows.slice(0, 0)])
                       .map_batches(lambda b: b.select(["g"]),
                                    batch_format="pyarrow"))
    assert empty.num_rows == 0 and "df" not in empty.schema.names


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_semi_join_runs_the_right_side_once(ray_session, tmp_path,
                                            monkeypatch, tier):
    import ray.data

    if tier == "exchange":
        scale_tier(monkeypatch, join, "_DRIVER_JOIN_LIMIT")
    log = tmp_path / "calls"
    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4, 5],
                                                       pa.int64()),
                                         "v": list("abcde")}))
    got = join.semi_join(left, _two_blocks(log), on="k").to_pandas()
    assert sorted(got.k) == [1, 2, 3]
    assert _calls(log) == 2


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_first_ann_ingest_runs_its_input_once(ray_session, tmp_path,
                                              monkeypatch, tier):
    """The first ``ann_ingest`` trains the centroids on a hash-threshold
    sample and writes the increment from one materialized input, so an
    upstream UDF runs once per block; the centroids equal a separate
    ``IVFIndex.train`` over the same rows."""
    import numpy as np
    import ray.data

    from sylk.stages import store_fold
    from sylk.stages.ann_store import ann_ingest
    from sylk.stages.similarity import IVFIndex

    if tier == "exchange":
        scale_tier(monkeypatch, store_fold, "_DRIVER_INGEST_LIMIT")
    rng = np.random.default_rng(7)
    blocks = [pa.table({
        "vec_id": pa.array(range(i, i + 40), pa.int64()),
        "embedding": pa.array(rng.standard_normal((40, 4)).tolist(),
                              pa.list_(pa.float32()))}) for i in (0, 40)]
    log = tmp_path / "calls"
    store = str(tmp_path / "ann")
    # sample=8 of 80 rows: train takes its hash-threshold filter path
    stats = ann_ingest(ray.data.from_arrow(blocks).map_batches(
        _counted(str(log)), batch_format="pyarrow", batch_size=None),
        store, inc_id=1, n_cells=4, sample=8)
    assert _calls(log) == 2
    assert sum(stats.column("n_rows").to_pylist()) == 80
    ref = IVFIndex.train(ray.data.from_arrow(blocks), n_cells=4, sample=8)
    np.testing.assert_array_equal(
        np.load(f"{store}/centroids.npy"), ref.centroids)


def test_ann_topk_ivf_runs_its_input_once(ray_session, tmp_path):
    """``ann_topk_ivf`` trains on a hash-threshold sample and assigns
    cells from one materialized input, so an upstream UDF runs once per
    block (train's count, its sample pass and the assign map used to run
    it three times)."""
    import numpy as np
    import ray.data

    from sylk.stages.similarity import ann_topk_ivf

    rng = np.random.default_rng(3)
    blocks = [pa.table({
        "vec_id": pa.array(range(i, i + 40), pa.int64()),
        "embedding": pa.array(rng.standard_normal((40, 4)).tolist(),
                              pa.list_(pa.float32()))}) for i in (0, 40)]
    log = tmp_path / "calls"
    # sample=8 of 80 rows: train takes its hash-threshold filter path
    got = ann_topk_ivf(ray.data.from_arrow(blocks).map_batches(
        _counted(str(log)), batch_format="pyarrow", batch_size=None),
        rng.standard_normal((2, 4)), k=3, n_cells=4, nprobe=2,
        sample=8).to_pandas()
    assert _calls(log) == 2
    assert sorted(got.query_idx.unique()) == [0, 1]
    assert (got.groupby("query_idx").size() == 3).all()
