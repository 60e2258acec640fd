"""The one driver gather: ``collect`` runs an unmaterialized plan once,
returns one Arrow table whatever the block kinds, and types its empty
result; ``semi_join`` decides its tier, and the first ``ann_ingest``
trains and writes, without running their input twice."""

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


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_semi_join_runs_the_right_side_once(ray_session, tmp_path,
                                            monkeypatch, tier):
    import ray.data

    if tier == "exchange":
        scale_tier(monkeypatch, join, "_DRIVER_KEY_LIMIT")
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
