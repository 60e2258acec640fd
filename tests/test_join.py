"""Join operator family: broadcast vs distributed equivalence, semi/anti
tiering, post-join two-phase aggregation."""

import pandas as pd
import pyarrow as pa
import pytest
from conftest import scale_tier

from sylk.stages import join as J

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame, key):
    return df.sort_values(key).reset_index(drop=True)


@pytest.fixture()
def tables(ray_session):
    import ray.data

    left = ray.data.from_items(
        [{"k": i % 5, "v": float(i)} for i in range(40)])
    right = pa.table({"k": [0, 1, 2, 7], "name": ["a", "b", "c", "z"]})
    return left, right


def test_broadcast_equals_hash_join(tables):
    import ray.data

    left, right = tables
    b = J.broadcast_join(left, right, on=["k"]).to_pandas()
    h = J.hash_join(left, ray.data.from_arrow(right), on="k").to_pandas()
    cols = ["k", "v", "name"]
    pd.testing.assert_frame_equal(
        _norm(b[cols], ["k", "v"]), _norm(h[cols], ["k", "v"]))
    assert set(b.k) == {0, 1, 2}  # inner join drops keys 3, 4 and right-only 7


def test_semi_anti_tiering(tables, monkeypatch):
    import ray.data

    left, right = tables
    rds = ray.data.from_arrow(right)
    semi_b = J.semi_join(left, rds, on="k").to_pandas()
    anti_b = J.anti_join(left, rds, on="k").to_pandas()
    scale_tier(monkeypatch, J, "_DRIVER_KEY_LIMIT")
    semi_d = J.semi_join(left, rds, on="k").to_pandas()
    anti_d = J.anti_join(left, rds, on="k").to_pandas()
    key = ["k", "v"]
    pd.testing.assert_frame_equal(_norm(semi_b[key], key), _norm(semi_d[key], key))
    pd.testing.assert_frame_equal(_norm(anti_b[key], key), _norm(anti_d[key], key))
    assert set(semi_b.k) == {0, 1, 2}
    assert set(anti_b.k) == {3, 4}
    # semi/anti never duplicate left rows even with duplicate right keys
    dup_right = ray.data.from_items([{"k": 0}] * 7)
    semi_dup = J.semi_join(left, dup_right, on="k").to_pandas()
    assert len(semi_dup) == 8  # 40 rows / 5 keys, key 0 only


def test_grouped_agg_two_phase(ray_session):
    import numpy as np
    import ray.data

    ds = ray.data.from_items(
        [{"g": "ab"[i % 2], "x": i} for i in range(100)], override_num_blocks=8)
    out = J.grouped_agg(ds, ["g"], ["x"], count_name="n").to_pandas()
    out = _norm(out, ["g"])
    assert out.n.tolist() == [50, 50]
    assert out.x.tolist() == [sum(range(0, 100, 2)), sum(range(1, 100, 2))]


def test_cents_column_half_up(ray_session):
    import numpy as np

    t = pa.table({"p": [1.005, 2.675, 0.0, 10.994999999999999]})
    out = J.cents_column(t, "c", ["p"], lambda p: p * 100.0)
    # floor(x*100 + .5) on IEEE doubles: 1.005*100 rounds to
    # 100.49999... -> 100, while 2.675*100 rounds to exactly 267.5 ->
    # 268.  Decimal intuition doesn't apply; what matters is that DuckDB
    # computes the identical doubles, verified row-for-row against
    # FLOOR(p * 100 + 0.5) below.
    got = out.column("c").to_pylist()
    assert got == [100, 268, 0, 1100]
    import duckdb

    want = duckdb.sql(
        "SELECT CAST(FLOOR(p * 100 + 0.5) AS BIGINT) AS c FROM t"
    ).fetchall()
    assert [w[0] for w in want] == got


def test_bucketed_join_equals_hash_join(ray_session, tmp_path):
    import ray.data

    rows_l = [{"k": i % 37, "v": i} for i in range(500)]
    rows_r = [{"rk": i, "name": f"n{i}"} for i in range(0, 37, 2)]
    lds = ray.data.from_items(rows_l, override_num_blocks=6)
    rds = ray.data.from_items(rows_r)
    J.bucketed_write(lds, str(tmp_path / "l"), "k", 5)
    J.bucketed_write(rds, str(tmp_path / "r"), "rk", 5)
    b = J.bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                        on="k", right_on="rk").to_pandas()
    h = J.hash_join(ray.data.from_items(rows_l),
                    ray.data.from_items(rows_r),
                    on="k", right_on="rk").to_pandas()
    cols = ["k", "v", "name"]
    pd.testing.assert_frame_equal(
        _norm(b[cols], ["k", "v"]), _norm(h[cols], ["k", "v"]))


def test_bucketed_join_rejects_mismatched_stores(ray_session, tmp_path):
    import ray.data

    ds = ray.data.from_items([{"k": i} for i in range(20)])
    J.bucketed_write(ds, str(tmp_path / "a"), "k", 4)
    J.bucketed_write(ds, str(tmp_path / "b"), "k", 8)
    with pytest.raises(ValueError, match="bucket count mismatch"):
        J.bucketed_join(str(tmp_path / "a"), str(tmp_path / "b"), on="k")


def test_bloom_semi_anti_exact(ray_session):
    import ray.data

    left = ray.data.from_items(
        [{"k": i, "v": i * 2} for i in range(2000)], override_num_blocks=5)
    right = ray.data.from_items(
        [{"rk": i} for i in range(0, 2000, 3)], override_num_blocks=3)
    want_semi = J.semi_join(left, right, on="k", right_key="rk").to_pandas()
    want_anti = J.anti_join(left, right, on="k", right_key="rk").to_pandas()
    # tiny bloom (512 bits for ~667 keys) forces a high FP rate — the
    # exact join must still weed every false positive out
    for n_bits in (512, 1 << 16):
        got_semi = J.bloom_semi_join(left, right, on="k", right_key="rk",
                                     n_bits=n_bits).to_pandas()
        got_anti = J.bloom_semi_join(left, right, on="k", right_key="rk",
                                     anti=True, n_bits=n_bits).to_pandas()
        key = ["k"]
        pd.testing.assert_frame_equal(
            _norm(want_semi[["k", "v"]], key), _norm(got_semi[["k", "v"]], key))
        pd.testing.assert_frame_equal(
            _norm(want_anti[["k", "v"]], key), _norm(got_anti[["k", "v"]], key))


def test_bloom_prefilter_drops_rows(ray_session):
    import numpy as np
    import ray.data

    from sylk.stages.join import _bloom_maybe, build_bloom

    right = ray.data.from_items([{"rk": i} for i in range(100)])
    bits = build_bloom(right, "rk")
    probe = np.arange(100_000, 110_000, dtype=np.int64)
    fp = _bloom_maybe(bits, probe).mean()
    assert fp < 0.01  # definite-absent keys rarely pass
    assert _bloom_maybe(bits, np.arange(100, dtype=np.int64)).all()


def test_hash_join_first_block_empty(ray_session):
    """Regression for the Ray hash-shuffle schema-broadcast bug: the
    operator broadcasts schemas only with the FIRST block it shuffles,
    and a 0-row first block used to eat that broadcast, leaving empty
    partitions zero-column (ArrowInvalid FieldRef on finalize).  The
    join.py monkeypatch drops 0-row blocks from shuffle inputs."""
    import pyarrow as pa
    import ray.data

    from sylk.stages.join import hash_join

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "x": pa.array([], pa.int64())})
    good = pa.table({"k": pa.array([3, 4], pa.int64()),
                     "x": pa.array([1, 2], pa.int64())})
    left = ray.data.from_arrow([empty, good])
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "y": pa.array([7, 7, 7, 7, 7, 7], pa.int64())}))
    out = hash_join(left, right, on=("k",), num_partitions=4).take_all()
    assert sorted((r["k"], r["x"], r["y"]) for r in out) == \
        [(3, 1, 7), (4, 2, 7)]


def test_hash_join_full_outer_coalesces_keys(ray_session):
    """full_outer keeps unmatched rows from BOTH sides with the key
    coalesced into one column and the missing side null."""
    import pyarrow as pa
    import ray.data

    from sylk.stages.join import hash_join

    left = ray.data.from_arrow(pa.table({"h": [1, 2, 3],
                                         "x": [10, 20, 30]}))
    right = ray.data.from_arrow(pa.table({"h": [2, 3, 4],
                                          "y": [5, 6, 7]}))
    out = hash_join(left, right, on="h", join_type="full_outer",
                    num_partitions=2).to_pandas().set_index("h").sort_index()
    assert set(out.index) == {1, 2, 3, 4}
    assert out.loc[1].isna()["y"] and out.loc[4].isna()["x"]
    assert out.loc[2, "x"] == 20 and out.loc[2, "y"] == 5


def test_union_by_name_aligns_schemas(ray_session):
    """Missing columns null-fill, types cast to first-seen, canonical
    column order across all inputs."""
    import pyarrow as pa
    import ray.data

    from sylk.stages.join import union_by_name

    a = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                      "v": pa.array([1.5, 2.5],
                                                    pa.float64())}))
    b = ray.data.from_arrow(pa.table({"v": pa.array([9], pa.float32()),
                                      "extra": pa.array(["x"])}))
    out = union_by_name([a, b]).to_pandas()
    assert list(out.columns) == ["k", "v", "extra"]
    assert len(out) == 3
    assert out["k"].isna().sum() == 1 and out["extra"].isna().sum() == 2
    assert sorted(out["v"].tolist()) == [1.5, 2.5, 9.0]


def test_cross_join_cartesian(ray_session):
    import pyarrow as pa
    import ray.data

    from sylk.stages.join import cross_join

    left = ray.data.from_arrow(pa.table({"a": [1, 2, 3]}))
    right = pa.table({"b": ["x", "y"]})
    out = cross_join(left, right).to_pandas()
    assert len(out) == 6
    assert set(zip(out.a, out.b)) == {(i, c) for i in (1, 2, 3)
                                      for c in ("x", "y")}
