"""Join operator family: broadcast vs distributed equivalence, the two
tiers of hash_join and semi/anti, post-join two-phase aggregation."""

import pandas as pd
import pyarrow as pa
import pytest
from conftest import scale_tier

from sylk.stages import collect
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
    scale_tier(monkeypatch)
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


def _both_tiers(monkeypatch, fn):
    """``fn()`` in the driver tier, then in the exchange tier."""
    out = [fn()]
    with monkeypatch.context() as m:
        scale_tier(m)
        out.append(fn())
    return out


def test_hash_join_first_block_empty(ray_session, monkeypatch):
    """A 0-row first block on one side: Ray's own hash-shuffle join once
    lost the schema with it and failed on partitions with no rows."""
    import ray.data

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "x": pa.array([], pa.int64())})
    good = pa.table({"k": pa.array([3, 4], pa.int64()),
                     "x": pa.array([1, 2], pa.int64())})
    left = ray.data.from_arrow([empty, good])
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "y": pa.array([7, 7, 7, 7, 7, 7], pa.int64())}))
    for out in _both_tiers(monkeypatch, lambda: J.hash_join(
            left, right, on=("k",)).take_all()):
        assert sorted((r["k"], r["x"], r["y"]) for r in out) == \
            [(3, 1, 7), (4, 2, 7)]


def test_hash_join_full_outer_coalesces_keys(ray_session, monkeypatch):
    """full_outer keeps unmatched rows from BOTH sides with the key
    coalesced into one column and the missing side null."""
    import ray.data

    left = ray.data.from_arrow(pa.table({"h": [1, 2, 3],
                                         "x": [10, 20, 30]}))
    right = ray.data.from_arrow(pa.table({"h": [2, 3, 4],
                                          "y": [5, 6, 7]}))
    for out in _both_tiers(monkeypatch, lambda: J.hash_join(
            left, right, on="h", join_type="full_outer").to_pandas()):
        out = out.set_index("h").sort_index()
        assert set(out.index) == {1, 2, 3, 4}
        assert out.loc[1].isna()["y"] and out.loc[4].isna()["x"]
        assert out.loc[2, "x"] == 20 and out.loc[2, "y"] == 5


def _sides(case):
    """(left, right, on, right_on, join_type) Datasets for one case: a
    null key and duplicate keys on both sides, in several blocks."""
    import ray.data

    k32 = pa.int32() if case == "int32_key" else pa.int64()
    lblocks = [pa.table({"k": pa.array([0, 1, 2, None], k32),
                         "j": pa.array([0, 1, 0, 1], pa.int64()),
                         "x": ["a", "b", "c", "d"]}),
               pa.table({"k": pa.array([2, 3, 5, 5], k32),
                         "j": pa.array([0, 1, 1, 0], pa.int64()),
                         "x": ["e", "f", "g", "h"]})]
    if case == "first_block_empty":
        lblocks.insert(0, lblocks[0].slice(0, 0))
    if case.startswith("list_"):  # a list-typed payload column
        lblocks = [b.append_column("v", pa.array(
            [[i] for i in range(b.num_rows)], pa.list_(pa.int64())))
            for b in lblocks]
    rtable = pa.table({"rk": pa.array([1, 2, 2, 4, 5, None], pa.int64()),
                       "rj": pa.array([1, 0, 0, 0, 1, 1], pa.int64()),
                       "y": [10, 20, 21, 40, 50, 60]})
    left = ray.data.from_arrow(lblocks)
    right = ray.data.from_arrow([rtable.slice(0, 3), rtable.slice(3)])
    on, right_on, jt = "k", "rk", case
    if case == "composite":
        on, right_on, jt = ("k", "j"), ("rk", "rj"), "full_outer"
    elif case in ("int32_key", "first_block_empty"):
        jt = "full_outer"
    elif case.startswith("list_"):
        jt = case[len("list_"):]
    elif case.startswith("empty_"):
        _, side, kind = case.split("_")
        jt = "full_outer"

        def _empty(b: pa.Table) -> pa.Table:
            return b.slice(0, 0) if kind == "typed" else pa.table({})

        if side == "left":
            left = left.map_batches(_empty, batch_format="pyarrow")
        else:
            right = right.map_batches(_empty, batch_format="pyarrow")
    return left, right, on, right_on, jt


def _answer(ds):
    rows = sorted((tuple(sorted(r.items())) for r in ds.take_all()), key=repr)
    schema = ds.schema()
    return rows, list(zip(schema.names, map(str, schema.types)))


_CASES = ["inner", "left_outer", "full_outer", "left_semi", "left_anti",
          "composite", "int32_key", "first_block_empty",
          "empty_left_typed", "empty_left_schemaless",
          "empty_right_typed", "empty_right_schemaless",
          "list_left_semi", "list_left_anti"]


@pytest.mark.parametrize("case", _CASES)
def test_hash_join_tiers_agree(ray_session, monkeypatch, case):
    """The driver tier (with Ray's Dataset.join and groupby patched to
    raise: it starts no shuffle) and the exchange tier give the same
    rows and the same output schema.  A semi/anti join keeps a
    list-typed left column, which pyarrow's join rejects outside the
    keys (the ``list_`` cases)."""
    import ray.data

    def _no_shuffle(*a, **k):
        raise AssertionError("the driver tier started a shuffle")

    left, right, on, right_on, jt = _sides(case)
    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "join", _no_shuffle)
        m.setattr(ray.data.Dataset, "groupby", _no_shuffle)
        driver = _answer(J.hash_join(left, right, on, right_on, jt))
    with monkeypatch.context() as m:
        scale_tier(m)
        exchange = _answer(J.hash_join(left, right, on, right_on, jt))
    assert driver == exchange
    rows, schema = driver
    if case == "int32_key":
        assert ("k", "int32") in schema
    if jt in ("inner", "left_semi", "left_anti"):
        keys = sorted(dict(r)["k"] for r in rows if dict(r)["k"] is not None)
        assert keys == {"inner": [1, 2, 2, 2, 2, 5, 5],
                        "left_semi": [1, 2, 2, 5, 5],
                        "left_anti": [0, 3]}[jt]
    # a schemaless empty side is typed as its key columns alone
    if case == "empty_right_typed":
        assert len(rows) == 8 and [n for n, _ in schema] == ["k", "j", "x",
                                                             "rj", "y"]
    if case == "empty_right_schemaless":
        assert len(rows) == 8 and [n for n, _ in schema] == ["k", "j", "x"]
    if case.startswith("empty_left"):
        assert len(rows) == 6 and schema[0] == ("k", "int64")


def test_hash_join_tier_follows_block_bytes(ray_session, monkeypatch):
    """The tier is picked from the in-memory bytes of both materialized
    sides: at a driver budget of their sum the driver joins, one byte
    below it the public groupby exchange runs."""
    import ray.data

    left = ray.data.from_arrow(pa.table({"k": list(range(100)),
                                         "x": ["x" * 50] * 100}))
    right = ray.data.from_arrow(pa.table({"k": list(range(0, 100, 2))}))
    size = left.size_bytes() + right.size_bytes()
    groupbys = []
    real = ray.data.Dataset.groupby

    def _spy(self, *a, **k):
        groupbys.append(a)
        return real(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "groupby", _spy)
    for limit, exchanged in ((size, False), (size - 1, True)):
        monkeypatch.setattr(collect, "DRIVER_BUDGET", limit)
        groupbys.clear()
        assert J.hash_join(left, right, on="k").count() == 50
        assert bool(groupbys) == exchanged


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_verify_pairs_join_keeps_the_input_blocks(ray_session, monkeypatch,
                                                  tier):
    """Pair verification above the broadcast tier keeps the 4 blocks of
    its inputs in both tiers (the driver tier slices each join's result
    into as many blocks as its larger input), so the Python pair map
    after the joins runs in parallel, and both tiers verify the same
    pairs."""
    import ray.data

    from sylk.stages import dedup as D

    if tier == "exchange":
        scale_tier(monkeypatch)
    n = 6000
    # every candidate twice (two colliding bands), plus a pair whose b
    # is missing from the source
    pairs = pa.table({
        "a": pa.array(list(range(n)) * 2 + [0], pa.int64()),
        "b": pa.array([(i + 1) % n for i in range(n)] * 2 + [n + 5],
                      pa.int64())})
    src = pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": [str(i % 7) for i in range(n)]})
    pairs_ds = ray.data.from_arrow([pairs.slice(i, 3001)
                                    for i in range(0, len(pairs), 3001)])
    src_ds = ray.data.from_arrow([src.slice(i, 1500)
                                  for i in range(0, n, 1500)])

    def _same(ta, tb):
        return 1.0 if ta == tb else None

    out = D._verify_pairs_join(pairs_ds, src_ds, "doc_id", "text", _same,
                               "score").materialize()
    got = sorted((r["a"], r["b"]) for r in out.take_all())
    # i % 7 == (i + 1) % 7 only at the wrap-around n - 1 -> 0
    assert got == [(n - 1, 0)]
    assert out.num_blocks() == 4


def test_set_ops_keep_the_projected_schema(ray_session, monkeypatch):
    """An empty INTERSECT / EXCEPT has the projected columns only: the
    DISTINCT's count column never reaches a block of the result."""
    import ray
    import ray.data

    a = ray.data.from_arrow([pa.table({"g": [1, 1], "x": [0, 1]}),
                             pa.table({"g": [2, 2], "x": [0, 1]})])
    b = ray.data.from_arrow(pa.table({"g": [9], "x": [0]}))
    for out in _both_tiers(monkeypatch, lambda: [
            J.intersect_distinct(a, b, ["g"]),
            J.except_distinct(b, b, "g"),
            J.except_distinct(a.filter(expr="g > 5"), b, ["g"])]):
        for ds in out:
            ds = ds.materialize()
            assert ds.count() == 0
            assert {tuple(t.schema.names)
                    for t in ray.get(ds.to_arrow_refs()) if t.num_columns} \
                <= {("g",)}


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
