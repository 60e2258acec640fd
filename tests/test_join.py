"""Join operator family: the three tiers of hash_join (driver,
broadcast, exchange) and semi/anti, registry parity in the broadcast
tier, post-join two-phase aggregation."""

import pandas as pd
import pyarrow as pa
import pytest
from conftest import spy_join_tiers

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


def test_semi_anti_tiering(tables, monkeypatch):
    import ray.data

    left, right = tables
    rds = ray.data.from_arrow(right)
    # a budget of the right side's bytes holds its key column alone
    (semi_b, anti_b), *others = _tiers(monkeypatch, lambda: [
        J.semi_join(left, rds, on="k").to_pandas(),
        J.anti_join(left, rds, on="k").to_pandas()], rds.size_bytes())
    key = ["k", "v"]
    for semi_d, anti_d in others:
        pd.testing.assert_frame_equal(_norm(semi_b[key], key),
                                      _norm(semi_d[key], key))
        pd.testing.assert_frame_equal(_norm(anti_b[key], key),
                                      _norm(anti_d[key], key))
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


def _tiers(monkeypatch, fn, broadcast_budget=None):
    """``fn()`` in the driver tier, then at ``broadcast_budget`` (when
    given: at least the right side's bytes and below both sides', the
    broadcast tier), then in the exchange tier.  Asserts each run's
    joins took its tier."""
    runs = [(collect.DRIVER_BUDGET, None), (-1, "exchange")]
    if broadcast_budget is not None:
        runs.insert(1, (broadcast_budget, "broadcast"))
    out = []
    for budget, tier in runs:
        with monkeypatch.context() as m:
            m.setattr(collect, "DRIVER_BUDGET", budget)
            taken = spy_join_tiers(m)
            out.append(fn())
        assert set(taken) == ({tier} if tier else set()), (budget, taken)
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
    for out in _tiers(monkeypatch, lambda: J.hash_join(
            left, right, on=("k",)).take_all(), right.size_bytes()):
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
    for out in _tiers(monkeypatch, lambda: J.hash_join(
            left, right, on="h", join_type="full_outer").to_pandas()):
        out = out.set_index("h").sort_index()
        assert set(out.index) == {1, 2, 3, 4}
        assert out.loc[1].isna()["y"] and out.loc[4].isna()["x"]
        assert out.loc[2, "x"] == 20 and out.loc[2, "y"] == 5


_JOIN_TYPES = ("inner", "left_outer", "full_outer", "left_semi", "left_anti")


def _sides(case):
    """(left, right, on, right_on, join_type, shape) for one case: a
    null key and duplicate keys on both sides, in several blocks.  A
    case is a shape, a join type, or a shape then a join type
    (``full_outer`` when none is named)."""
    import ray.data

    jt = next((t for t in _JOIN_TYPES if case.endswith(t)), "full_outer")
    shape = case[:-len(jt)].rstrip("_") if case.endswith(jt) else case
    k32 = pa.int32() if shape == "int32_key" else pa.int64()
    lblocks = [pa.table({"k": pa.array([0, 1, 2, None], k32),
                         "j": pa.array([0, 1, 0, 1], pa.int64()),
                         "x": ["a", "b", "c", "d"]}),
               pa.table({"k": pa.array([2, 3, 5, 5], k32),
                         "j": pa.array([0, 1, 1, 0], pa.int64()),
                         "x": ["e", "f", "g", "h"]})]
    if shape == "first_block_empty":
        lblocks.insert(0, lblocks[0].slice(0, 0))
    if shape == "schemaless_block":  # a 0-row left block with no columns
        lblocks.insert(1, pa.table({}))
    if shape == "list":  # a list-typed payload column
        lblocks = [b.append_column("v", pa.array(
            [[i] for i in range(b.num_rows)], pa.list_(pa.int64())))
            for b in lblocks]
    rtable = pa.table({"rk": pa.array([1, 2, 2, 4, 5, None], pa.int64()),
                       "rj": pa.array([1, 0, 0, 0, 1, 1], pa.int64()),
                       "y": [10, 20, 21, 40, 50, 60]})
    if shape == "same_name":  # a right payload column named like a left one
        rtable = rtable.rename_columns(["rk", "rj", "x"])
    left = ray.data.from_arrow(lblocks)
    right = ray.data.from_arrow([rtable.slice(0, 3), rtable.slice(3)])
    on, right_on = "k", "rk"
    if shape == "composite":
        on, right_on = ("k", "j"), ("rk", "rj")
    elif shape.startswith("empty_"):
        _, side, kind = shape.split("_")

        def _empty(b: pa.Table) -> pa.Table:
            return b.slice(0, 0) if kind == "typed" else pa.table({})

        if side == "left":
            left = left.map_batches(_empty, batch_format="pyarrow")
        else:
            right = right.map_batches(_empty, batch_format="pyarrow")
    return left, right, on, right_on, jt, shape


def _answer(ds):
    rows = sorted((tuple(sorted(r.items())) for r in ds.take_all()), key=repr)
    schema = ds.schema()
    return rows, list(zip(schema.names, map(str, schema.types)))


_CASES = ["inner", "left_outer", "full_outer", "left_semi", "left_anti",
          "composite", "int32_key", "first_block_empty",
          "empty_left_typed", "empty_left_schemaless",
          "empty_right_typed", "empty_right_schemaless",
          "list_left_semi", "list_left_anti",
          "first_block_empty_left_outer", "schemaless_block_inner",
          "empty_right_typed_left_outer", "empty_right_schemaless_left_outer",
          "empty_right_typed_left_anti", "empty_right_schemaless_left_semi",
          "same_name_inner", "same_name_left_outer"]


@pytest.mark.parametrize("case", _CASES)
def test_hash_join_tiers_agree(ray_session, monkeypatch, case):
    """The driver tier, the broadcast tier (a budget of the right side's
    bytes) and the exchange tier give the same rows and the same output
    schema.  Neither the driver nor the broadcast tier starts a shuffle
    (Ray's Dataset.join and groupby patched to raise), and the broadcast
    tier keeps the left side's block count.  A join type that needs the
    right side's unmatched rows takes the exchange at that budget, and a
    left side of 0 bytes keeps both sides in the driver.  A semi/anti
    join keeps a list-typed left column, which pyarrow's join rejects
    outside the keys (the ``list`` cases).  A right non-key column named
    like a left column comes out as ``<name>_r`` (the ``same_name``
    cases)."""
    import ray.data

    def _no_shuffle(*a, **k):
        raise AssertionError("the tier started a shuffle")

    left, right, on, right_on, jt, shape = _sides(case)
    left, right = left.materialize(), right.materialize()
    middle = ("driver" if not left.size_bytes()
              else "broadcast" if jt in J._BROADCAST_TYPES else "exchange")
    answers = []
    for tier, budget in (("driver", collect.DRIVER_BUDGET),
                         (middle, right.size_bytes()), ("exchange", -1)):
        with monkeypatch.context() as m:
            m.setattr(collect, "DRIVER_BUDGET", budget)
            if tier != "exchange":
                m.setattr(ray.data.Dataset, "join", _no_shuffle)
                m.setattr(ray.data.Dataset, "groupby", _no_shuffle)
            taken = spy_join_tiers(m)
            out = J.hash_join(left, right, on, right_on, jt).materialize()
            answers.append(_answer(out))
        assert taken == ([] if tier == "driver" else [tier])
        if tier == "broadcast":
            assert out.num_blocks() == left.num_blocks()
    driver, *others = answers
    assert all(a == driver for a in others)
    rows, schema = driver
    if shape == "int32_key":
        assert ("k", "int32") in schema
    if jt in ("inner", "left_semi", "left_anti") and not shape.startswith(
            "empty_"):
        keys = sorted(dict(r)["k"] for r in rows if dict(r)["k"] is not None)
        assert keys == {"inner": [1, 2, 2, 2, 2, 5, 5],
                        "left_semi": [1, 2, 2, 5, 5],
                        "left_anti": [0, 3]}[jt]
    # a schemaless empty side is typed as its key columns alone
    if shape.startswith("empty_right"):
        names = ["k", "j", "x"]
        if shape == "empty_right_typed" and jt in ("full_outer",
                                                   "left_outer"):
            names += ["rj", "y"]
        assert [n for n, _ in schema] == names
        assert len(rows) == (0 if jt == "left_semi" else 8)
    if shape.startswith("empty_left"):
        assert len(rows) == 6 and schema[0] == ("k", "int64")
    if shape == "same_name":
        assert [n for n, _ in schema] == ["k", "j", "x", "rj", "x_r"]
        assert ("b", 10) in {(dict(r)["x"], dict(r)["x_r"]) for r in rows}


def test_hash_join_tier_follows_block_bytes(ray_session, monkeypatch):
    """The tier is picked from the in-memory bytes of both materialized
    sides: at a driver budget of their sum the driver joins, one byte
    below it the right side is broadcast, and one byte below the right
    side's bytes the public groupby exchange runs.  A full_outer join
    needs the right side's unmatched rows, so one byte below the sum it
    takes the exchange."""
    import ray.data

    left = ray.data.from_arrow(pa.table({"k": list(range(100)),
                                         "x": ["x" * 50] * 100}))
    right = ray.data.from_arrow(pa.table({"k": list(range(0, 100, 2))}))
    size, rsize = left.size_bytes() + right.size_bytes(), right.size_bytes()
    for budget, jt, n, tier in ((size, "inner", 50, []),
                                (size - 1, "inner", 50, ["broadcast"]),
                                (rsize - 1, "inner", 50, ["exchange"]),
                                (size - 1, "full_outer", 100, ["exchange"])):
        with monkeypatch.context() as m:
            m.setattr(collect, "DRIVER_BUDGET", budget)
            taken = spy_join_tiers(m)
            assert J.hash_join(left, right, on="k", join_type=jt).count() == n
        assert taken == tier, (budget, jt)


@pytest.mark.parametrize("tier", ["driver", "broadcast", "exchange"])
def test_verify_pairs_tiers(ray_session, monkeypatch, tier):
    """Pair verification verifies the same pairs in every tier of its
    two source-left joins and keeps the 4 blocks of its inputs, so the
    Python pair map after the joins runs in parallel.  At a budget
    between the pairs' bytes and the pairs' plus the source's bytes
    both joins broadcast the pairs: the source is never shuffled."""
    import ray.data

    from sylk.stages import dedup as D

    n = 6000
    # distinct candidates (the generators deduplicate), plus a pair
    # whose b is missing from the source
    pairs = pa.table({
        "a": pa.array(list(range(n)) + [0], pa.int64()),
        "b": pa.array([(i + 1) % n for i in range(n)] + [n + 5],
                      pa.int64())})
    src = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": [str(i % 7) for i in range(n)]})
    pairs_ds = ray.data.from_arrow([pairs.slice(i, 1501)
                                    for i in range(0, len(pairs), 1501)
                                    ]).materialize()
    src_ds = ray.data.from_arrow([src.slice(i, 1500)
                                  for i in range(0, n, 1500)]).materialize()
    budget = {"driver": collect.DRIVER_BUDGET, "exchange": -1,
              "broadcast": pairs_ds.size_bytes() + src_ds.size_bytes() - 1}
    monkeypatch.setattr(collect, "DRIVER_BUDGET", budget[tier])
    taken = spy_join_tiers(monkeypatch)

    def _same(ta, tb):
        return 1.0 if ta == tb else None

    out = D._verify_pairs(pairs_ds, src_ds, "doc_id", "text", _same,
                          "score").materialize()
    assert taken == ([] if tier == "driver" else [tier] * 2)
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
    # the distinct right side fits alone at its own bytes
    budget = J._distinct_rows(b, ["g"]).materialize().size_bytes()
    for out in _tiers(monkeypatch, lambda: [
            J.intersect_distinct(a, b, ["g"]),
            J.except_distinct(b, b, "g"),
            J.except_distinct(a.filter(expr="g > 5"), b, ["g"])], budget):
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


# a budget per entry that holds each of its joins' right side and not
# both sides (block-metadata bytes of the sides at sf0.001, right / left)
_BROADCAST_ENTRIES = {
    "region_rollup": 8 << 10,  # customer dim 4.8 KB / orders 24 KB
    # supplier dim 0.2 KB / lineitem 192 KB, part dim 4.0 KB / 269 KB
    "supplier_brand_revenue": 8 << 10,
    "big_spender_customers": 4 << 10,  # big-order keys 2.4 KB / 3.1 KB
    "customers_without_big_orders": 4 << 10,
    "quiet_user_counts": 4 << 10,  # 03:00 error users 88 B / 8 KB
    "mktsegment_rollup_bucketed": 4 << 10,  # broadcasts bucket by bucket
    "priority_join_rollup": 64 << 10,  # orders 31 KB / lineitem 144 KB
}


@pytest.fixture(scope="module")
def registry(ray_session):
    import duckdb

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "nation", "region",
              "supplier", "part", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    return e.queries(), e.oracle_sql(), con


@pytest.mark.parametrize("name", sorted(_BROADCAST_ENTRIES))
def test_join_entries_match_oracle_in_broadcast_tier(registry, monkeypatch,
                                                      name):
    """Each join entry of the registry matches its DuckDB oracle at a
    budget that holds each join's right side and not both sides: the
    broadcast tier runs, the exchange never."""
    qs, sql, con = registry

    def _canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns),
                              kind="mergesort").reset_index(drop=True)

    monkeypatch.setattr(collect, "DRIVER_BUDGET", _BROADCAST_ENTRIES[name])
    taken = spy_join_tiers(monkeypatch)
    got = _canon(qs[name](SF).to_pandas())
    assert taken and set(taken) == {"broadcast"}, taken
    pd.testing.assert_frame_equal(got, _canon(con.execute(sql[name]).df()),
                                  check_dtype=True)
