"""topk_per_group / grouped_quantiles / exact_distinct_count edge cases."""

import duckdb
import pandas as pd
import pytest

from sylk.stages.aggregate import (exact_distinct_count, grouped_quantiles,
                                   topk_per_group)


def test_topk_tie_break_deterministic(ray_session):
    import ray.data

    counts = ray.data.from_items([
        {"g": "h1", "app": "zz", "n": 5},
        {"g": "h1", "app": "aa", "n": 5},   # tie with zz -> aa ranks first
        {"g": "h1", "app": "mm", "n": 9},
        {"g": "h1", "app": "qq", "n": 1},
        {"g": "h2", "app": "solo", "n": 2},  # group smaller than k
    ])
    out = topk_per_group(counts, ["g"], "n", 3, tie_cols=["app"]).to_pandas()
    h1 = out[out.g == "h1"].sort_values("rank")
    assert list(h1.app) == ["mm", "aa", "zz"]
    assert list(h1["rank"]) == [1, 2, 3]
    h2 = out[out.g == "h2"]
    assert list(h2.app) == ["solo"] and list(h2["rank"]) == [1]


@pytest.mark.parametrize("qs", [[0.5, 0.9, 0.99], [0.0, 1.0], [0.75]])
def test_grouped_quantiles_match_duckdb(ray_session, qs):
    import ray.data

    rows = []
    # heavily duplicated values, a singleton group, an all-equal group
    for i in range(137):
        rows.append({"k": "a", "v": (i * 7) % 13})
    rows.append({"k": "single", "v": 42})
    for i in range(50):
        rows.append({"k": "const", "v": 5})
    ds = ray.data.from_items(rows, override_num_blocks=4)
    names = [f"q{int(q*100)}" for q in qs]
    got = grouped_quantiles(ds, "k", "v", qs, names).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    df = pd.DataFrame(rows)
    sel = ", ".join(f"quantile_disc(v, {q}) AS q{int(q*100)}" for q in qs)
    want = duckdb.sql(f"SELECT k, {sel} FROM df GROUP BY 1 ORDER BY k").df()
    pd.testing.assert_frame_equal(got[["k"] + names], want[["k"] + names],
                                  check_dtype=False)


def test_exact_distinct_count(ray_session):
    import ray.data

    ds = ray.data.from_items(
        [{"h": f"host{i % 17}"} for i in range(400)], override_num_blocks=8)
    assert exact_distinct_count(ds, "h") == 17


def test_sliding_window_counts_membership(ray_session):
    import ray.data

    from sylk.stages.aggregate import sliding_window_counts

    # one event at t=3700 must land in windows starting 900,1800,2700,3600
    ds = ray.data.from_items([{"timestamp": 3700, "facility": 1}])
    out = sliding_window_counts(ds, "timestamp", ["facility"],
                                window=3600, slide=900).to_pandas()
    assert sorted(out.w_start) == [900, 1800, 2700, 3600]
    assert set(out.n) == {1}


def test_rollup_counts_levels(ray_session):
    import ray.data

    from sylk.stages.aggregate import rollup_counts

    rows = [{"ok": True, "facility": f, "severity": s}
            for f in (0, 1) for s in (0, 1, 2) for _ in range(f + s + 1)]
    ds = ray.data.from_items(rows, override_num_blocks=3)
    out = rollup_counts(ds, ["facility", "severity"]).to_pandas()
    total = len(rows)
    assert int(out[out.facility.isna() & out.severity.isna()].n.iloc[0]) == total
    f0 = out[(out.facility == 0) & out.severity.isna()]
    assert int(f0.n.iloc[0]) == 1 + 2 + 3
    leaf = out[(out.facility == 1) & (out.severity == 2)]
    assert int(leaf.n.iloc[0]) == 4
    assert len(out) == 6 + 2 + 1


def test_gap_sessions_hot_key_across_blocks(ray_session):
    import ray.data

    from sylk.stages.sessionize import gap_sessions

    # hot user 7: 600 events in 3 bursts separated by > gap; user 8: one event
    rows = []
    for burst in range(3):
        for i in range(200):
            rows.append({"user_id": 7, "t": burst * 100_000 + i * 10})
    rows.append({"user_id": 8, "t": 5})
    ds = ray.data.from_items(rows, override_num_blocks=16)
    out = gap_sessions(ds, "user_id", "t", gap=1800).to_pandas() \
        .set_index("user_id")
    assert out.loc[7, "n_sessions"] == 3
    assert out.loc[7, "n_events"] == 600
    assert out.loc[8, "n_sessions"] == 1 and out.loc[8, "n_events"] == 1


def test_fill_forward_cross_block_carry(ray_session):
    import numpy as np
    import ray.data

    from sylk.stages.asof import fill_forward

    # one hot key spread over 16 blocks; markers only at t=100 and t=700;
    # a cold key with no marker at all stays null throughout
    rows = [{"k": 1, "t": t, "v": float(t) if t in (100, 700) else None}
            for t in range(1000)]
    rows += [{"k": 2, "t": t, "v": None} for t in range(50)]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    out = fill_forward(ds, "k", ["t"], "v", "ff").to_pandas()
    hot = out[out.k == 1].sort_values("t")
    assert hot.ff[hot.t < 100].isna().all()
    assert (hot.ff[(hot.t >= 100) & (hot.t < 700)] == 100.0).all()
    assert (hot.ff[hot.t >= 700] == 700.0).all()
    assert out[out.k == 2].ff.isna().all()


def test_group_reservoir_block_invariant(ray_session):
    import ray.data

    from sylk.stages.sample import group_reservoir

    rows = [{"id": i, "g": "ab"[i % 2], "text": f"doc number {i} payload"}
            for i in range(300)]
    one = group_reservoir(ray.data.from_items(rows, override_num_blocks=1),
                          "text", "g", k=7, id_col="id").to_pandas()
    many = group_reservoir(ray.data.from_items(rows, override_num_blocks=23),
                           "text", "g", k=7, id_col="id").to_pandas()
    key = ["g", "id"]
    pd.testing.assert_frame_equal(
        one[key].sort_values(key).reset_index(drop=True),
        many[key].sort_values(key).reset_index(drop=True))
    assert one.groupby("g").size().tolist() == [7, 7]


def test_stratified_sample_rates(ray_session):
    import ray.data

    from sylk.stages.sample import stratified_sample

    rows = [{"id": i, "g": "hi" if i < 4000 else "lo",
             "text": f"item {i}"} for i in range(5000)]
    out = stratified_sample(ray.data.from_items(rows), "text", "g",
                            {"hi": 50}, default_percent=1).to_pandas()
    hi = (out.g == "hi").sum() / 4000
    lo = (out.g == "lo").sum() / 1000
    assert 0.45 < hi < 0.55
    assert lo < 0.03


def test_distributed_quantiles_differential(ray_session):
    import duckdb
    import numpy as np
    import ray.data

    from sylk.stages.selection import distributed_quantiles

    rng = np.random.default_rng(7)
    # skewed + heavy duplicates + negatives: lognormal tail, 30% exact 1.0
    vals = np.concatenate([
        rng.lognormal(0, 2, 3000),
        np.full(1500, 1.0),
        -rng.lognormal(0, 1, 500),
    ])
    ds = ray.data.from_items([{"value": float(v)} for v in vals],
                             override_num_blocks=13)
    qs = [0.01, 0.25, 0.5, 0.9, 0.999]
    got = distributed_quantiles(ds, "value", qs, sample_per_block=64,
                                n_candidates=32)
    df = __import__("pandas").DataFrame({"v": vals})
    want = duckdb.sql(
        "SELECT " + ", ".join(f"quantile_disc(v, {q}) AS q{i}"
                              for i, q in enumerate(qs)) + " FROM df"
    ).fetchone()
    assert got == [float(w) for w in want]


def test_distributed_quantiles_all_nulls_and_tiny(ray_session):
    import ray.data

    from sylk.stages.selection import distributed_quantiles

    ds = ray.data.from_items([{"value": None}, {"value": None}])
    assert distributed_quantiles(ds, "value", [0.5]) == [None]
    one = ray.data.from_items([{"value": 3.25}])
    assert distributed_quantiles(one, "value", [0.0, 0.5, 1.0]) == [3.25] * 3


def test_top_term_per_doc_ranking(ray_session):
    import ray.data

    from sylk.stages.text import top_term_per_doc

    docs = [
        # 'rare' appears twice in doc 0 (top tf) and nowhere else
        {"doc_id": 0, "text": "rare rare common common common"},
        # tie on tf between 'common' (df=3) and 'unique2' (df=1):
        # lower df wins
        {"doc_id": 1, "text": "common unique2"},
        {"doc_id": 2, "text": "common"},
    ]
    out = top_term_per_doc(ray.data.from_items(docs)).to_pandas() \
        .set_index("doc_id")
    assert out.loc[0, "term"] == "common" and out.loc[0, "tf"] == 3
    assert out.loc[1, "term"] == "unique2" and out.loc[1, "df"] == 1
    assert out.loc[2, "term"] == "common" and out.loc[2, "df"] == 3


def test_latest_per_key_hot_key_blocks(ray_session):
    import ray.data

    from sylk.stages.aggregate import latest_per_key

    rows = [{"k": 1, "o": i, "v": f"p{i}"} for i in range(500)]
    rows += [{"k": 2, "o": 7, "v": "only"}]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    out = latest_per_key(ds, "k", ["o"], payload_cols=["v"]).to_pandas() \
        .set_index("k")
    assert out.loc[1, "o"] == 499 and out.loc[1, "v"] == "p499"
    assert out.loc[2, "v"] == "only"
    assert len(out) == 2


def test_running_total_cross_block_carry(ray_session):
    import ray.data

    from sylk.stages.asof import running_total

    rows = [{"k": 1, "o": i, "v": 1} for i in range(700)]
    rows += [{"k": 2, "o": i, "v": i} for i in range(10)]
    ds = ray.data.from_items(rows, override_num_blocks=16)
    out = running_total(ds, "k", ["o"], "v", "rt").to_pandas()
    hot = out[out.k == 1].sort_values("o")
    assert hot.rt.tolist() == list(range(1, 701))  # exact across seams
    cold = out[out.k == 2].sort_values("o")
    assert cold.rt.tolist() == [sum(range(i + 1)) for i in range(10)]


def test_rollup_counts_empty_input(ray_session):
    """SQL ROLLUP on empty input still emits the () grouping-set row
    with n=0 — so does ours (review finding r2)."""
    import ray.data

    from sylk.stages.aggregate import rollup_counts

    ds = ray.data.from_items(
        [{"ok": False, "facility": 1, "severity": 1}] * 5)
    out = rollup_counts(ds, ["facility", "severity"],
                        ok_filter=True).to_pandas()
    grand = out[out.facility.isna() & out.severity.isna()]
    assert len(grand) == 1 and int(grand.n.iloc[0]) == 0


def test_sliding_window_negative_epoch(ray_session):
    """Pre-1970 timestamps: floor (not trunc) division must place the
    event in windows that actually CONTAIN it (ADVICE r1 class of bug)."""
    import ray.data

    from sylk.stages.aggregate import sliding_window_counts

    ds = ray.data.from_items([{"timestamp": -100, "facility": 0}])
    out = sliding_window_counts(ds, "timestamp", ["facility"],
                                window=3600, slide=900).to_pandas()
    assert sorted(out.w_start) == [-3600, -2700, -1800, -900]
    for s in out.w_start:
        assert s <= -100 < s + 3600


def test_type_value_geomean_is_zero_where_a_value_is_zero(ray_session,
                                                          tmp_path):
    """A type that holds a 0 value has geometric mean 0 in sylk and in
    its DuckDB oracle; the other types keep their exact log-domain mean."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sylk.pipelines.queries import build_oracle_sql, q_type_value_geomean

    pq.write_table(pa.table({
        "event_type": ["click", "click", "view", "view", "view", "buy"],
        "value": [0.0, 2.5, 1.5, 4.0, 9.0, 0.0]}),
        tmp_path / "events.parquet")
    got = q_type_value_geomean(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{tmp_path / 'events.parquet'}')")
    want = con.execute(build_oracle_sql()["type_value_geomean"]).df()
    want = want.sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[list(got.columns)])
    assert got.set_index("event_type").geomean.to_dict() == {
        "buy": 0.0, "click": 0.0, "view": round((1.5 * 4.0 * 9.0) ** (1 / 3),
                                                6)}
