"""As-of join and range join: differential tests vs single-frame pandas
and edge cases (empty right stream, exact-tie inclusivity, interval
spanning many granules)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from conftest import scale_tier


def _asof_expected(left: pd.DataFrame, right: pd.DataFrame) -> pd.Series:
    out = []
    for _, lr in left.iterrows():
        cand = right[(right.k == lr.k) & (right.t <= lr.t)]
        out.append(cand.sort_values(["t", "tb"]).v.iloc[-1]
                   if len(cand) else None)
    return pd.Series(out, index=left.index, dtype="float64")


def test_asof_join_value_random(ray_session):
    import ray.data

    from sylk.stages.temporal import asof_join_value

    rng = np.random.default_rng(5)
    left = pd.DataFrame({
        "k": rng.integers(0, 6, 400), "t": rng.integers(0, 1000, 400),
        "tb": np.arange(400), "lid": np.arange(400)})
    right = pd.DataFrame({
        "k": rng.integers(0, 6, 120), "t": rng.integers(0, 1000, 120),
        "tb": np.arange(1000, 1120), "v": rng.standard_normal(120)})
    # make (k, t) unique on the right (the documented determinism bound)
    right = right.drop_duplicates(["k", "t"]).reset_index(drop=True)
    lds = ray.data.from_pandas(left).repartition(8)
    rds = ray.data.from_pandas(right).repartition(4)
    out = asof_join_value(lds, rds, key="k", t_col="t", tiebreak="tb",
                          value_col="v", out_col="av").to_pandas()
    out = out.sort_values("lid").reset_index(drop=True)
    exp = _asof_expected(left, right)
    got = out.set_index("lid")["av"].reindex(left.lid).reset_index(drop=True)
    pd.testing.assert_series_equal(got, exp, check_names=False)


def test_asof_exact_tie_is_inclusive(ray_session):
    import ray.data

    from sylk.stages.temporal import asof_join_value

    left = pd.DataFrame({"k": [1, 1], "t": [10, 9], "tb": [0, 1]})
    right = pd.DataFrame({"k": [1], "t": [10], "tb": [5], "v": [42.0]})
    out = asof_join_value(ray.data.from_pandas(left),
                          ray.data.from_pandas(right),
                          key="k", t_col="t", tiebreak="tb",
                          value_col="v", out_col="av").to_pandas()
    by_t = out.set_index("t")["av"]
    assert by_t[10] == 42.0      # right row at exactly t matches
    assert pd.isna(by_t[9])      # earlier row sees nothing


def test_asof_empty_right(ray_session):
    import ray.data

    from sylk.stages.temporal import asof_join_value

    left = pd.DataFrame({"k": [1, 2], "t": [1, 2], "tb": [0, 1]})
    right = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "t": pd.Series([], dtype="int64"),
                          "tb": pd.Series([], dtype="int64"),
                          "v": pd.Series([], dtype="float64")})
    out = asof_join_value(ray.data.from_pandas(left),
                          ray.data.from_pandas(right),
                          key="k", t_col="t", tiebreak="tb",
                          value_col="v", out_col="av").to_pandas()
    assert len(out) == 2 and out["av"].isna().all()


def test_range_join_matches_bruteforce(ray_session):
    import ray.data

    from sylk.stages.temporal import range_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"lid": np.arange(300),
                         "t": rng.integers(0, 5000, 300)})
    lo = rng.integers(0, 4500, 40)
    right = pd.DataFrame({"rid": np.arange(40), "lo": lo,
                          "hi": lo + rng.integers(0, 900, 40)})
    out = range_join(ray.data.from_pandas(left).repartition(6),
                     ray.data.from_pandas(right).repartition(3),
                     "t", "lo", "hi", granule=256).to_pandas()
    got = set(zip(out.lid, out.rid))
    exp = {(l_.lid, r.rid) for _, l_ in left.iterrows()
           for _, r in right.iterrows() if r.lo <= l_.t <= r.hi}
    assert got == exp
    # each match appears exactly once (no granule double-count)
    assert len(out) == len(got)


def test_range_join_with_equi_key(ray_session):
    import ray.data

    from sylk.stages.temporal import range_join

    left = pd.DataFrame({"g": [1, 1, 2], "t": [5, 50, 5], "lid": [0, 1, 2]})
    right = pd.DataFrame({"g": [1, 2], "lo": [0, 10], "hi": [10, 60],
                          "rid": [0, 1]})
    out = range_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(right),
                     "t", "lo", "hi", granule=16, key="g").to_pandas()
    assert set(zip(out.lid, out.rid)) == {(0, 0)}  # key 2's t=5 < lo=10


def test_lag_lead_match_pandas(ray_session):
    import ray.data

    from sylk.stages.asof import lag, lead

    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 600), "o": np.arange(600),
        "v": np.where(rng.random(600) < 0.1, np.nan,
                      rng.standard_normal(600))})
    ds = ray.data.from_pandas(df).repartition(16)
    got_lag = lag(ds, "k", ["o"], "v", "lg").to_pandas() \
        .sort_values("o").reset_index(drop=True)
    exp_lag = df.sort_values(["k", "o"]).groupby("k")["v"].shift()
    exp_lag = exp_lag.reindex(df.index)  # back to o order
    pd.testing.assert_series_equal(
        got_lag.set_index("o")["lg"].reindex(df.o).reset_index(drop=True),
        exp_lag.reset_index(drop=True), check_names=False)

    ds2 = ray.data.from_pandas(df).repartition(16)
    got_lead = lead(ds2, "k", ["o"], "v", "ld").to_pandas()
    exp_lead = df.sort_values(["k", "o"]).groupby("k")["v"].shift(-1) \
        .reindex(df.index)
    pd.testing.assert_series_equal(
        got_lead.set_index("o")["ld"].reindex(df.o).reset_index(drop=True),
        exp_lead.reset_index(drop=True), check_names=False)


def test_lag_distributed_equals_broadcast(ray_session, monkeypatch):
    import ray.data

    from sylk.stages.asof import lag

    rng = np.random.default_rng(43)
    df = pd.DataFrame({"k": rng.integers(0, 4, 500), "o": np.arange(500),
                       "v": rng.standard_normal(500)})
    base = lag(ray.data.from_pandas(df).repartition(8),
               "k", ["o"], "v", "lg").to_pandas()
    scale_tier(monkeypatch)
    dist = lag(ray.data.from_pandas(df).repartition(8),
               "k", ["o"], "v", "lg").to_pandas()
    key = ["k", "o"]
    b = base.sort_values(key).reset_index(drop=True)
    d = dist.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(b, d[b.columns], check_dtype=False)


def test_rolling_sum_matches_pandas(ray_session):
    """Hot key across 16 blocks: the w-row window must sum exactly
    across block seams (seed tails)."""
    import ray.data

    from sylk.stages.asof import rolling_sum

    rng = np.random.default_rng(47)
    df = pd.DataFrame({"k": rng.integers(0, 3, 800), "o": np.arange(800),
                       "v": rng.integers(0, 100, 800)})
    for w in (1, 2, 4, 7):
        ds = ray.data.from_pandas(df).repartition(16)
        got = rolling_sum(ds, "k", ["o"], "v", w, "rs").to_pandas() \
            .sort_values("o").reset_index(drop=True)
        exp = df.sort_values(["k", "o"]).groupby("k")["v"] \
            .rolling(w, min_periods=1).sum().droplevel(0) \
            .reindex(df.index)
        pd.testing.assert_series_equal(
            got.set_index("o")["rs"].reindex(df.o).reset_index(drop=True),
            exp.reset_index(drop=True), check_names=False)
