"""Unit tests for the log-analytics + list-agg + gap-fill + LM-score
operator batch: template mining, rate spikes, collect_sorted,
gap_fill_counts, unigram_logprob.

Style follows tests/test_analytics.py: tiny synthetic Datasets with
forced multi-block layouts so every cross-block seam is exercised."""

import math

import numpy as np
import pyarrow as pa
import pytest


def _ds(rows, blocks=1):
    import ray.data

    ds = ray.data.from_items(rows)
    return ds.repartition(blocks) if blocks > 1 else ds


# --- log_templates ---------------------------------------------------------

def test_log_templates_masks_and_counts(ray_session):
    from sylk.stages.loganalytics import log_templates

    rows = [
        {"turn_idx": 3, "text": "user 17 logged in from 10.0.0.2"},
        {"turn_idx": 1, "text": "user 9 logged in from 10.9.3.4"},
        {"turn_idx": 2, "text": "disk sda1 full at 93%"},
        {"turn_idx": 7, "text": "disk sda2 full at 7%"},
        {"turn_idx": 9, "text": "no digits here"},
    ]
    out = log_templates(_ds(rows, blocks=3)).to_pandas()
    got = {r.template: (r.n, r.first_turn) for r in out.itertuples()}
    assert got == {
        "user # logged in from #.#.#.#": (2, 1),
        "disk sda# full at #%": (2, 2),
        "no digits here": (1, 9),
    }


def test_log_templates_block_layout_invariance(ray_session):
    from sylk.stages.loganalytics import log_templates

    rows = [{"turn_idx": i, "text": f"evt {i % 4} from host{i % 3}"}
            for i in range(200)]
    a = log_templates(_ds(rows, blocks=1)).to_pandas()
    b = log_templates(_ds(rows, blocks=7)).to_pandas()
    key = ["template", "n", "first_turn"]
    pa_a = a[key].sort_values(key).reset_index(drop=True)
    pa_b = b[key].sort_values(key).reset_index(drop=True)
    assert pa_a.equals(pa_b)


# --- rate_spikes -----------------------------------------------------------

def test_rate_spikes_flags_planted_spike(ray_session):
    from sylk.stages.loganalytics import rate_spikes

    # hostA: 1 msg in each of 9 hours + 10 msgs in hour 99 (clear spike:
    # 10 * 10 windows > 2 * 19 total).  hostB: flat 2/hour, no spike.
    rows = [{"hostname": "hostA", "hour": h} for h in range(9)]
    rows += [{"hostname": "hostA", "hour": 99}] * 10
    rows += [{"hostname": "hostB", "hour": h} for h in range(5)] * 2
    out = rate_spikes(_ds(rows, blocks=4), key="hostname",
                      window_col="hour", factor=2).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["hostname"], r["hour"], r["n"]) == ("hostA", 99, 10)
    assert (r["key_total"], r["key_windows"]) == (19, 10)


def test_rate_spikes_integer_threshold_is_strict(ray_session):
    from sylk.stages.loganalytics import rate_spikes

    # Exactly factor x mean is NOT a spike: 2 windows of (1, 3) =>
    # total 4, mean 2; n=3: 3*2=6 <= 2*4=8 -> no flag with factor 2.
    rows = [{"hostname": "h", "hour": 0}] + \
           [{"hostname": "h", "hour": 1}] * 3
    out = rate_spikes(_ds(rows, blocks=2), key="hostname",
                      window_col="hour", factor=2).to_pandas()
    assert len(out) == 0


# --- collect_sorted --------------------------------------------------------

def test_collect_sorted_distinct_and_ordered(ray_session):
    from sylk.stages.aggregate import collect_sorted

    rows = [{"k": "h1", "v": "zeta"}, {"k": "h1", "v": "alpha"},
            {"k": "h1", "v": "zeta"}, {"k": "h2", "v": "beta"},
            {"k": "h1", "v": "mid"}]
    out = collect_sorted(_ds(rows, blocks=3), key="k", value_col="v")
    got = {r.k: (r.n_vals, r.values) for r in out.to_pandas().itertuples()}
    assert got == {"h1": (3, "alpha,mid,zeta"), "h2": (1, "beta")}


def test_collect_sorted_hot_key_many_blocks(ray_session):
    from sylk.stages.aggregate import collect_sorted

    vals = [f"v{i:03d}" for i in range(60)]
    rows = [{"k": "hot", "v": v} for v in vals for _ in range(3)]
    rows += [{"k": "cold", "v": "only"}]
    out = collect_sorted(_ds(rows, blocks=8), key="k", value_col="v")
    got = {r.k: (r.n_vals, r.values) for r in out.to_pandas().itertuples()}
    assert got["hot"] == (60, ",".join(vals))
    assert got["cold"] == (1, "only")


# --- gap_fill_counts -------------------------------------------------------

def test_gap_fill_counts_zeros_in_gaps(ray_session):
    from sylk.stages.temporal import gap_fill_counts

    counts = _ds([{"hour": 10, "n": 4}, {"hour": 13, "n": 1},
                  {"hour": 15, "n": 2}], blocks=2)
    out = gap_fill_counts(counts, "hour").to_pandas() \
        .sort_values("hour").reset_index(drop=True)
    assert out["hour"].tolist() == [10, 11, 12, 13, 14, 15]
    assert out["n"].tolist() == [4, 0, 0, 1, 0, 2]


def test_gap_fill_counts_empty_input(ray_session):
    import ray.data

    from sylk.stages.temporal import gap_fill_counts

    empty = ray.data.from_arrow(pa.table({
        "hour": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}))
    out = gap_fill_counts(empty, "hour").to_pandas()
    assert len(out) == 0


# --- unigram_logprob -------------------------------------------------------

def test_unigram_logprob_matches_manual(ray_session):
    from sylk.stages.text import unigram_logprob

    rows = [{"doc_id": 0, "text": "a b a"},
            {"doc_id": 1, "text": "b c"},
            {"doc_id": 2, "text": ""}]
    out = unigram_logprob(_ds(rows, blocks=2)).to_pandas()
    got = {r.doc_id: (r.n_tokens, r.logprob) for r in out.itertuples()}
    # corpus tf: a=2, b=2, c=1, total=5
    exp0 = round(math.log(2 / 5) * 3, 6)           # a b a
    exp1 = round(math.log(2 / 5) + math.log(1 / 5), 6)  # b c
    assert set(got) == {0, 1}          # empty doc excluded
    assert got[0] == (3, pytest.approx(exp0, abs=1e-9))
    assert got[1] == (2, pytest.approx(exp1, abs=1e-9))


def test_unigram_logprob_block_layout_invariance(ray_session):
    from sylk.stages.text import unigram_logprob

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    rows = [{"doc_id": i,
             "text": " ".join(rng.choice(words, size=rng.integers(1, 12)))}
            for i in range(80)]
    a = unigram_logprob(_ds(rows, blocks=1)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = unigram_logprob(_ds(rows, blocks=9)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


# --- trend_numerators ------------------------------------------------------

def test_trend_numerators_matches_numpy_lstsq(ray_session):
    from sylk.stages.loganalytics import trend_numerators

    # hostU: rising 1,2,3,4 over hours 100..103; hostD: falling 5,3,1.
    rows = []
    for h, n in zip(range(100, 104), (1, 2, 3, 4)):
        rows += [{"hostname": "hostU", "hour": h}] * n
    for h, n in zip(range(100, 103), (5, 3, 1)):
        rows += [{"hostname": "hostD", "hour": h}] * n
    out = trend_numerators(_ds(rows, blocks=5)).to_pandas()
    got = {r.hostname: r for r in out.itertuples()}
    # slope = slope_num / slope_den must equal the least-squares slope
    for host, pts in (("hostU", [(0, 1), (1, 2), (2, 3), (3, 4)]),
                      ("hostD", [(0, 5), (1, 3), (2, 1)])):
        x = np.array([p[0] for p in pts], dtype=float)
        y = np.array([p[1] for p in pts], dtype=float)
        slope = np.polyfit(x, y, 1)[0]
        r = got[host]
        assert r.slope_den > 0
        assert r.slope_num / r.slope_den == pytest.approx(slope)
    assert got["hostU"].slope_num > 0 and got["hostD"].slope_num < 0


def test_trend_numerators_x_shift_is_global_min(ray_session):
    from sylk.stages.loganalytics import trend_numerators

    # x0 is the GLOBAL min hour (473000 here), not per-host: hostB's
    # sum_x reflects hours 473010..473011 shifted by the global min.
    rows = [{"hostname": "a", "hour": 473000},
            {"hostname": "b", "hour": 473010}, {"hostname": "b", "hour": 473011}]
    out = trend_numerators(_ds(rows, blocks=2)).to_pandas()
    got = {r.hostname: r for r in out.itertuples()}
    assert got["a"].sum_x == 0
    assert got["b"].sum_x == 10 + 11


# --- cooccurrence_counts ---------------------------------------------------

def test_cooccurrence_counts_manual(ray_session):
    from sylk.stages.loganalytics import cooccurrence_counts

    # basket (1, 0): {x, y, z}; basket (1, 1): {x, y}; basket (2, 0): {x}
    rows = [{"u": 1, "h": 0, "t": "x"}, {"u": 1, "h": 0, "t": "y"},
            {"u": 1, "h": 0, "t": "z"}, {"u": 1, "h": 0, "t": "x"},
            {"u": 1, "h": 1, "t": "x"}, {"u": 1, "h": 1, "t": "y"},
            {"u": 2, "h": 0, "t": "x"}]
    out = cooccurrence_counts(_ds(rows, blocks=3), ["u", "h"], "t")
    got = {(r.type_a, r.type_b): r.n for r in out.to_pandas().itertuples()}
    assert got == {("x", "y"): 2, ("x", "z"): 1, ("y", "z"): 1}


def test_cooccurrence_counts_cross_block_basket_dedup(ray_session):
    from sylk.stages.loganalytics import cooccurrence_counts

    # The same (basket, item) row repeated across many blocks must count
    # ONCE per basket (distinct semantics survive block-local dedup).
    rows = [{"u": 7, "h": 5, "t": "a"}, {"u": 7, "h": 5, "t": "b"}] * 40
    out = cooccurrence_counts(_ds(rows, blocks=8), ["u", "h"], "t")
    df = out.to_pandas()
    assert len(df) == 1
    assert (df.iloc[0]["type_a"], df.iloc[0]["type_b"], df.iloc[0]["n"]) \
        == ("a", "b", 1)


# --- corr_numerators -------------------------------------------------------

def test_corr_numerators_matches_numpy(ray_session):
    from sylk.stages.loganalytics import corr_numerators

    rng = np.random.default_rng(11)
    rows = []
    for g, slope in (("pos", 3), ("neg", -2)):
        x = rng.integers(0, 100, size=50)
        y = slope * x + rng.integers(-5, 6, size=50)
        rows += [{"g": g, "x": int(a), "y": int(b)} for a, b in zip(x, y)]
    out = corr_numerators(_ds(rows, blocks=6), "g", "x", "y").to_pandas()
    got = {r.g: r for r in out.itertuples()}
    for g in ("pos", "neg"):
        sub = [(r["x"], r["y"]) for r in rows if r["g"] == g]
        x = np.array([p[0] for p in sub], dtype=float)
        y = np.array([p[1] for p in sub], dtype=float)
        r_np = np.corrcoef(x, y)[0, 1]
        rec = got[g]
        r_sylk = rec.corr_num / math.sqrt(rec.var_x * rec.var_y)
        assert r_sylk == pytest.approx(r_np, abs=1e-12)
    assert got["pos"].corr_num > 0 and got["neg"].corr_num < 0


def test_corr_numerators_constant_column_zero_variance(ray_session):
    from sylk.stages.loganalytics import corr_numerators

    rows = [{"g": "c", "x": 5, "y": i} for i in range(10)]
    out = corr_numerators(_ds(rows, blocks=3), "g", "x", "y").to_pandas()
    r = out.iloc[0]
    assert r["var_x"] == 0 and r["corr_num"] == 0 and r["var_y"] > 0


# --- token_typo_pairs ------------------------------------------------------

def test_edit_distance_is_1_unit():
    from sylk.stages.text import _edit_distance_is_1 as d1

    assert d1("host1", "host2")          # substitution
    assert d1("host1", "host11")         # insertion
    assert d1("ab", "b") and d1("b", "ab")
    assert not d1("ab", "ba")            # transposition = distance 2
    assert not d1("same", "same")        # identical
    assert not d1("a", "abc")            # distance 2
    assert d1("", "x") and not d1("", "xy")


def test_token_typo_pairs_brute_force(ray_session):
    from sylk.stages.text import _edit_distance_is_1 as d1
    from sylk.stages.text import token_typo_pairs

    words = ["alpha", "alpho", "alphas", "beta", "betas", "bela",
             "gamma", "gamm", "delta", "delta1", "unique"]
    rows = [{"text": " ".join(words[i::3])} for i in range(3)]
    out = token_typo_pairs(_ds(rows, blocks=2)).to_pandas()
    got = {(r.tok_a, r.tok_b) for r in out.itertuples()}
    vocab = sorted({w for r in rows for w in r["text"].split()})
    want = {(a, b) for i, a in enumerate(vocab) for b in vocab[i + 1:]
            if d1(a, b)}
    assert got == want
    assert ("alpha", "alpho") in got and ("gamm", "gamma") in got


def test_log_templates_local_equals_distributed(ray_session):
    from sylk.stages.loganalytics import log_templates, log_templates_local

    rows = [{"turn_idx": i, "text": f"unit {i % 13} said {i % 5} things"}
            for i in range(300)]
    dist = log_templates(_ds(rows, blocks=6)).to_pandas()
    loc = log_templates_local(_ds(rows, blocks=6)).to_pandas()
    key = ["template", "n", "first_turn"]
    a = dist[key].sort_values(key).reset_index(drop=True)
    b = loc[key].sort_values(key).reset_index(drop=True)
    assert a.astype({"n": "int64", "first_turn": "int64"}).equals(
        b.astype({"n": "int64", "first_turn": "int64"}))


# --- day-partitioned store -------------------------------------------------

def test_day_range_read_prunes_directories(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from sylk.stages.temporal import (day_partition_values,
                                      day_partitioned_write,
                                      read_day_range)

    base = 1_700_000_000  # some epoch-seconds anchor
    rows = [{"ts": pd.Timestamp((base + d * 86400 + i) * 1_000_000_000),
             "event_type": "t" + str(d % 3)}
            for d in range(8) for i in range(5)]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    store = str(tmp_path / "days")
    day_partitioned_write(ds, store)
    days = day_partition_values(store)
    assert len(days) == 8
    lo = days[0]
    out, dirs = read_day_range(store, lo + 2, lo + 4,
                               columns=["event_type"])
    assert len(dirs) == 3          # the pruning claim itself
    df = out.to_pandas()
    assert len(df) == 15
    assert sorted(df["day"].unique().tolist()) == [lo + 2, lo + 3, lo + 4]
