"""Router unit tests: dense route_id clustering key vs string routes."""

import pyarrow as pa

from sylk.functions.reference_semantics import ERROR_VARIANTS
from sylk.stages.enrich import enrich_batch
from sylk.stages.parse import parse_batch
from sylk.stages.router import add_route_columns


def _route(lines):
    return add_route_columns(
        enrich_batch(parse_batch(pa.table({"text": pa.array(lines, pa.string())})))
    ).to_pylist()


def test_route_id_matches_sink_key():
    lines = [f"<{pri}>1 - - - - - -" for pri in range(0, 192, 17)]
    for row in _route(lines):
        assert row["route_id"] == row["facility"] * 8 + row["severity"]
        assert 0 <= row["route_id"] <= 191


def test_route_id_reject_band_disjoint():
    """Every reject route_id lands in [192, 192+len(variants)) and maps
    1:1 with the error variant; no collision with sink ids."""
    bad = [
        "<200>1 - - - - - -",          # BadFacilityInPri
        "no pri",                       # ExpectedTokenErr
        "<1>1 2015-13-01T00:00:00Z - - - - -",  # InvalidMonth
        "<1>1 2015-02-30T00:00:00Z - - - - -",  # InvalidDate
        '<1>1 - - - - - [m k="x',       # UnexpectedEndOfInput
    ]
    seen = {}
    for row in _route(bad):
        assert not row["ok"]
        assert row["route"] == "reject"
        rid = row["route_id"]
        assert 192 <= rid < 192 + len(ERROR_VARIANTS)
        prev = seen.setdefault(row["route_key"], rid)
        assert prev == rid
    assert len(set(seen.values())) == len(seen)


def test_mixed_batch_clusters_by_id():
    """Sorting by route_id clusters identically to (route, route_key)."""
    lines = [f"<{p}>1 - - - - - -" for p in (0, 7, 8, 191, 200)] + ["junk"]
    rows = sorted(_route(lines), key=lambda r: r["route_id"])
    pairs = [(r["route"], r["route_key"]) for r in rows]
    # same (route, route_key) pairs must be adjacent after the int sort
    for i in range(1, len(pairs) - 1):
        if pairs[i - 1] == pairs[i + 1]:
            assert pairs[i] == pairs[i - 1]


def test_routed_jsonl_matches_parquet(ray_session, tmp_path):
    """The JSONL sink writes the same routed rows in the same Hive
    layout as the parquet sink."""
    import glob
    import json

    import numpy as np
    import pandas as pd
    import ray.data

    from sylk.pipelines.flagship import parse_enrich
    from sylk.sources.transcripts import synth_batch
    from sylk.stages.router import route_and_write, route_and_write_jsonl

    t = synth_batch(np.arange(500, dtype=np.int64))
    parsed = parse_enrich(ray.data.from_arrow(t).repartition(4))
    route_and_write(parsed, str(tmp_path / "pq"), 0)
    parsed2 = parse_enrich(ray.data.from_arrow(t).repartition(4))
    route_and_write_jsonl(parsed2, str(tmp_path / "js"), 0)

    pq_files = glob.glob(str(tmp_path / "pq" / "**" / "*.parquet"),
                         recursive=True)
    js_files = glob.glob(str(tmp_path / "js" / "route=*" / "route_key=*"
                             / "inc0.json"))
    assert js_files, "json sink wrote nothing"
    pq_rows = ray.data.read_parquet(pq_files).to_pandas()
    js_rows = pd.DataFrame([json.loads(line)
                            for f in js_files for line in open(f)])
    assert len(pq_rows) == len(js_rows) == 500
    key = ["turn_idx"]
    a = pq_rows.sort_values(key).reset_index(drop=True)
    b = js_rows.sort_values(key).reset_index(drop=True)
    for col in ("hostname", "msg", "sd", "severity", "facility"):
        assert a[col].fillna("~").astype(str).tolist() == \
            b[col].fillna("~").astype(str).tolist(), col
    # Hive dirs agree
    pq_dirs = {f.split("/pq/")[1].rsplit("/", 1)[0] for f in pq_files}
    js_dirs = {f.split("/js/")[1].rsplit("/", 1)[0] for f in js_files}
    assert pq_dirs == js_dirs
