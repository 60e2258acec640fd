"""One tier rule: tiered operators pick their driver or exchange tier
from input bytes alone, against one driver budget, with typed results
and no flag or partition count to override it; and no private Ray API
anywhere under sylk/."""

import importlib
import inspect
import pkgutil
import warnings

import pytest


def _public_callables(package):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{mod.__name__}.{name}", obj


def test_no_operator_takes_a_distributed_flag():
    import sylk.pipelines
    import sylk.stages

    flagged = []
    for package in (sylk.stages, sylk.pipelines):
        for qualname, obj in _public_callables(package):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            flagged += [f"{qualname}({p})" for p in
                        ("distributed", "num_partitions") if p in params]
    assert not flagged, f"tier override parameters: {flagged}"


def test_driver_gathers_go_through_collect():
    """Bringing a Dataset to the driver is written once, in
    stages/collect.py; a hand-copied gather would bring back the double
    plan run, the schemaless-block and the pandas-block bugs."""
    from pathlib import Path

    import sylk

    root = Path(sylk.__file__).parent
    found = [f"{p.relative_to(root)}: {needle}"
             for p in sorted(root.rglob("*.py"))
             if p != root / "stages" / "collect.py"
             for needle in ("to_arrow_refs(", "_bounded_collect")
             if needle in p.read_text()]
    assert not found, f"driver gathers outside collect: {found}"


def test_driver_results_go_back_through_to_dataset():
    """A driver-held table becomes a Dataset through
    ``collect.to_dataset`` alone: ``from_arrow`` or ``from_pandas`` on
    it waits for a remote metadata task and leaves the first consumer
    an executor to start."""
    from pathlib import Path

    import sylk

    root = Path(sylk.__file__).parent
    found = [str(p.relative_to(root))
             for p in sorted(root.rglob("*.py"))
             if p != root / "stages" / "collect.py"
             and any(f in p.read_text()
                     for f in ("from_arrow(", "data.from_pandas("))]
    assert not found, f"from_arrow/from_pandas outside collect: {found}"


def test_one_pair_expansion():
    """All pairs within a run are built by functions.pairs.run_pairs
    alone; a per-run ``triu_indices`` or a per-pair Python loop is the
    hand-copied expansion it replaced."""
    from pathlib import Path

    import sylk

    root = Path(sylk.__file__).parent
    found = [f"{p.relative_to(root)}: {needle}"
             for p in sorted(root.rglob("*.py"))
             for needle in ("np.triu_indices", "for j in range(i + 1")
             if needle in p.read_text()]
    assert not found, f"pair expansions outside run_pairs: {found}"


_PAIR_OPERATORS = {
    "minhash_dup_pairs": ["a", "b", "jaccard"],
    "ngram_jaccard_dup_pairs": ["a", "b", "jaccard"],
    "ngram_containment_pairs": ["a", "b", "containment"],
    "ngram_jaccard_dup_pairs_prefix": ["a", "b", "jaccard"],
    "tfidf_cosine_pairs": ["a", "b", "cosine"],
    "winnow_dup_pairs": ["a", "b", "shared_fps"],
    "sorted_neighborhood_pairs": ["a", "b", "jaccard"],
}


@pytest.mark.parametrize("op", list(_PAIR_OPERATORS))
def test_pair_operator_on_empty_input_is_typed_empty(ray_session, op):
    import pyarrow as pa
    import ray.data

    import sylk.stages.dedup as dedup

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    out = getattr(dedup, op)(docs)
    schema = out.schema()
    assert schema is not None
    assert list(schema.names) == _PAIR_OPERATORS[op]
    assert [str(t) for t in schema.types] == \
        ["int64", "int64", "int64" if op == "winnow_dup_pairs" else "double"]
    assert out.count() == 0


@pytest.mark.parametrize("op", ["cooccurrence_counts", "token_typo_pairs"])
def test_vocabulary_operator_on_empty_input_is_typed_empty(ray_session, op):
    """The vocabulary-first pair operators read their vocabulary from
    ``collect``'s table, which has no columns on 0 rows."""
    import pyarrow as pa
    import ray.data

    from sylk.stages.loganalytics import cooccurrence_counts
    from sylk.stages.text import token_typo_pairs

    if op == "cooccurrence_counts":
        out = cooccurrence_counts(ray.data.from_arrow(pa.table({
            "u": pa.array([], pa.int64()), "h": pa.array([], pa.int64()),
            "t": pa.array([], pa.string())})), ["u", "h"], "t")
        want = [("type_a", "string"), ("type_b", "string"), ("n", "int64")]
    else:
        out = token_typo_pairs(ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())})))
        want = [("tok_a", "string"), ("tok_b", "string")]
    schema = out.schema()
    assert schema is not None
    assert list(zip(schema.names, map(str, schema.types))) == want
    assert out.count() == 0


def test_winnow_no_shared_fingerprint_is_typed_empty(ray_session):
    import ray.data

    from sylk.stages.dedup import winnow_dup_pairs

    docs = [
        {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta eta"},
        {"doc_id": 1, "text": "one two three four five six seven eight"},
    ]
    out = winnow_dup_pairs(ray.data.from_items(docs), min_shared=1)
    schema = out.schema()
    assert schema is not None
    assert list(schema.names) == ["a", "b", "shared_fps"]
    assert [str(t) for t in schema.types] == ["int64"] * 3
    assert out.count() == 0


def test_one_driver_budget():
    """Every tier switch asks ``collect.fits`` about bytes: no module
    under sylk/ defines a ``_..._LIMIT`` tier constant or compares a
    ``.count()`` or ``len(...)`` with one, ``collect`` sizes from block
    metadata (no ``count()``), and ``DRIVER_BUDGET`` is named in
    stages/collect.py alone (a ``from ... import`` copy would freeze the
    budget against ``scale_tier``)."""
    import re
    from pathlib import Path

    import sylk
    from sylk.stages import collect

    root = Path(sylk.__file__).parent
    const = re.compile(r"^\s*_?[A-Z][A-Z0-9_]*_LIMIT\s*=", re.M)
    compare = re.compile(
        r"(\.count\(\)|\blen\([^()]*\))\s*[<>]=?\s*[\w.]*_LIMIT\b"
        r"|\b[\w.]*_LIMIT\s*[<>]=?\s*(\S+\.count\(\)|len\()")
    found = []
    for p in sorted(root.rglob("*.py")):
        text = p.read_text()
        found += [f"{p.relative_to(root)}: {m.group(0).strip()}"
                  for rx in (const, compare) for m in rx.finditer(text)]
        if p != root / "stages" / "collect.py" and "DRIVER_BUDGET" in text:
            found.append(f"{p.relative_to(root)}: DRIVER_BUDGET")
    assert not found, f"tier rules besides collect.fits: {found}"
    assert "count()" not in inspect.getsource(collect.collect)
    assert collect.DRIVER_BUDGET == 64 << 20


def test_wide_rows_take_the_exchange_tier(ray_session, monkeypatch):
    """The tier follows bytes, not rows: 18,000 transcript rows with
    4 KB of text (72 MB) send ``dedup_turns`` to its groupby exchange,
    while the same rows without the text merge in the driver.  A row
    limit (the 5M rows it once was) kept both in the driver."""
    import pyarrow as pa
    import ray.data

    from sylk.stages.dedup import dedup_turns

    n = 18_000
    keys = {"conv_id": pa.array(range(n), pa.int64()),
            "turn_idx": pa.array([0] * n, pa.int64())}
    wide = pa.table({**keys, "text": pa.array(["w" * 4096] * n)})
    groupbys = []
    real = ray.data.Dataset.groupby

    def _spy(self, *a, **k):
        groupbys.append(a)
        return real(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "groupby", _spy)
    for tbl, exchanged in ((pa.table(keys), False), (wide, True)):
        groupbys.clear()
        # half the keys twice, the copies in another block
        ds = ray.data.from_arrow([tbl, tbl.slice(0, n // 2)])
        out = dedup_turns(ds)
        assert out.count() == n
        assert bool(groupbys) == exchanged


def test_no_private_ray_api():
    """sylk runs on Ray's public API alone: no import from, and no patch
    of, ``ray.data._internal`` or ``ray._private``."""
    from pathlib import Path

    import sylk

    root = Path(sylk.__file__).parent
    found = [f"{p.relative_to(root)}: {needle}"
             for p in sorted(root.rglob("*.py"))
             for needle in ("ray.data._internal", "ray._private")
             if needle in p.read_text()]
    assert not found, f"private Ray API: {found}"


def test_fill_forward_raises_no_future_warning(ray_session):
    """An all-null block reaches ``_fill`` as object dtype; pandas
    deprecates the implicit downcast its fillna used to do.  Warning
    filters set in the driver do not reach Ray workers, so the task that
    runs the pipeline carries the same rule in PYTHONWARNINGS, and the
    Ray Data tasks it starts inherit that environment."""
    import ray

    rule = "error:Downcasting object dtype arrays:FutureWarning"

    @ray.remote(runtime_env={"env_vars": {"PYTHONWARNINGS": rule}})
    def _run():
        import ray.data

        from sylk.stages.asof import fill_forward

        rows = [{"k": 1, "t": t, "v": float(t) if t in (100, 700) else None}
                for t in range(1000)]
        rows += [{"k": 2, "t": t, "v": None} for t in range(50)]
        ds = ray.data.from_items(rows, override_num_blocks=16)
        return fill_forward(ds, "k", ["t"], "v", "ff").to_pandas()

    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        out = ray.get(_run.remote())
    hot = out[out.k == 1].sort_values("t")
    assert hot.ff[hot.t < 100].isna().all()
    assert (hot.ff[(hot.t >= 100) & (hot.t < 700)] == 100.0).all()
    assert (hot.ff[hot.t >= 700] == 700.0).all()
    assert out[out.k == 2].ff.isna().all()
