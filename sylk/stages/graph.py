"""Iterative graph analytics over Dataset-resident edge tables.

The reference crate is a parser (parser.rs), not a graph engine; these
operators cover the link-analysis step of a large-scale data-curation
pipeline (rank hosts / pages / event states by transition structure,
downweight spam sources before training).  They follow the same
Ray-Data-first shape as ``dedup.connected_components``: node state is a
Dataset, each iteration is one hash join (edge src -> current state) +
one groupby aggregate + one left join back, so the driver never holds
edges or states and every round is a bounded all-to-all keyed on node
id.

Determinism contract: ranks are FIXED-POINT int64 (``_SCALE`` = 1e12,
edge probabilities quantized at ``_PSCALE`` = 1e6) with floor division
everywhere, so the Ray result is bit-identical to the unrolled-CTE SQL
oracle — no float summation-order hazards.  Overflow bound: rank <=
_SCALE and p <= _PSCALE, so each edge term rank*p <= 1e18 < 2^63.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .collect import collect, to_dataset

_SCALE = 1_000_000_000_000  # rank fixed point (1e12)
_PSCALE = 1_000_000         # edge-probability fixed point (1e6)


def pagerank(edges_ds, src_col: str = "src", dst_col: str = "dst",
             weight_col: str | None = None, iterations: int = 5,
             damping_pct: int = 85, node_col: str = "node",
             rank_col: str = "rank_fp"):
    """Weighted PageRank with a fixed iteration count.

    ``edges_ds``: Dataset[(src, dst[, weight])]; string or int node ids.
    Returns Dataset[(node, rank_fp)] where ``rank_fp`` is the int64
    fixed-point rank after ``iterations`` rounds of

        r'(v) = (15 * (SCALE // N)) // 100
                + (damping * sum_{u->v} (r(u) * p(u,v)) // PSCALE) // 100
        p(u,v) = (w(u,v) * PSCALE) // out_w(u)

    (floor division throughout; dangling-node mass is dropped, which is
    the deterministic simple-PageRank variant).  N = count of distinct
    nodes appearing in the edge set.
    """
    from ray.data.aggregate import Count, Sum

    from .join import hash_join

    if weight_col is None:
        weight_col = "_w1"
        edges_ds = edges_ds.map_batches(
            lambda b: b.append_column(
                "_w1", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow", batch_size=None)

    def _ev(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column(src_col),
            "dst": b.column(dst_col),
            "w": pc.cast(b.column(weight_col), pa.int64()),
        })

    edges = edges_ds.map_batches(_ev, batch_format="pyarrow",
                                 batch_size=None)
    # while the edges fit the driver budget the whole iteration runs
    # vectorized on the driver (numpy, same fixed-point arithmetic);
    # above it, each round is a Dataset hash-join + groupby
    edges, tbl = collect(edges, tiered=True)
    if tbl is not None:
        return _pagerank_driver(tbl, iterations, damping_pct,
                                node_col, rank_col)
    # per-block partial sums (pyarrow C++ group_by) BEFORE every keyed
    # Sum: the shuffle then moves O(blocks x distinct keys) partial rows
    # instead of every edge — the same combiner rule the aggregate
    # family uses (measured here: 5M-edge contrib groupby 45.8s -> sub-s
    # with partials; raw groupby over few huge join-output blocks also
    # single-threads the sort)
    def _partial_sum(key: str, val: str, alias: str):
        def _p(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table({key: pa.array([], b.column(key).type),
                                 alias: pa.array([], pa.int64())})
            t = pa.table({key: b.column(key), val: b.column(val)})
            g = t.group_by(key).aggregate([(val, "sum")])
            return g.rename_columns([key, alias])
        return _p

    # per-src out-weight, then quantized transition probability per edge
    outw = (edges.map_batches(_partial_sum("src", "w", "w"),
                              batch_format="pyarrow", batch_size=None)
            .groupby("src").aggregate(Sum("w", alias_name="ow")))
    ep = hash_join(edges, outw, on=("src",)).map_batches(
        lambda b: pa.table({
            "src": b.column("src"), "dst": b.column("dst"),
            "p": pc.divide(pc.multiply(b.column("w"),
                                       pa.scalar(_PSCALE, pa.int64())),
                           b.column("ow")),
        }), batch_format="pyarrow", batch_size=None).materialize()

    # node universe = src ∪ dst (distinct); two-phase distinct via
    # per-block dedup then a groupby collapse — node-sized exchange
    def _nodes(b: pa.Table) -> pa.Table:
        vals = pa.concat_arrays([
            b.column("src").combine_chunks().cast(b.column("dst").type),
            b.column("dst").combine_chunks()])
        return pa.table({"node": pc.unique(vals)})

    nodes = (edges.map_batches(_nodes, batch_format="pyarrow",
                               batch_size=None)
             .groupby("node").aggregate(Count(alias_name="_c"))
             .select_columns(["node"]).materialize())
    n_nodes = nodes.count()
    if n_nodes == 0:
        return to_dataset(pa.table({
            node_col: pa.array([], pa.string()),
            rank_col: pa.array([], pa.int64())}))
    base = (15 * (_SCALE // n_nodes)) // 100
    r0 = _SCALE // n_nodes

    ranks = nodes.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "r": pa.array(np.full(b.num_rows, r0,
                                                  dtype=np.int64))}),
        batch_format="pyarrow", batch_size=None).materialize()

    damp = pa.scalar(damping_pct, pa.int64())
    for _ in range(iterations):
        # contribution of each edge: (r(src) * p) // PSCALE
        contrib = hash_join(ep, ranks, on=("src",),
                            right_on=("node",)).map_batches(
            lambda b: pa.table({
                "dst": b.column("dst"),
                "c": pc.divide(pc.multiply(b.column("r"), b.column("p")),
                               pa.scalar(_PSCALE, pa.int64())),
            }), batch_format="pyarrow", batch_size=None)
        sums = (contrib.map_batches(_partial_sum("dst", "c", "c"),
                                    batch_format="pyarrow", batch_size=None)
                .groupby("dst").aggregate(Sum("c", alias_name="s")))
        joined = hash_join(nodes, sums, on=("node",), right_on=("dst",),
                           join_type="left_outer")

        def _update(b: pa.Table) -> pa.Table:
            s = pc.coalesce(b.column("s"), pa.scalar(0, pa.int64()))
            r = pc.add(pa.scalar(base, pa.int64()),
                       pc.divide(pc.multiply(damp, s),
                                 pa.scalar(100, pa.int64())))
            return pa.table({"node": b.column("node"),
                             "r": pc.cast(r, pa.int64())})

        ranks = joined.map_batches(_update, batch_format="pyarrow",
                                   batch_size=None).materialize()

    return ranks.map_batches(
        lambda b: pa.table({node_col: b.column("node"),
                            rank_col: b.column("r")}),
        batch_format="pyarrow", batch_size=None)


def _pagerank_driver(edges: pa.Table, iterations: int, damping_pct: int,
                     node_col: str, rank_col: str):
    """Driver tier: the whole edge table fits comfortably in memory
    (bounded probe upstream) — run the identical fixed-point iteration
    vectorized in numpy.  Bit-identical to the distributed tier and
    the SQL oracle (same floor divisions in the same order)."""
    import pandas as pd

    if edges.num_rows == 0:
        return to_dataset(pa.table({
            node_col: pa.array([], pa.string()),
            rank_col: pa.array([], pa.int64())}))
    src = edges.column("src").to_pandas()
    dst = edges.column("dst").to_pandas()
    w = edges.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
    codes, uniques = pd.factorize(pd.concat([src, dst], ignore_index=True))
    n_edges = len(w)
    sc = codes[:n_edges].astype(np.int64)
    dc = codes[n_edges:].astype(np.int64)
    n = len(uniques)
    outw = np.zeros(n, dtype=np.int64)
    np.add.at(outw, sc, w)
    p = (w * _PSCALE) // outw[sc]
    base = (15 * (_SCALE // n)) // 100
    r = np.full(n, _SCALE // n, dtype=np.int64)
    for _ in range(iterations):
        contrib = np.zeros(n, dtype=np.int64)
        np.add.at(contrib, dc, (r[sc] * p) // _PSCALE)
        r = base + (damping_pct * contrib) // 100
    # node order: sorted for deterministic output blocks
    order = np.argsort(np.asarray(uniques, dtype=object))
    return to_dataset(pa.table({
        node_col: pa.array(np.asarray(uniques, dtype=object)[order]),
        rank_col: pa.array(r[order], pa.int64())}))


def degree_orient(edges_ds, a_col: str = "a", b_col: str = "b"):
    """Re-orient unique undirected edges by (degree, id) rank: each
    edge comes back as (a, b) with rank(a) < rank(b) where rank =
    (degree, node id).  Any total order makes every triangle
    materialize exactly once in the wedge join; DEGREE order
    additionally caps a vertex's oriented out-degree (it only points at
    equal-or-higher-degree endpoints), collapsing a hot vertex's wedge
    fan-out from degree^2 to the arboricity-style bound — the standard
    skew mitigation for distributed triangle enumeration.

    Tiers: the degree table is node-cardinality-bounded, so while it
    fits the driver budget it broadcasts once (ray.put) and the
    re-orient is a per-block searchsorted lookup; above the bound two
    renamed hash joins attach endpoint
    degrees — the pagerank tier pattern."""
    import ray
    import ray.data

    from .aggregate import grouped_counts
    from .join import hash_join

    def _ends(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.array(np.concatenate(
            [b.column(a_col).to_numpy(zero_copy_only=False),
             b.column(b_col).to_numpy(zero_copy_only=False)]).astype(
                 np.int64), pa.int64())})

    deg = grouped_counts(
        edges_ds.map_batches(_ends, batch_format="pyarrow",
                             batch_size=None), ["node"])

    def _orient_arrays(a, bb, da, db):
        swap = (db < da) | ((db == da) & (bb < a))
        return (np.where(swap, bb, a), np.where(swap, a, bb))

    deg, dtbl = collect(deg, tiered=True)
    if dtbl is not None:
        nodes = dtbl.column("node").to_numpy(
            zero_copy_only=False).astype(np.int64)
        dn = dtbl.column("n").to_numpy(
            zero_copy_only=False).astype(np.int64)
        o = np.argsort(nodes)
        ref = ray.put((nodes[o], dn[o]))

        def _orient(b: pa.Table) -> pa.Table:
            nd, dd = ray.get(ref)
            a = b.column(a_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            bb = b.column(b_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            # every endpoint is in the degree table by construction
            da = dd[np.searchsorted(nd, a)]
            db = dd[np.searchsorted(nd, bb)]
            u, v = _orient_arrays(a, bb, da, db)
            return pa.table({a_col: pa.array(u, pa.int64()),
                             b_col: pa.array(v, pa.int64())})

        return edges_ds.map_batches(_orient, batch_format="pyarrow",
                                    batch_size=None)

    dega = deg.map_batches(
        lambda t: pa.table({"_ka": t.column("node"),
                            "_da": t.column("n")}),
        batch_format="pyarrow", batch_size=None)
    degb = deg.map_batches(
        lambda t: pa.table({"_kb": t.column("node"),
                            "_db": t.column("n")}),
        batch_format="pyarrow", batch_size=None)
    e = hash_join(edges_ds, dega, on=a_col, right_on="_ka")
    e = hash_join(e, degb, on=b_col, right_on="_kb")

    def _orient_joined(b: pa.Table) -> pa.Table:
        a = b.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
        da = b.column("_da").to_numpy(zero_copy_only=False).astype(np.int64)
        db = b.column("_db").to_numpy(zero_copy_only=False).astype(np.int64)
        u, v = _orient_arrays(a, bb, da, db)
        return pa.table({a_col: pa.array(u, pa.int64()),
                         b_col: pa.array(v, pa.int64())})

    return e.map_batches(_orient_joined, batch_format="pyarrow",
                         batch_size=None)


def triangle_counts(edges_ds, a_col: str = "a", b_col: str = "b",
                    orient: str = "degree"):
    """Per-vertex triangle participation over a unique-edge Dataset
    (every undirected edge stored once): wedge hash-join (edges as
    (u1,u2) x edges as (u2,u3)) then a closing-edge inner hash join on
    the composite (u1, u3) key -> Dataset[(user_id, n)].

    Orientation by a total order makes each triangle materialize
    exactly once (no /6 correction) and bounds wedge fan-out by the
    oriented out-degree — the standard distributed triangle-enumeration
    shape (two keyed exchanges; the membership explode + count is the
    usual two-phase aggregate).  ``orient="degree"`` (default) first
    re-orients edges by (degree, id) rank via :func:`degree_orient`, so
    a hot vertex's wedge fan-out collapses from degree^2 to the
    arboricity-style bound; ``orient="id"`` trusts the caller's a < b
    orientation unchanged (the result is orientation-invariant — only
    the intermediate wedge volume differs)."""
    from .aggregate import grouped_counts
    from .join import hash_join

    if orient == "degree":
        # materialize: the oriented edge list is consumed by THREE
        # joins below — shared lineage would re-run the degree pass
        # per consumer (CLAUDE.md's two-consumer rule); size = edges.
        edges_ds = degree_orient(edges_ds, a_col, b_col).materialize()

    def _ren(x, y):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({x: t.column(a_col).cast(pa.int64()),
                             y: t.column(b_col).cast(pa.int64())})
        return f

    e12 = edges_ds.map_batches(_ren("u1", "u2"), batch_format="pyarrow",
                               batch_size=None)
    e23 = edges_ds.map_batches(_ren("w2", "u3"), batch_format="pyarrow",
                               batch_size=None)
    wedges = hash_join(e12, e23, on="u2", right_on="w2")
    closing = edges_ds.map_batches(_ren("u1", "u3"),
                                   batch_format="pyarrow", batch_size=None)
    tri = hash_join(wedges, closing, on=("u1", "u3"),
                    right_on=("u1", "u3"))

    def _members(b: pa.Table) -> pa.Table:
        out = np.concatenate([
            b.column("u1").to_numpy(zero_copy_only=False),
            b.column("u2").to_numpy(zero_copy_only=False),
            b.column("u3").to_numpy(zero_copy_only=False)])
        return pa.table({"user_id": pa.array(out.astype(np.int64),
                                             pa.int64())})

    members = tri.map_batches(_members, batch_format="pyarrow",
                              batch_size=None)
    return grouped_counts(members, ["user_id"])
