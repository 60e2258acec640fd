"""All pairs within sorted runs — the one pair expansion behind every
candidate, co-occurrence and weighted-overlap operator.

Rows that share a key form a run; every two distinct ids in a run make a
pair.  The expansion is loop-free: each row counts its partners after it
in its run, ``np.repeat`` plus offset arithmetic builds every pair, and
one ``np.unique`` over packed ``(a << 32 | b)`` codes merges the pairs
that several runs share.  Ids are remapped to dense codes first, so the
uint32 packing holds for any id (negative, or >= 2^32).
"""

from __future__ import annotations

import numpy as np


def run_pairs(keys, ids: np.ndarray, weights: np.ndarray | None = None):
    """``(a, b, n)``: every id pair ``a < b`` sharing at least one run,
    with ``n`` the number of runs they share; with ``weights``,
    ``(a, b, dot)`` with ``dot`` the sum of ``wa * wb`` over the shared
    runs, summed in run order and, within a run, in row-major pair order.

    ``keys`` is one key array or a sequence of them (rows equal on all
    keys form a run).  A repeated ``(key, id)`` row counts once (its
    first weight in input order).  Output is sorted by ``(a, b)``; ``a``
    and ``b`` keep the dtype of ``ids``, ``n`` is int64 and ``dot``
    float64."""
    keys = [keys] if isinstance(keys, np.ndarray) else list(keys)
    uid, code = np.unique(ids, return_inverse=True)
    order = np.lexsort((code, *reversed(keys)))
    code = code[order]
    new_run = np.zeros(len(code), dtype=bool)
    new_run[:1] = True
    for k in keys:
        k = k[order]
        new_run[1:] |= k[1:] != k[:-1]
    keep = new_run.copy()
    keep[1:] |= code[1:] != code[:-1]
    code, new_run = code[keep], new_run[keep]
    run_end = np.append(np.flatnonzero(new_run)[1:], len(code))
    # partners after each row in its run, then one slot per pair
    after = np.repeat(run_end, np.diff(run_end, prepend=0)) \
        - np.arange(len(code)) - 1
    first = np.repeat(np.arange(len(code)), after)
    second = first + 1 + np.arange(len(first)) \
        - np.repeat(np.cumsum(after) - after, after)
    packed = (code[first].astype(np.uint64) << np.uint64(32)) \
        | code[second].astype(np.uint64)
    if weights is None:
        pk, v = np.unique(packed, return_counts=True)
        v = v.astype(np.int64, copy=False)
    else:
        w = np.asarray(weights, dtype=np.float64)[order][keep]
        pk, inv = np.unique(packed, return_inverse=True)
        # bincount of no rows is int64 even with weights
        v = np.bincount(inv, weights=w[first] * w[second],
                        minlength=len(pk)).astype(np.float64, copy=False)
    return (uid[(pk >> np.uint64(32)).astype(np.int64)],
            uid[(pk & np.uint64(0xFFFFFFFF)).astype(np.int64)], v)
