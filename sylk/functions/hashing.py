"""Shared deterministic hashing kernels.

One home for the splitmix64 finisher used by every bucketing/hashing
operator (minhash permutations, shingle combine, bucketed-join
placement, count-min rows, quantile sampling) — never
Python ``hash`` (PYTHONHASHSEED varies across Ray workers), and one set
of magic constants to keep correct.
"""

from __future__ import annotations

import numpy as np


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finisher over a uint64 array — a cheap uniform mixing
    function; salt by XORing before the call."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
