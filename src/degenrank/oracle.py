"""Brute-force subset-rank and subset-select.

Linear scans straight off the definitions: subset-rank(i, c) is the number
of sets among the first i that contain c, subset-select(j, c) the 0-indexed
position of the j-th containing set. Only for tests and verification, never
for benchmarks. The *_table helpers answer every query of an instance at
once so sweeps stay cheap while the scalar functions stay naive.
"""

from __future__ import annotations

import numpy as np

from .degenerate import DegenerateString


def oracle_rank(x: DegenerateString, i: int, c: int) -> int:
    if not 0 <= i <= x.n:
        raise IndexError(f"prefix {i} out of range for length {x.n}")
    if not 0 <= c < x.sigma:
        raise IndexError(f"symbol {c} out of range for sigma {x.sigma}")
    off = x.offsets
    syms = x.symbols
    count = 0
    for k in range(i):
        members = syms[off[k]:off[k + 1]]
        if members.size and bool((members == c).any()):
            count += 1
    return count


def oracle_select(x: DegenerateString, j: int, c: int) -> int:
    if not 0 <= c < x.sigma:
        raise IndexError(f"symbol {c} out of range for sigma {x.sigma}")
    if j < 1:
        raise ValueError(f"select ordinal must be >= 1, got {j}")
    off = x.offsets
    syms = x.symbols
    seen = 0
    for k in range(x.n):
        members = syms[off[k]:off[k + 1]]
        if members.size and bool((members == c).any()):
            seen += 1
            if seen == j:
                return k
    raise ValueError(f"select({j}, {c}) out of range: only {seen} containing sets")


def rank_table(x: DegenerateString) -> np.ndarray:
    """(n+1, sigma) matrix T with T[i, c] = subset-rank(i, c)."""
    table = np.zeros((x.n + 1, x.sigma), dtype=np.int64)
    if x.N:
        rows = x.element_rows()
        np.add.at(table, (rows + 1, x.symbols.astype(np.int64)), 1)
    np.cumsum(table, axis=0, out=table)
    return table


def positions_of(x: DegenerateString, c: int) -> np.ndarray:
    """Sorted indices of the sets containing c; row k answers select(k+1, c)."""
    if not 0 <= c < x.sigma:
        raise IndexError(f"symbol {c} out of range for sigma {x.sigma}")
    if not x.N:
        return np.zeros(0, dtype=np.int64)
    rows = x.element_rows()
    return rows[x.symbols.astype(np.int64) == c]


def symbol_positions(x: DegenerateString) -> tuple[np.ndarray, np.ndarray]:
    """positions_of for every symbol at once, as pos and bounds: the sets that
    contain c are pos[bounds[c]:bounds[c + 1]]. One stable argsort of the
    members by symbol keeps each symbol's sets in ascending order."""
    pos = x.element_rows()[np.argsort(x.symbols, kind="stable")]
    bounds = np.zeros(x.sigma + 1, dtype=np.int64)
    np.cumsum(np.bincount(x.symbols, minlength=x.sigma), out=bounds[1:])
    return pos, bounds
