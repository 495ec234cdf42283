"""Dense-sparse decomposition for subset rank-select.

Keep one symbol per nonempty set, its minimum, in a regular base string
of length n - n0, and record every removed symbol c as a set bit at its set
position in a per-symbol sparse bitvector. Together with the empty-position
bitvector E, a subset-rank query is three ranks: one on E to skip empties,
one on the base string, one on the overflow vector of the queried symbol.

Select merges two disjoint sorted lists: A_c, the sets whose kept symbol is
c (rank base.rank(p - E.rank(p), c), select E.select0(base.select(k, c) + 1)),
and B_c, the positions of overflow[c]. The number t of B_c elements among
the first j - 1 sets containing c is found by binary search on
g(t) = t + rank_A(B_c[t]), which is strictly increasing, over a range of at
most |A_c| + 1 values. Each step is one E rank, one base rank and one
overflow lookup; the answer is B_c[t] when g(t) = j - 1, and otherwise the
(j - t)-th element of A_c. No index beyond the decomposition is stored.
"""

from __future__ import annotations

import numpy as np

from .bitvector import SparseBitvector
from .degenerate import DegenerateString
from .reductions import _build_base, _check_alphabet, _SubsetQueries


class DsdStructure(_SubsetQueries):
    """Built from E, the base string of kept symbols and one overflow vector
    per symbol; sigma is the number of overflow vectors."""

    structure_name = "dsd"

    def __init__(self, E: SparseBitvector, base, overflow):
        overflow = list(overflow)
        if base.length != E.zeros_count:
            raise ValueError(f"base string has {base.length} symbols, "
                             f"E marks {E.zeros_count} nonempty sets")
        if any(ov.length != E.length for ov in overflow):
            raise ValueError(f"every overflow vector must have length {E.length}")
        _check_alphabet(base, len(overflow))
        self._E = E
        self._base = base
        self._overflow = overflow
        self.sigma = len(overflow)
        self.n = E.length
        self.N = base.length + sum(ov.ones_count for ov in overflow)
        self.n0 = E.ones_count
        self.base_name = base.base_name
        self.block_words = base.block_words
        self._containing = base.symbol_counts()[:self.sigma] + self.overflow_counts()

    def _rank(self, i: int, c: int) -> int:
        dense = i - self._E._rank(i, 1)
        return self._base._rank(dense, c) + self._overflow[c]._rank(i, 1)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        dense = i - self._E._rank_many(i, 1)
        out = self._base._rank_many(dense, c)
        for cc in np.flatnonzero(np.bincount(c, minlength=self.sigma)):
            m = c == cc
            out[m] += self._overflow[cc]._rank_many(i[m], 1)
        return out

    def _select(self, j: int, c: int) -> int:
        ov = self._overflow[c]
        n_a, n_b = int(self._base.symbol_counts()[c]), ov.ones_count
        # Smallest t with g(t) >= j - 1; every t below the range has g(t) < j - 1
        # and every t at or above it is past the end of B_c or has g(t) >= t >= j.
        lo, hi = max(0, j - 1 - n_a), min(j, n_b)
        hit = False
        while lo < hi:
            mid = (lo + hi) // 2
            b = ov._select(mid + 1, 1)
            g = mid + self._base._rank(b - self._E._rank(b, 1), c)
            if g < j - 1:
                lo = mid + 1
            else:
                hi, hit, found = mid, g == j - 1, b
        if hit:
            return found
        return self._E._select(self._base._select(j - lo, c) + 1, 0)

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        n_a = self._base.symbol_counts()[c]
        n_b = self._containing[c] - n_a
        # The search of subset_select for every query at once. Queries are
        # sorted by symbol, then by j, so each round reads each overflow list
        # once and passes increasing keys to the E and base ranks.
        order = np.lexsort((j, c))
        j, c, n_a, n_b = j[order], c[order], n_a[order], n_b[order]
        lo = np.maximum(0, j - 1 - n_a)
        hi = np.minimum(j, n_b)
        hit = np.zeros(j.size, dtype=bool)
        out = np.empty(j.size, dtype=np.int64)
        symbols = np.flatnonzero(np.bincount(c, minlength=self.sigma))
        while True:
            q = np.flatnonzero(lo < hi)
            if q.size == 0:
                break
            mid = (lo[q] + hi[q]) >> 1
            cq = c[q]
            b = np.empty(q.size, dtype=np.int64)
            ends = np.searchsorted(cq, symbols, side="right")
            start = 0
            for cc, end in zip(symbols.tolist(), ends.tolist()):
                if end > start:
                    b[start:end] = self._overflow[cc]._select_many(mid[start:end] + 1, 1)
                start = end
            g = mid + self._base._rank_many(b - self._E._rank_many(b, 1), cq)
            below = g < j[q] - 1
            lo[q[below]] = mid[below] + 1
            above = ~below
            at = q[above]
            hi[at] = mid[above]
            hit[at] = g[above] == j[at] - 1
            out[at] = b[above]
        rest = np.flatnonzero(~hit)
        if rest.size:
            dense = self._base._select_many(j[rest] - lo[rest], c[rest])
            out[rest] = self._E._select_many(dense + 1, 0)
        result = np.empty_like(out)
        result[order] = out
        return result

    def size_breakdown(self) -> dict:
        out = {"E": self._E.size_bits(), "base": self._base.size_bits()}
        for c, ov in enumerate(self._overflow):
            out[f"overflow[{c}]"] = ov.size_bits()
        return out

    def size_bits(self) -> int:
        return sum(self.size_breakdown().values())

    def overflow_counts(self) -> np.ndarray:
        return np.array([ov.ones_count for ov in self._overflow], dtype=np.int64)

    def components(self):
        return self._E, self._base, self._overflow

    def decompose(self) -> DegenerateString:
        """Reconstruct the instance: kept symbol plus overflow members per set."""
        counts = np.zeros(self.n, dtype=np.int64)
        mask = np.ones(self.n, dtype=bool)
        mask[self._E.positions()] = False
        counts[mask] += 1
        for ov in self._overflow:
            counts[ov.positions()] += 1
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        fill = offsets[:-1].copy()
        syms = np.zeros(offsets[-1], dtype=np.int64)
        dense_idx = np.flatnonzero(mask)
        for c in range(self.sigma):
            total = int(self._base.symbol_counts()[c])
            js = np.arange(1, total + 1, dtype=np.int64)
            rows = dense_idx[self._base._select_many(js, np.full(total, c))]
            syms[fill[rows]] = c
            fill[rows] += 1
            pos = self._overflow[c].positions()
            if pos.size:
                syms[fill[pos]] = c
                fill[pos] += 1
        # members were appended kept-first then by symbol; sort inside sets
        out = DegenerateString(self.sigma, syms, offsets, validate=False)
        order = np.argsort(out.element_rows() * (self.sigma + 1) + syms, kind="stable")
        return DegenerateString(self.sigma, syms[order], offsets, validate=False)

    def __repr__(self) -> str:
        return (f"DsdStructure(sigma={self.sigma}, n={self.n}, N={self.N}, "
                f"n0={self.n0}, base={self.base_name})")


def build_dsd(x: DegenerateString, base: str = "wavelet",
              block_words: int = 8) -> DsdStructure:
    """Keep the smallest member of every nonempty set in the base string and
    move the other members to the overflow vectors of their symbols."""
    nonempty = x.set_sizes() > 0
    E = SparseBitvector(x.n, np.flatnonzero(~nonempty))
    kept_at = x.offsets[:-1][nonempty]
    removed = np.ones(x.N, dtype=bool)
    removed[kept_at] = False
    # one stable sort groups the removed members by symbol, rows ascending
    syms = x.symbols[removed]
    order = np.argsort(syms, kind="stable")
    rows = x.element_rows()[removed][order]
    bounds = np.zeros(x.sigma + 1, dtype=np.int64)
    np.cumsum(np.bincount(syms, minlength=x.sigma), out=bounds[1:])
    overflow = [SparseBitvector(x.n, rows[bounds[c]:bounds[c + 1]]) for c in range(x.sigma)]
    return DsdStructure(E, _build_base(x.symbols[kept_at], x.sigma, base, block_words),
                        overflow)
