"""Dense-sparse decomposition for subset rank-select.

Keep one symbol per nonempty set, its minimum, in a regular base string
of length n - n0, and record every removed symbol c as a set bit at its set
position in a per-symbol sparse bitvector. Both are indexed by nonempty set:
the overflow vectors have length n - n0. DsdStructure is reduction iii's
empty-set layer (reductions._Empties, the only layer that queries E) over
this decomposition, so a subset-rank query is one rank on E to skip the
empties, then one on the base string and one on the overflow vector of the
queried symbol.

Select merges two disjoint sorted lists of nonempty sets: A_c, the sets
whose kept symbol is c (rank base.rank(p, c), select base.select(k, c)), and
B_c, the positions of overflow[c]. The number t of B_c elements among the
first j - 1 sets containing c is found by binary search on
g(t) = t + rank_A(B_c[t]), which is strictly increasing, over a range of at
most |A_c| + 1 values. Each step is one base rank and one overflow lookup;
the answer is B_c[t] when g(t) = j - 1, and otherwise the (j - t)-th element
of A_c. The empty-set layer then maps it to a set position with one select0
on E. No index beyond the decomposition is stored.
"""

from __future__ import annotations

import numpy as np

from .bitvector import SparseBitvector
from .degenerate import DegenerateString
from .reductions import _build_base, _check_alphabet, _Empties, _SubsetQueries


class _Decomposition(_SubsetQueries):
    """The base string of kept symbols and one overflow vector per symbol,
    over the nonempty sets; sigma is the number of overflow vectors."""

    n0 = 0

    def __init__(self, base, overflow):
        self._base = base
        self._overflow = list(overflow)
        self.sigma = len(self._overflow)
        if any(ov.length != base.length for ov in self._overflow):
            raise ValueError(f"every overflow vector must have length {base.length}, "
                             "one bit per nonempty set")
        _check_alphabet(base, self.sigma)
        self.n = base.length
        over = np.array([ov.ones_count for ov in self._overflow], dtype=np.int64)
        self.N = base.length + int(over.sum())
        self.base_name = base.base_name
        self.block_words = base.block_words
        self._containing = base.symbol_counts()[:self.sigma] + over

    def _rank(self, i: int, c: int) -> int:
        return self._base._rank(i, c) + self._overflow[c]._rank(i, 1)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = self._base._rank_many(i, c)
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
            g = mid + self._base._rank(b, c)
            if g < j - 1:
                lo = mid + 1
            else:
                hi, hit, found = mid, g == j - 1, b
        if hit:
            return found
        return self._base._select(j - lo, c)

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        n_a = self._base.symbol_counts()[c]
        n_b = self._containing[c] - n_a
        # The search of _select for every query at once. Queries are sorted
        # by symbol, then by j, so each round reads each overflow list once
        # and passes increasing keys to the base rank.
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
            g = mid + self._base._rank_many(b, cq)
            below = g < j[q] - 1
            lo[q[below]] = mid[below] + 1
            above = ~below
            at = q[above]
            hi[at] = mid[above]
            hit[at] = g[above] == j[at] - 1
            out[at] = b[above]
        rest = np.flatnonzero(~hit)
        if rest.size:
            out[rest] = self._base._select_many(j[rest] - lo[rest], c[rest])
        result = np.empty_like(out)
        result[order] = out
        return result

    def size_breakdown(self) -> dict:
        out = {"base": self._base.size_bits()}
        for c, ov in enumerate(self._overflow):
            out[f"overflow[{c}]"] = ov.size_bits()
        return out


class DsdStructure(_Empties):
    """Built from E, the base string of kept symbols and one overflow vector
    of length n - n0 per symbol; sigma is the number of overflow vectors."""

    structure_name = "dsd"

    def __init__(self, E: SparseBitvector, base, overflow):
        super().__init__(E, _Decomposition(base, overflow))

    def overflow_counts(self) -> np.ndarray:
        return self._containing - self._inner._base.symbol_counts()[:self.sigma]

    def components(self):
        return self._E, self._inner._base, self._inner._overflow


def build_dsd(x: DegenerateString, base: str = "wavelet",
              block_words: int = 8) -> DsdStructure:
    """Keep the smallest member of every nonempty set in the base string and
    move the other members to the overflow vectors of their symbols."""
    sizes = x.set_sizes()
    nonempty = sizes > 0
    E = SparseBitvector(x.n, np.flatnonzero(~nonempty))
    kept_at = x.offsets[:-1][nonempty]
    removed = np.ones(x.N, dtype=bool)
    removed[kept_at] = False
    # one stable sort groups the removed members by symbol, rows ascending;
    # they are all but the first member of each nonempty set, in order
    syms = x.symbols[removed]
    order = np.argsort(syms, kind="stable")
    rows = np.repeat(np.arange(kept_at.size, dtype=np.int64), sizes[nonempty] - 1)[order]
    bounds = np.zeros(x.sigma + 1, dtype=np.int64)
    np.cumsum(np.bincount(syms, minlength=x.sigma), out=bounds[1:])
    overflow = [SparseBitvector(kept_at.size, rows[bounds[c]:bounds[c + 1]])
                for c in range(x.sigma)]
    return DsdStructure(E, _build_base(x.symbols[kept_at], x.sigma, base, block_words),
                        overflow)
