"""Dense-sparse decomposition for subset rank-select.

Keep one symbol per nonempty set, its minimum, in a regular base string
of length n - n0, and list every removed symbol c by its row, the index of
its set among the nonempty sets. The rows of all symbols sit in one array,
each symbol's run sorted, with sigma + 1 bounds marking where the runs
start. DsdStructure is reduction iii's empty-set layer (reductions._Empties,
the only layer that queries E) over this decomposition, so a subset-rank
query is one rank on E to skip the empties, then one on the base string and
one search of the queried symbol's run.

Select merges two disjoint sorted lists of nonempty sets: A_c, the sets
whose kept symbol is c (rank base.rank(p, c), select base.select(k, c)), and
B_c, the run of c. g(t) = t + rank_A(B_c[t]) counts the sets containing c
before B_c[t]; it is strictly increasing, so the j-th such set is B_c[t] if
some t has g(t) = j - 1, and otherwise the (j - t)-th element of A_c for the
smallest t with g(t) > j - 1. That t lies in a bracket of range
<= min(j, |A_c| + 1, |B_c|) candidates, searched by guarded interpolation
(Perl, Itai and Avni, CACM 1978). Each probe is one row lookup and one base
rank, at the secant guess between the last probes below and above j - 1,
starting from the ends g(-1) = -1 and g(|B_c|) = |A_c| + |B_c|. g is close
to linear on any layout that is not adversarial, so a probe often lands on
g(t) = j - 1, and the search stops there. A probe that fails to halve the
bracket makes the next one a bisection, which bounds the worst case at
2 * ceil(log2(range + 1)) probes. The empty-set layer then maps the answer
to a set position with one select0 on E. No index beyond the decomposition
is stored.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import pairwise

import numpy as np

from ._bits import narrow_uint
from .bitvector import SparseBitvector
from .degenerate import DegenerateString
from .reductions import _build_base, _check_alphabet, _check_base, _Empties, _SubsetQueries


class _Decomposition(_SubsetQueries):
    """The base string of kept symbols and the overflow rows over the
    nonempty sets: symbol c's run is _rows[_bounds[c]:_bounds[c + 1]], the
    one index of the runs, and sigma >= 1 is the number of runs. The scalar
    kernels read _rows, _bounds and the base's symbol counts as Python ints
    through memoryviews: rank bisects c's run in place with the C bisect
    module, and a select probe is one subscript."""

    n0 = 0

    def __init__(self, base, overflow):
        if not overflow:
            raise ValueError("a DSD needs one overflow vector per symbol, at least one")
        self.sigma = len(overflow)
        if any(ov.length != base.length for ov in overflow):
            raise ValueError(f"every overflow vector must have length {base.length}, "
                             "one bit per nonempty set")
        _check_alphabet(base, self.sigma)
        self._base = base
        self._rows = np.concatenate([ov._ones for ov in overflow])
        self._bounds = np.zeros(self.sigma + 1, dtype=np.int64)
        np.cumsum([ov.ones_count for ov in overflow], out=self._bounds[1:])
        self._rows_mv, self._bounds_mv = memoryview(self._rows), memoryview(self._bounds)
        self._kept_mv = memoryview(base.symbol_counts())
        self.n = base.length
        self.N = base.length + self._rows.size
        self.base_name = base.base_name
        self.block_words = base.block_words
        self._set_containing(base.symbol_counts()[:self.sigma] + np.diff(self._bounds))

    def _rank(self, i: int, c: int) -> int:
        at = self._bounds_mv[c]
        return (self._base._rank(i, c)
                + bisect_left(self._rows_mv, i, at, self._bounds_mv[c + 1]) - at)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        # The overflow ranks grouped by symbol: one stable sort of c, a radix
        # sort in its narrowest dtype, keeps each symbol's queries in the
        # order they came, which is i order on the public path. Each symbol
        # that occurs then searches its run once, and the answers go back in
        # one scatter.
        out = self._base._rank_many(i, c)
        order = np.argsort(c.astype(narrow_uint(self.sigma - 1)), kind="stable")
        cs, io = c[order], i[order].astype(self._rows.dtype)
        over = np.empty(c.size, dtype=np.int64)
        rows, bounds = self._rows, self._bounds_mv
        start = 0
        for end in np.append(np.flatnonzero(cs[1:] != cs[:-1]) + 1, c.size).tolist():
            if end > start:
                sym = cs.item(start)
                over[start:end] = rows[bounds[sym]:bounds[sym + 1]].searchsorted(io[start:end])
            start = end
        out[order] += over
        return out

    def _select(self, j: int, c: int) -> int:
        rows, at = self._rows_mv, self._bounds_mv[c]
        n_a, n_b = self._kept_mv[c], self._bounds_mv[c + 1] - at
        want = j - 1
        # The answer's t is the smallest t with g(t) >= want: every t below lo
        # has g(t) < want, and every t at or above hi is past the end of B_c or
        # has g(t) >= t >= j. The anchors (tl, gl) and (tr, gr) are the last
        # probes on each side, starting from the ends g(-1) = -1 and
        # g(n_b) = n_a + n_b.
        lo = want - n_a if want > n_a else 0
        hi = j if j < n_b else n_b
        tl, gl, tr, gr = -1, -1, n_b, n_a + n_b
        bisect = False
        while lo < hi:
            if bisect:
                mid = (lo + hi) >> 1
            else:  # the secant guess, clamped into the bracket
                mid = tl + (want - gl) * (tr - tl) // (gr - gl)
                mid = lo if mid < lo else hi - 1 if mid >= hi else mid
            b = rows[at + mid]
            g = mid + self._base._rank(b, c)
            if g == want:
                return b
            width = hi - lo
            if g < want:
                lo, tl, gl = mid + 1, mid, g
            else:
                hi, tr, gr = mid, mid, g
            bisect = 2 * (hi - lo) > width
        return self._base._select(j - lo, c)

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        # The search of _select for every query at once, each with its own
        # bracket, anchors and bisect flag, in whatever order the queries
        # come. A round probes every live query with one gather from _rows
        # and one base rank; a query leaves the round it hits or its bracket
        # closes. The secant guess is taken in float64, where the int64
        # product could wrap past n = 2**31; it is clamped into the bracket,
        # so rounding can cost a round but never change an answer.
        want = j - 1
        n_a = self._base.symbol_counts()[c]
        at = self._bounds[c]
        n_b = self._bounds[c + 1] - at
        t = np.maximum(0, want - n_a)  # lo of every query: its final t unless it hits
        hi = np.minimum(j, n_b)
        out = np.full(j.size, -1, dtype=np.int64)  # a row once the query hits
        q = np.flatnonzero(t < hi)
        w, cq, at, lo, hi = want[q], c[q], at[q], t[q], hi[q]
        tl, gl = np.full(q.size, -1, dtype=np.int64), np.full(q.size, -1, dtype=np.int64)
        tr, gr = n_b[q], n_a[q] + n_b[q]
        bisect = np.zeros(q.size, dtype=bool)
        while q.size:
            guess = np.clip(tl + (w - gl) * ((tr - tl) / (gr - gl)), lo, hi - 1)
            mid = np.where(bisect, (lo + hi) >> 1, guess.astype(np.int64))
            b = self._rows[at + mid].astype(np.int64)
            g = mid + self._base._rank_many(b, cq)
            width = hi - lo
            below = g < w
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
            tl, gl = np.where(below, mid, tl), np.where(below, g, gl)
            tr, gr = np.where(below, tr, mid), np.where(below, gr, g)
            bisect = 2 * (hi - lo) > width
            found = g == w
            out[q[found]] = b[found]
            t[q] = lo
            keep = np.flatnonzero((lo < hi) & ~found)
            q, w, cq, at, lo, hi, tl, gl, tr, gr, bisect = (
                x[keep] for x in (q, w, cq, at, lo, hi, tl, gl, tr, gr, bisect))
        rest = np.flatnonzero(out < 0)
        if rest.size:
            out[rest] = self._base._select_many(j[rest] - t[rest], c[rest])
        return out

    def size_breakdown(self) -> dict:
        return {"base": self._base.size_bits(),
                "overflow": 8 * (self._rows.nbytes + self._bounds.nbytes)}


class DsdStructure(_Empties):
    """Built from E, the base string of kept symbols and one overflow vector
    of length n - n0 per symbol, whose ones are the symbol's rows; sigma >= 1
    is the number of overflow vectors. components() gives the same parts back."""

    structure_name = "dsd"

    def __init__(self, E: SparseBitvector, base, overflow):
        super().__init__(E, _Decomposition(base, overflow))

    def overflow_counts(self) -> np.ndarray:
        return np.diff(self._inner._bounds)

    def components(self):
        inner = self._inner
        # the runs were checked when the structure was built or loaded
        return self._E, inner._base, [SparseBitvector._from_sorted(inner.n, inner._rows[a:b])
                                      for a, b in pairwise(inner._bounds_mv)]


def build_dsd(x: DegenerateString, base: str = "wavelet",
              block_words: int = 8) -> DsdStructure:
    """Keep the smallest member of every nonempty set in the base string and
    move the other members to the overflow vectors of their symbols.

    The split takes no boolean index. One scatter of every set's start marks
    the kept members, the first of each nonempty set, since an empty set
    starts where the next nonempty set does, or at N. The q-th removed
    member, at position p, lies in row p - q - 1: the kept members up to p,
    less one. One stable argsort of the removed members' symbols, a radix
    sort in their narrow dtype, groups them by symbol with rows ascending.
    """
    block_words = _check_base(x.sigma, base, block_words)
    E = SparseBitvector(x.n, np.flatnonzero(x._empty()))
    kept = np.zeros(x.N + 1, dtype=bool)  # slot N takes the starts of trailing empty sets
    kept[x.offsets[:-1]] = True
    kept = kept[:-1]
    moved = np.flatnonzero(~kept)
    syms = x.symbols.take(moved)
    order = np.argsort(syms, kind="stable")
    rows = (moved - np.arange(1, moved.size + 1))[order]
    bounds = np.zeros(x.sigma + 1, dtype=np.int64)
    np.cumsum(np.bincount(syms, minlength=x.sigma), out=bounds[1:])
    overflow = [SparseBitvector(E.zeros_count, rows[bounds[c]:bounds[c + 1]])
                for c in range(x.sigma)]
    return DsdStructure(E, _build_base(x.symbols.compress(kept), x.sigma, base, block_words),
                        overflow)
