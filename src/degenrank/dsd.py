"""Dense-sparse decomposition for subset rank-select.

Keep one symbol per nonempty set, its minimum, in a regular base string
of length n - n0, and list every removed symbol c by its row, the index of
its set among the nonempty sets. The rows of all symbols sit in one array,
each symbol's run sorted, with sigma + 1 bounds marking where the runs
start, from build or load on. DsdStructure is reduction iii's empty-set
layer (reductions._Empties, the only layer that queries E) over this
decomposition, so a subset-rank query is one rank on E to skip the empties,
then one on the base string and one search of the queried symbol's run.

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

A batch runs that search for all its queries at once, a round of one base
rank per live query. The first round is shared: each query then also takes
the probes of the other queries of its symbol that lie nearest to j - 1 on
either side, found by one search of every probe keyed as c * (n + 1) +
g(t). The public boundary hands the batch over in (c, j) order, in which
these keys ascend, so each bracket shrinks to the gap between two
neighbouring probes, and a query whose set another query probed is
answered. On a wide batch of 8,192 queries this cut the base ranks by
about a quarter, and no order of the queries can change an answer.

The constructor checks that every overflow row of symbol c holds a set
whose kept symbol is below c, with one decode of the base: the kept symbol
is the set's minimum, so a row that fails would list a member twice or out
of order. build_dsd, whose parts come from a checked DegenerateString,
skips the decode.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import pairwise

import numpy as np

from ._bits import index_args, narrow_uint, stored_indices
from .bitvector import SparseBitvector
from .degenerate import DegenerateString
from .reductions import _build_base, _check_base, _Empties, _SubsetQueries


class _Decomposition(_SubsetQueries):
    """The base string of kept symbols and the overflow rows over the
    nonempty sets: symbol c's run is _rows[_bounds[c]:_bounds[c + 1]], the
    one index of the runs, one run per symbol of the base. The scalar
    kernels read _rows, _bounds and the base's symbol counts as Python ints
    through memoryviews: rank bisects c's run in place with the C bisect
    module, and a select probe is one subscript."""

    n0 = 0

    def __init__(self, base, rows, counts):
        rows = stored_indices(rows, base.length - 1, narrow_uint(base.length), "overflow rows")
        counts = index_args(counts, 0, rows.size, "overflow counts", ValueError)
        self.sigma = base.sigma
        if counts.shape != (self.sigma,):
            raise ValueError(f"a DSD needs one overflow count per symbol of its base, "
                             f"{self.sigma}, got counts of shape {counts.shape}")
        self._bounds = np.zeros(self.sigma + 1, dtype=np.int64)
        np.cumsum(counts, out=self._bounds[1:])
        if rows.shape != (self._bounds[-1],):
            raise ValueError(f"overflow counts sum to {self._bounds[-1]}, rows are {rows.shape}")
        if not np.isin(np.flatnonzero(rows[1:] <= rows[:-1]) + 1, self._bounds).all():
            raise ValueError("overflow rows must be strictly increasing inside each run")
        self._base = base
        self._rows = rows
        self._rows_mv, self._bounds_mv = memoryview(self._rows), memoryview(self._bounds)
        self._kept_mv = memoryview(base.symbol_counts())
        self.n = base.length
        self.N = base.length + rows.size
        self.base_name = base.base_name
        self._set_containing(base.symbol_counts() + np.diff(self._bounds))

    def _rank(self, i: int, c: int) -> int:
        at = self._bounds_mv[c]
        return (self._base._rank(i, c)
                + bisect_left(self._rows_mv, i, at, self._bounds_mv[c + 1]) - at)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        # One search of symbol c's run per stretch of equal neighbouring c.
        # The public boundary orders DSD ranks by (c, i), so each symbol of a
        # batch is one stretch with ascending prefixes; searchsorted needs no
        # sorted keys, so any order is exact, and a shuffled batch only makes
        # more stretches.
        out = self._base._rank_many(i, c)
        io = i.astype(self._rows.dtype)
        rows, bounds = self._rows, self._bounds_mv
        starts = np.flatnonzero(np.diff(c, prepend=-1)).tolist()
        for start, end in pairwise(starts + [c.size]):
            sym = c.item(start)
            out[start:end] += rows[bounds[sym]:bounds[sym + 1]].searchsorted(io[start:end])
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
        # so rounding can cost a round but never change an answer. After the
        # first round each query takes the probes on either side of its key
        # c * (n + 1) + want among the keys c * (n + 1) + g of all probes: one
        # of its symbol below want raises lo, one above lowers hi, one at
        # want answers it. Each is checked for its symbol and its side before
        # it is used, so probes that do not ascend, or a wrapped key, can
        # only cost rounds.
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
        shared = False
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
            if not shared:
                shared = True
                key = cq * (self.n + 1)
                right = (key + g).searchsorted(key + w)  # the first probe at or past want
                left = np.maximum(right - 1, 0)
                right = np.minimum(right, q.size - 1)
                same, g_nb, t_nb = cq[right] == cq, g[right], mid[right]
                hit = same & (g_nb == w)
                found |= hit
                b = np.where(hit, b[right], b)
                side = same & (g_nb > w) & (t_nb < hi)
                hi, tr, gr = (np.where(side, t_nb, hi), np.where(side, t_nb, tr),
                              np.where(side, g_nb, gr))
                same, g_nb, t_nb = cq[left] == cq, g[left], mid[left]
                side = same & (g_nb < w) & (t_nb >= lo)
                lo, tl, gl = (np.where(side, t_nb + 1, lo), np.where(side, t_nb, tl),
                              np.where(side, g_nb, gl))
                bisect[:] = False
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
        return {"base": self._base.size_bits(), "overflow": 8 * (
            self._rows.nbytes + self._bounds.nbytes + self._containing.nbytes)}


class DsdStructure(_Empties):
    """Built from E, the base string of kept symbols over the n - n0 nonempty
    sets, and the overflow runs: rows holds each symbol's strictly increasing
    rows in [0, n - n0) back to back, symbol 0 first, and counts, one for
    each of the base's sigma symbols, the length of each run."""

    structure_name = "dsd"
    _ranks_by_symbol = True  # _Decomposition._rank_many searches one symbol's run at a time
    # Each round of a batched select makes about 100 numpy calls, however few
    # queries are left in it. A sweep of 33 to 128 queries on the wide and
    # genomic benchmark instances put the crossover at 64 to 80 selects on
    # the wavelet base and at 56 to 64 on the bitplane base.
    _scalar_selects = 64

    def __init__(self, E: SparseBitvector, base, rows, counts):
        super().__init__(E, _Decomposition(base, rows, counts))
        # A set keeps its smallest member, so every overflow row of symbol c
        # holds a set whose kept symbol is below c: one decode of the base,
        # one gather and one compare.
        inner = self._inner
        kept = base._decode()[inner._rows]
        runs = np.repeat(np.arange(self.sigma, dtype=kept.dtype), np.diff(inner._bounds))
        bad = np.flatnonzero(kept >= runs)
        if bad.size:
            k = bad[0]
            raise ValueError(f"overflow row {inner._rows[k]} of symbol {runs[k]} marks a set "
                             f"that keeps symbol {kept[k]}, not a smaller one")

    @classmethod
    def _trusted(cls, E: SparseBitvector, base, rows, counts) -> "DsdStructure":
        """The structure over parts split from a checked DegenerateString,
        without the decode that checks each row against its kept symbol."""
        self = cls.__new__(cls)
        _Empties.__init__(self, E, _Decomposition(base, rows, counts))
        return self

    def components(self):
        """E, the base string and, made on each call, one vector per run."""
        inner = self._inner
        return self._E, inner._base, [SparseBitvector(inner.n, inner._rows[a:b])
                                      for a, b in pairwise(inner._bounds_mv)]


def build_dsd(x: DegenerateString, base: str = "wavelet",
              block_words: int = 8) -> DsdStructure:
    """Keep the smallest member of every nonempty set in the base string and
    move the other members to the overflow runs of their symbols.

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
    rows = (moved - np.arange(1, moved.size + 1))[np.argsort(syms, kind="stable")]
    return DsdStructure._trusted(E, _build_base(x.symbols.compress(kept), x.sigma, base,
                                                block_words),
                                 rows, np.bincount(syms, minlength=x.sigma))
