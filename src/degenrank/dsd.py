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
B_c, the positions of overflow[c]. g(t) = t + rank_A(B_c[t]) counts the sets
containing c before B_c[t]; it is strictly increasing, so the j-th such set
is B_c[t] if some t has g(t) = j - 1, and otherwise the (j - t)-th element
of A_c for the smallest t with g(t) > j - 1. That t lies in a bracket of
range <= min(j, |A_c| + 1, |B_c|) candidates, searched by guarded
interpolation (Perl, Itai and Avni, CACM 1978). Each probe is one overflow
lookup and one base rank, at the secant guess between the last probes below
and above j - 1, starting from the ends g(-1) = -1 and
g(|B_c|) = |A_c| + |B_c|. g is close to linear on any layout that is not
adversarial, so a probe often lands on g(t) = j - 1, and the search stops
there. A probe that fails to halve the bracket makes the next one a
bisection, which bounds the worst case at 2 * ceil(log2(range + 1))
probes. The empty-set layer then maps the answer to a set position with one
select0 on E. No index beyond the decomposition is stored.
"""

from __future__ import annotations

import numpy as np

from ._bits import narrow_uint
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
        self._first = np.cumsum(self._containing) - self._containing

    def _rank(self, i: int, c: int) -> int:
        return self._base._rank(i, c) + self._overflow[c]._rank(i, 1)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        # The overflow ranks grouped by symbol: one stable sort of c, a radix
        # sort in its narrowest dtype, keeps each symbol's queries in the
        # order they came, which is i order on the public path. Each symbol
        # that occurs then ranks its contiguous slice once, and the answers
        # go back in one scatter.
        out = self._base._rank_many(i, c)
        order = np.argsort(c.astype(narrow_uint(self.sigma - 1)), kind="stable")
        cs, io = c[order], i[order]
        over = np.empty(c.size, dtype=np.int64)
        start = 0
        for end in np.append(np.flatnonzero(cs[1:] != cs[:-1]) + 1, c.size).tolist():
            if end > start:
                over[start:end] = self._overflow[cs.item(start)]._rank_many(io[start:end], 1)
            start = end
        out[order] += over
        return out

    def _select(self, j: int, c: int) -> int:
        ov = self._overflow[c]
        n_a, n_b = self._base.symbol_counts().item(c), ov.ones_count
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
            else:
                mid = min(max(tl + (want - gl) * (tr - tl) // (gr - gl), lo), hi - 1)
            b = ov._select(mid + 1, 1)
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
        # bracket, anchors and bisect flag. Queries are sorted by the one key
        # _first[c] + j, which orders them by symbol, then by j, so each round
        # reads each overflow list once and passes increasing keys to the base
        # rank; a query leaves the round it hits or its bracket closes. The
        # secant guess is taken in float64, where the int64 product could wrap
        # past n = 2**31; it is clamped into the bracket, so rounding can cost
        # a round but never change an answer.
        order = np.argsort(self._first[c] + j)
        want, c = j[order] - 1, c[order]
        n_a = self._base.symbol_counts()[c]
        n_b = self._containing[c] - n_a
        t = np.maximum(0, want - n_a)  # lo of every query: its final t unless it hits
        hi = np.minimum(want + 1, n_b)
        hit = np.zeros(j.size, dtype=bool)
        out = np.empty(j.size, dtype=np.int64)
        q = np.flatnonzero(t < hi)
        w, cq, lo, hi = want[q], c[q], t[q], hi[q]
        tl, gl = np.full(q.size, -1, dtype=np.int64), np.full(q.size, -1, dtype=np.int64)
        tr, gr = n_b[q], n_a[q] + n_b[q]
        bisect = np.zeros(q.size, dtype=bool)
        symbols = np.flatnonzero(np.bincount(c, minlength=self.sigma))
        while q.size:
            guess = np.clip(tl + (w - gl) * ((tr - tl) / (gr - gl)), lo, hi - 1)
            mid = np.where(bisect, (lo + hi) >> 1, guess.astype(np.int64))
            b = np.empty(q.size, dtype=np.int64)
            ends = np.searchsorted(cq, symbols, side="right")
            start = 0
            for cc, end in zip(symbols.tolist(), ends.tolist()):
                if end > start:
                    b[start:end] = self._overflow[cc]._select_many(mid[start:end] + 1, 1)
                start = end
            g = mid + self._base._rank_many(b, cq)
            width = hi - lo
            below = g < w
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
            tl, gl = np.where(below, mid, tl), np.where(below, g, gl)
            tr, gr = np.where(below, tr, mid), np.where(below, gr, g)
            bisect = 2 * (hi - lo) > width
            found = g == w
            hit[q[found]] = True
            out[q[found]] = b[found]
            t[q] = lo
            keep = np.flatnonzero((lo < hi) & ~found)
            q, w, cq, lo, hi, tl, gl, tr, gr, bisect = (
                x[keep] for x in (q, w, cq, lo, hi, tl, gl, tr, gr, bisect))
        rest = np.flatnonzero(~hit)
        if rest.size:
            out[rest] = self._base._select_many(want[rest] + 1 - t[rest], c[rest])
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
