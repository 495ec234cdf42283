"""Rank and select over strings of small-alphabet symbols.

Two interchangeable backends:

* WaveletTree works for any alphabet size sigma >= 1 and answers queries in
  O(log sigma) bitvector operations.
* BitPlaneRank is a flat-layout alternative fixed to sigma <= 4. Symbols are
  split into a low and a high bit plane; a block of 512 * block_words symbols
  keeps one absolute count per symbol, and a query combines the counts with
  masked popcounts over the plane words, mirroring how wide-register scans
  batch the comparison `NOT(high XOR h) AND NOT(low XOR l)`.

Both use the same conventions as the bitvectors: rank(i, c) counts symbol c
in [0, i), select(j, c) is 0-indexed with 1-indexed j.
"""

from __future__ import annotations

import numpy as np

from ._bits import MASK_LOW, pack_bits, popcount, select_in_word, select_in_words
from .bitvector import PlainBitvector


def _as_symbols(symbols, sigma: int) -> np.ndarray:
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("symbols must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= sigma):
        raise ValueError(f"symbols must lie in [0, {sigma})")
    return arr


class WaveletTree:
    """Balanced wavelet tree over sigma symbols backed by PlainBitvector.

    Level k partitions positions by the top k bits of their symbol; the
    level bitvector stores bit (nbits-1-k) of each symbol in that order.
    Node boundaries and the ones-count at each boundary are precomputed per
    level so a query costs one bitvector rank or select per level.
    """

    base_name = "wavelet"
    block_words = None  # no blocks: counts sit at the node boundaries

    def __init__(self, symbols, sigma: int):
        if sigma < 1:
            raise ValueError("sigma must be at least 1")
        syms = _as_symbols(symbols, sigma)
        self.sigma = int(sigma)
        self.length = int(syms.size)
        self.nbits = (sigma - 1).bit_length()
        levels = []
        for k in range(self.nbits):
            key = syms >> (self.nbits - k)
            order = np.argsort(key, kind="stable")
            bits = ((syms[order] >> (self.nbits - 1 - k)) & 1).astype(np.uint8)
            levels.append(PlainBitvector(bits))
        self._levels = levels
        self._derive_tables()

    @classmethod
    def from_level_payload(cls, sigma: int, length: int, level_words) -> "WaveletTree":
        """Rebuild from the per-level packed bitvector payloads."""
        self = cls.__new__(cls)
        self.sigma = int(sigma)
        self.length = int(length)
        self.nbits = (sigma - 1).bit_length()
        if len(level_words) != self.nbits:
            raise ValueError(f"expected {self.nbits} levels, got {len(level_words)}")
        self._levels = [PlainBitvector.from_words(length, w) for w in level_words]
        self._derive_tables()
        return self

    def _derive_tables(self) -> None:
        # starts[k][m] is where node m of level k begins; ones_at mirrors the
        # ones-count of the level bitvector at each boundary.
        starts = [np.array([0, self.length], dtype=np.int64)]
        ones_at = []
        for bv in self._levels:
            s = starts[-1]
            r1 = bv.rank_many(s, 1)
            ones_at.append(r1)
            zeros = np.diff(s) - np.diff(r1)
            nxt = np.empty(2 * (s.size - 1) + 1, dtype=np.int64)
            nxt[0::2] = s
            nxt[1::2] = s[:-1] + zeros
            starts.append(nxt)
        self._starts = starts
        self._ones_at = ones_at
        leaf_widths = np.diff(starts[-1])
        self._counts = np.zeros(self.sigma, dtype=np.int64)
        self._counts[: leaf_widths.size] = leaf_widths[: self.sigma]

    def level_payload(self):
        return [(bv.length, bv._words) for bv in self._levels]

    # -- queries -------------------------------------------------------------

    def _check_symbol(self, c: int) -> None:
        if not 0 <= c < self.sigma:
            raise IndexError(f"symbol {c} out of range for sigma {self.sigma}")

    def symbol_count(self, c: int) -> int:
        self._check_symbol(c)
        return int(self._counts[c])

    def access(self, p: int) -> int:
        p = int(p)
        if not 0 <= p < self.length:
            raise IndexError(f"position {p} out of range")
        node, off, sym = 0, p, 0
        for k, bv in enumerate(self._levels):
            a = int(self._starts[k][node])
            bit = bv.bit(a + off)
            ones = bv.rank(a + off, 1) - int(self._ones_at[k][node])
            off = ones if bit else (off - ones)
            node = node * 2 + bit
            sym = sym * 2 + bit
        return sym

    def rank(self, i: int, c: int) -> int:
        self._check_symbol(c)
        i, c = int(i), int(c)
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range")
        p, node = i, 0
        for k, bv in enumerate(self._levels):
            a = int(self._starts[k][node])
            ones = bv.rank(a + p, 1) - int(self._ones_at[k][node])
            bit = (c >> (self.nbits - 1 - k)) & 1
            p = ones if bit else p - ones
            node = node * 2 + bit
        return p

    def rank_many(self, i, c) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if c.ndim == 0:
            c = np.full(i.shape, int(c), dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.length):
            raise IndexError("rank prefix out of range")
        if c.size and (c.min() < 0 or c.max() >= self.sigma):
            raise IndexError("symbol out of range")
        p = i.copy()
        node = np.zeros(i.shape, dtype=np.int64)
        for k, bv in enumerate(self._levels):
            a = self._starts[k][node]
            ones = bv.rank_many(a + p, 1) - self._ones_at[k][node]
            bit = (c >> (self.nbits - 1 - k)) & 1
            p = np.where(bit == 1, ones, p - ones)
            node = node * 2 + bit
        return p

    def select(self, j: int, c: int) -> int:
        self._check_symbol(c)
        j, c = int(j), int(c)
        total = int(self._counts[c])
        if not 1 <= j <= total:
            raise ValueError(f"select({j}, {c}) out of range: only {total} occurrences")
        pos = j - 1
        for k in reversed(range(self.nbits)):
            bv = self._levels[k]
            node = c >> (self.nbits - k)
            bit = (c >> (self.nbits - 1 - k)) & 1
            a = int(self._starts[k][node])
            oa = int(self._ones_at[k][node])
            if bit:
                p = bv.select(oa + pos + 1, 1)
            else:
                p = bv.select((a - oa) + pos + 1, 0)
            pos = p - a
        return pos

    def select_many(self, j, c) -> np.ndarray:
        j = np.asarray(j, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if c.ndim == 0:
            c = np.full(j.shape, int(c), dtype=np.int64)
        if c.size and (c.min() < 0 or c.max() >= self.sigma):
            raise IndexError("symbol out of range")
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        if j.min() < 1 or np.any(j > self._counts[c]):
            raise ValueError("select batch out of range")
        pos = j - 1
        for k in reversed(range(self.nbits)):
            bv = self._levels[k]
            node = c >> (self.nbits - k)
            bit = (c >> (self.nbits - 1 - k)) & 1
            a = self._starts[k][node]
            oa = self._ones_at[k][node]
            p = np.empty(pos.shape, dtype=np.int64)
            hi = bit == 1
            if hi.any():
                p[hi] = bv.select_many(oa[hi] + pos[hi] + 1, 1)
            lo = ~hi
            if lo.any():
                p[lo] = bv.select_many((a[lo] - oa[lo]) + pos[lo] + 1, 0)
            pos = p - a
        return pos

    def size_bits(self) -> int:
        total = sum(bv.size_bits() for bv in self._levels)
        total += 64 * sum(s.size for s in self._starts)
        total += 64 * sum(o.size for o in self._ones_at)
        total += 64 * self._counts.size + 3 * 64
        return total

    def __repr__(self) -> str:
        return f"WaveletTree(length={self.length}, sigma={self.sigma})"


class BitPlaneRank:
    """Rank-select for sigma <= 4 via low/high bit planes and block counts.

    block_words sets the block granularity: one block covers 512*block_words
    symbols and stores four absolute 64-bit counts, so larger blocks shrink
    the counts table at the price of scanning more plane words per query.
    """

    SIGMA = 4
    base_name = "bitplane"

    def __init__(self, symbols, block_words: int = 8):
        if not isinstance(block_words, (int, np.integer)) or block_words < 1:
            raise ValueError("block_words must be a positive integer")
        syms = _as_symbols(symbols, self.SIGMA)
        self.length = int(syms.size)
        self.block_words = int(block_words)
        self._low = pack_bits((syms & 1).astype(np.uint8))
        self._high = pack_bits(((syms >> 1) & 1).astype(np.uint8))
        self._build_counts()

    @classmethod
    def from_planes(cls, length: int, block_words: int, low, high) -> "BitPlaneRank":
        """Rebuild from the packed planes; rejects nonzero bits past length."""
        if block_words < 1:
            raise ValueError("block_words must be a positive integer")
        self = cls.__new__(cls)
        self.length = int(length)
        self.block_words = int(block_words)
        self._low = np.asarray(low, dtype=np.uint64)
        self._high = np.asarray(high, dtype=np.uint64)
        expected = self.length // 64 + 1
        if self._low.size != expected or self._high.size != expected:
            raise ValueError("plane payload size does not match length")
        if (self._low[-1] | self._high[-1]) & ~MASK_LOW[self.length & 63]:
            raise ValueError("padding bits beyond the declared length must be zero")
        self._build_counts()
        return self

    def _build_counts(self) -> None:
        wpb = 8 * self.block_words  # plane words per block
        n_real = (self.length + 63) // 64 if self.length else 0
        n_blocks = -(-self.length // (512 * self.block_words)) if self.length else 0
        self._counts = np.zeros((n_blocks + 1, self.SIGMA), dtype=np.int64)
        if not n_blocks:
            return
        low = self._low[:n_real]
        high = self._high[:n_real]
        tail = self.length & 63
        band = np.empty((self.SIGMA, n_real), dtype=np.int64)
        for c in range(self.SIGMA):
            m = _match_words(low, high, c)
            if tail:
                m = m.copy()
                m[-1] &= MASK_LOW[tail]
            band[c] = popcount(m)
        edges = np.arange(0, n_real, wpb)
        per_block = np.add.reduceat(band, edges, axis=1)
        np.cumsum(per_block, axis=1, out=per_block)
        self._counts[1:] = per_block.T

    def plane_payload(self):
        return (self.length, self.block_words, self._low, self._high)

    # -- queries -------------------------------------------------------------

    @property
    def sigma(self) -> int:
        return self.SIGMA

    def _check_symbol(self, c: int) -> None:
        if not 0 <= c < self.SIGMA:
            raise IndexError(f"symbol {c} out of range for sigma {self.SIGMA}")

    def symbol_count(self, c: int) -> int:
        self._check_symbol(c)
        return int(self._counts[-1, c])

    def access(self, p: int) -> int:
        p = int(p)
        if not 0 <= p < self.length:
            raise IndexError(f"position {p} out of range")
        w, o = p >> 6, p & 63
        lo = (int(self._low[w]) >> o) & 1
        hi = (int(self._high[w]) >> o) & 1
        return hi * 2 + lo

    def rank(self, i: int, c: int) -> int:
        self._check_symbol(c)
        i, c = int(i), int(c)
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range")
        block = i // (512 * self.block_words)
        out = int(self._counts[block, c])
        w0 = block * 8 * self.block_words
        w1 = i >> 6
        if w1 > w0:
            m = _match_words(self._low[w0:w1], self._high[w0:w1], c)
            out += int(popcount(m).sum())
        o = i & 63
        if o:
            m = _match_words(self._low[w1], self._high[w1], c) & MASK_LOW[o]
            out += int(m).bit_count()
        return out

    def rank_many(self, i, c) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if c.ndim == 0:
            c = np.full(i.shape, int(c), dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.length):
            raise IndexError("rank prefix out of range")
        if c.size and (c.min() < 0 or c.max() >= self.SIGMA):
            raise IndexError("symbol out of range")
        out = np.empty(i.shape, dtype=np.int64)
        step = max(1, (1 << 21) // (8 * self.block_words))
        for s in range(0, i.size, step):
            sl = slice(s, min(s + step, i.size))
            out[sl] = self._rank_chunk(i[sl], c[sl])
        return out

    def _rank_chunk(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        wpb = 8 * self.block_words
        block = i // (512 * self.block_words)
        out = self._counts[block, c]
        w0 = block * wpb
        w1 = i >> 6
        cols = w0[:, None] + np.arange(wpb, dtype=np.int64)[None, :]
        live = cols < w1[:, None]
        cols = np.minimum(cols, self._low.size - 1)
        m = _match_words(self._low[cols], self._high[cols], c[:, None])
        m = np.where(live, m, np.uint64(0))
        out = out + popcount(m).sum(axis=1)
        m_last = _match_words(self._low[w1], self._high[w1], c) & MASK_LOW[i & 63]
        return out + popcount(m_last)

    def select(self, j: int, c: int) -> int:
        self._check_symbol(c)
        j, c = int(j), int(c)
        total = int(self._counts[-1, c])
        if not 1 <= j <= total:
            raise ValueError(f"select({j}, {c}) out of range: only {total} occurrences")
        col = self._counts[:, c]
        block = int(np.searchsorted(col, j, side="left")) - 1
        target = j - int(col[block])
        wpb = 8 * self.block_words
        w0 = block * wpb
        n_real = (self.length + 63) // 64
        w1 = min(w0 + wpb, n_real)
        m = _match_words(self._low[w0:w1], self._high[w0:w1], c)
        tail = self.length & 63
        if w1 == n_real and tail:
            m = m.copy()
            m[-1] &= MASK_LOW[tail]
        pops = popcount(m)
        cum = np.cumsum(pops)
        idx = int(np.searchsorted(cum, target, side="left"))
        r = target - 1 - (int(cum[idx]) - int(pops[idx]))
        return (w0 + idx) * 64 + select_in_word(int(m[idx]), r)

    def select_many(self, j, c) -> np.ndarray:
        j = np.asarray(j, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if c.ndim == 0:
            c = np.full(j.shape, int(c), dtype=np.int64)
        if c.size and (c.min() < 0 or c.max() >= self.SIGMA):
            raise IndexError("symbol out of range")
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        totals = self._counts[-1, c]
        if j.min() < 1 or np.any(j > totals):
            raise ValueError("select batch out of range")
        out = np.empty(j.shape, dtype=np.int64)
        step = max(1, (1 << 21) // (8 * self.block_words))
        for s in range(0, j.size, step):
            sl = slice(s, min(s + step, j.size))
            out[sl] = self._select_chunk(j[sl], c[sl])
        return out

    def _select_chunk(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        wpb = 8 * self.block_words
        block = np.empty(j.shape, dtype=np.int64)
        for cc in range(self.SIGMA):
            rows = c == cc
            if rows.any():
                block[rows] = np.searchsorted(self._counts[:, cc], j[rows], side="left") - 1
        target = j - self._counts[block, c]
        w0 = block * wpb
        n_real = (self.length + 63) // 64
        cols = w0[:, None] + np.arange(wpb, dtype=np.int64)[None, :]
        live = cols < n_real
        cols_c = np.minimum(cols, self._low.size - 1)
        m = _match_words(self._low[cols_c], self._high[cols_c], c[:, None])
        m = np.where(live, m, np.uint64(0))
        tail = self.length & 63
        if tail:
            at_tail = cols == n_real - 1
            m = np.where(at_tail, m & MASK_LOW[tail], m)
        pops = popcount(m)
        cum = np.cumsum(pops, axis=1)
        idx = (cum < target[:, None]).sum(axis=1)
        rows = np.arange(j.size)
        r = target - 1 - (cum[rows, idx] - pops[rows, idx])
        return (w0 + idx) * 64 + select_in_words(m[rows, idx], r)

    def size_bits(self) -> int:
        total = 64 * (self._low.size + self._high.size)
        total += 64 * self._counts.size
        total += 3 * 64  # length, block_words, sigma scalars
        return total

    def __repr__(self) -> str:
        return f"BitPlaneRank(length={self.length}, block_words={self.block_words})"


def _match_words(low, high, c):
    """Words whose symbol equals c: NOT(low XOR fill(c0)) AND NOT(high XOR fill(c1))."""
    c = np.asarray(c)
    lo_fill = np.where((c & 1) == 1, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0))
    hi_fill = np.where((c >> 1) == 1, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0))
    return ~(low ^ lo_fill) & ~(high ^ hi_fill)
