"""Rank and select over strings of small-alphabet symbols.

Two interchangeable backends:

* WaveletTree is a wavelet matrix: it works for any alphabet up to MAX_SIGMA
  and answers queries in O(log sigma) bitvector operations, one per level.
* BitPlaneRank is a flat-layout alternative for sigma <= 4. Symbols are
  split into a low and a high bit plane; a block of 512 * block_words symbols
  keeps one absolute count per symbol of the alphabet, and each 512-symbol
  sub-block one such count relative to its block. Each plane is kept as rows
  of 8 words, one row per sub-block. A query reads the two counts before its
  sub-block and the sub-block's row of each plane, and popcounts the bits
  that match its symbol c = 2h + l: `NOT((high XOR h) OR (low XOR l))`, the
  comparison that wide-register scans batch. A batch masks a rank's row
  with one row of a table of 512 prefix masks and adds the row's eight
  popcounts in SIMD-within-a-register (SWAR) lanes of one uint64.

Both use the same conventions as the bitvectors: rank(i, c) counts symbol c
in [0, i), select(j, c) is 0-indexed with 1-indexed j. Both check arguments
in the public methods of _StringQueries and answer in unchecked kernels. As
in the bitvectors, the scalar kernels read the stored arrays as Python ints
through memoryviews made once at construction, and search them with the C
bisect module.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ._bits import (FULL_WORD, index_arg, integers, narrow_uint, pack_bits, packed_payload,
                    rank_arg, rank_args, select_arg, select_args, select_in_word,
                    select_in_words, unpack_bits)
from .bitvector import PlainBitvector

_SUB_WORDS = 8  # plane words per bitplane sub-block, 512 symbols
# _PREFIX[k] is a sub-block row with its k lowest bits set, 32 KiB.
_PREFIX = np.packbits(np.tri(512, 512, -1, dtype=bool), axis=1,
                      bitorder="little").view("<u8").astype(np.uint64, copy=False)
# 16-bit lanes: a 1 in each, the top bit of each. Four popcount sums of at
# most 512 fill one uint64 with bit 15 of every lane free.
_ONES16 = 0x0001000100010001
_MSBS16 = _ONES16 << 15
_BYTES16 = 0x00FF00FF00FF00FF  # the low byte of every 16-bit lane


def _as_symbols(symbols, sigma: int) -> np.ndarray:
    arr = integers(symbols, "symbols")  # checked before the cast narrows it
    if arr.ndim != 1:
        raise ValueError("symbols must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= sigma):
        raise ValueError(f"symbols must lie in [0, {sigma})")
    # the narrowest unsigned dtype, in which a level partition moves the fewest bytes
    return arr.astype(narrow_uint(sigma - 1), copy=False)


class _StringQueries:
    """Checked rank, select and counts over the kernels of a string; a
    subclass sets length and sigma and defines symbol_counts()."""

    def symbol_count(self, c) -> int:
        return int(self.symbol_counts()[index_arg(c, 0, self.sigma - 1, "symbol")])

    def access(self, p) -> int:
        return self._access(index_arg(p, 0, self.length - 1, "position"))

    def rank(self, i, c) -> int:
        return self._rank(*rank_arg(i, c, self.length, self.sigma))

    def rank_many(self, i, c) -> np.ndarray:
        i, c, shape = rank_args(i, c, self.length, self.sigma)
        return self._rank_many(i, c).reshape(shape)

    def select(self, j, c) -> int:
        return self._select(*select_arg(j, c, self.symbol_counts()))

    def select_many(self, j, c) -> np.ndarray:
        j, c, shape = select_args(j, c, self.symbol_counts())
        return self._select_many(j, c).reshape(shape)


class WaveletTree(_StringQueries):
    """Wavelet matrix over sigma symbols backed by PlainBitvector.

    Level k stores bit (nbits-1-k) of every symbol, in the order that a
    stable partition on the bits above leaves them, zeros first (Claude,
    Navarro & Ordonez, The wavelet matrix, Information Systems 2015). A
    position p of level k moves to p - rank1(p) on the next level when its
    bit is 0 and to zeros_k + rank1(p) when it is 1, so a query costs one
    bitvector rank or select per level and needs only the zero count of
    each level and where each symbol's run begins after the last level.

    The build makes that partition level by level without sorting: the
    symbols whose level bit is 0, then those whose bit is 1, each side in
    order by one np.compress into a buffer of the symbols' length.
    """

    base_name = "wavelet"
    MAX_SIGMA = 1 << 32  # the largest alphabet it takes; its symbols fit uint32

    def __init__(self, symbols, sigma: int):
        sigma = index_arg(sigma, 1, self.MAX_SIGMA, "sigma", ValueError)
        keys = _as_symbols(symbols, sigma)
        nbits = (sigma - 1).bit_length()
        level_words = []
        for k in range(nbits):
            bit = (keys & (1 << (nbits - 1 - k))) != 0
            level_words.append(pack_bits(bit.view(np.uint8)))
            if k + 1 < nbits:  # the stable partition by bit, zeros first
                part = np.empty_like(keys)
                zeros = keys.size - np.count_nonzero(bit)
                np.compress(~bit, keys, out=part[:zeros])
                np.compress(bit, keys, out=part[zeros:])
                keys = part
        self._set_levels(sigma, keys.size, level_words)

    @classmethod
    def from_level_payload(cls, sigma: int, length: int, level_words) -> "WaveletTree":
        """Rebuild from level_payload(); refuses levels that hold a symbol >= sigma."""
        self = cls.__new__(cls)
        self._set_levels(sigma, length, level_words)
        return self

    def _set_levels(self, sigma, length, level_words) -> None:
        self.sigma = index_arg(sigma, 1, self.MAX_SIGMA, "sigma", ValueError)
        self.length, _ = packed_payload(length)  # checked even when there are no levels
        self.nbits = (self.sigma - 1).bit_length()
        if len(level_words) != self.nbits:
            raise ValueError(f"expected {self.nbits} levels, got {len(level_words)}")
        self._levels = [PlainBitvector.from_words(self.length, w) for w in level_words]
        self._zeros = [bv.zeros_count for bv in self._levels]
        # The run [start, end) of every code prefix, split level by level: two
        # ranks per prefix, O(sigma) in all. Only the codes below sigma are
        # kept, so a payload that holds a bigger symbol has counts that sum
        # short of its length.
        runs = np.array([[0, self.length]], dtype=np.int64)
        for z, bv in zip(self._zeros, self._levels):
            ones = bv._rank_many(runs.ravel()).reshape(runs.shape)
            runs = np.stack((runs - ones, z + ones), axis=1).reshape(-1, 2)
        self._start = runs[: self.sigma, 0].copy()
        self._counts = runs[: self.sigma, 1] - self._start
        if self._counts.sum() != self.length:
            raise ValueError(f"levels hold a symbol past the alphabet of size {self.sigma}")
        self._start_mv = memoryview(self._start)

    def level_payload(self):
        """sigma, length and the level words, as from_level_payload takes them."""
        return self.sigma, self.length, [bv._words for bv in self._levels]

    def _decode(self) -> np.ndarray:
        """The whole string, in its narrow dtype. The build partitions each
        level by its bits, zeros first, into the next level's order; the
        decode undoes it from the last level up. The first zeros_k codes of
        level k + 1 go back to the zeros of level k, in order, and the rest
        to its ones; then each code takes its bit of level k."""
        codes = np.zeros(self.length, dtype=narrow_uint(self.sigma - 1))
        for k in reversed(range(self.nbits)):
            bits = unpack_bits(self._levels[k]._words, self.length)
            if k + 1 < self.nbits:
                below, codes = codes, np.empty_like(codes)
                codes[np.flatnonzero(bits == 0)] = below[:self._zeros[k]]
                codes[np.flatnonzero(bits)] = below[self._zeros[k]:]
            codes |= bits.astype(codes.dtype, copy=False) << (self.nbits - 1 - k)
        return codes

    # -- queries -------------------------------------------------------------

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of each symbol, indexed by symbol."""
        return self._counts

    def _access(self, p: int) -> int:
        sym = 0
        for k, bv in enumerate(self._levels):
            bit = bv._bit(p)
            p = self._zeros[k] + bv._rank(p) if bit else bv._rank(p, 0)
            sym = sym * 2 + bit
        return sym

    def _rank(self, i: int, c: int) -> int:
        p = i
        for k, bv in enumerate(self._levels):
            if (c >> (self.nbits - 1 - k)) & 1:
                p = self._zeros[k] + bv._rank(p)
            else:
                p = bv._rank(p, 0)
        return p - self._start_mv[c]

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        p = i
        for k, bv in enumerate(self._levels):
            ones = bv._rank_many(p)
            bit = (c >> (self.nbits - 1 - k)) & 1
            p = np.where(bit == 1, self._zeros[k] + ones, p - ones)
        return p - self._start[c]

    def _select(self, j: int, c: int) -> int:
        p = self._start_mv[c] + j - 1
        for k in reversed(range(self.nbits)):
            bv = self._levels[k]
            if (c >> (self.nbits - 1 - k)) & 1:
                p = bv._select(p - self._zeros[k] + 1, 1)
            else:
                p = bv._select(p + 1, 0)
        return p

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        # one select per level, each query asking for the bit it has there
        p = self._start[c] + (j - 1)
        for k in reversed(range(self.nbits)):
            bit = (c >> (self.nbits - 1 - k)) & 1
            p = self._levels[k]._select_many(p + 1 - bit * self._zeros[k], bit)
        return p

    def size_bits(self) -> int:
        total = sum(bv.size_bits() for bv in self._levels)
        total += 64 * (len(self._zeros) + self._start.size + self._counts.size)
        return total + 3 * 64  # length, sigma and nbits scalars

    def __repr__(self) -> str:
        return f"WaveletTree(length={self.length}, sigma={self.sigma})"


class BitPlaneRank(_StringQueries):
    """Rank-select for sigma <= 4 via low/high bit planes and two count levels.

    Every 512-symbol sub-block stores the count of each symbol between its
    block's start and its own, in the narrowest unsigned dtype that holds
    512 * (block_words - 1); every block of 512 * block_words symbols stores
    the absolute counts (Vigna's rank9, over the sigma symbols). So block_words
    sets the space of the block table only: larger blocks shrink it, and no
    query reads more than the 8 plane words of one sub-block, matched as
    NOT((high XOR h) OR (low XOR l)) for c = 2h + l. Each plane is stored as
    rows of 8 words, one per sub-block, zero-padded to whole rows (at most 7
    words a plane); _low and _high are views of the length // 64 + 1 words
    of the payload. The block counts are symbol-major, and row c is offset
    by c * (length + 1): the rows form one ascending array, which a batched
    select searches once for every symbol. The scalar kernels read the
    planes' bytes and each symbol's row of both count levels through
    memoryviews.
    """

    MAX_SIGMA = 4
    base_name = "bitplane"
    MAX_BLOCK_WORDS = (2**63 - 1) // 512  # a block of 512 * block_words symbols fits in int64
    _chunk = (1 << 16) // _SUB_WORDS  # queries per batch chunk

    def __init__(self, symbols, sigma: int, block_words: int = 8):
        syms = _as_symbols(symbols, self.MAX_SIGMA)
        self.length = int(syms.size)
        self._low = pack_bits(syms & 1)
        self._high = pack_bits(syms >> 1)
        self._build_counts(sigma, block_words)

    @classmethod
    def from_planes(cls, sigma: int, length: int, block_words: int, low, high) -> "BitPlaneRank":
        """Rebuild from plane_payload(); rejects bits past length and symbols >= sigma."""
        self = cls.__new__(cls)
        self.length, (self._low, self._high) = packed_payload(length, low, high)
        self._build_counts(sigma, block_words)
        return self

    def _build_counts(self, sigma, block_words) -> None:
        self.sigma = index_arg(sigma, 1, self.MAX_SIGMA, "sigma", ValueError)
        self.block_words = bw = index_arg(block_words, 1, self.MAX_BLOCK_WORDS, "block_words",
                                          ValueError)
        # The planes as rows, one per sub-block; the last one holds position length.
        n_sub = self.length // (64 * _SUB_WORDS) + 1
        self._rows = np.zeros((2, n_sub, _SUB_WORDS), dtype=np.uint64)
        planes = self._rows.reshape(2, -1)[:, :self._low.size]
        planes[0], planes[1] = self._low, self._high
        self._low, self._high = planes  # contiguous, so the scalar kernels read them in place
        self._low_bytes, self._high_bytes = (memoryview(p).cast("B")
                                             for p in (self._low, self._high))
        # The c's in each sub-block, then before each one, for c < sigma; a
        # symbol >= sigma leaves them summing short of length. The zero
        # padding, 512 * n_sub - length bits of the last row, matches symbol 0.
        low, high = self._rows
        pops = np.array([_row_popcounts(_match_words(low.copy(), high.copy(), c))
                         for c in range(self.sigma)])
        pops[0, -1] -= 512 * n_sub - self.length
        before = np.zeros((self.sigma, n_sub + 1), dtype=np.int64)
        np.cumsum(pops, axis=1, out=before[:, 1:])
        self._totals = before[:, -1].copy()
        if self._totals.sum() != self.length:
            raise ValueError(f"planes hold a symbol past the alphabet of size {self.sigma}")
        n_blocks = -(-self.length // (512 * bw))
        blocks = before[:, np.minimum(np.arange(n_blocks + 1) * bw, n_sub)]
        # Relative counts stop at 512 * (block_words - 1) and at length; int64,
        # not uint64, past 32 bits: int64 sums with uint64 would turn float64.
        top = min(512 * (bw - 1), self.length)
        self._sub = (before[:, :n_sub] - blocks[:, np.arange(n_sub) // bw]).astype(
            narrow_uint(top) if top < 1 << 32 else np.int64)
        # The offset rows top out at sigma * (length + 1) - 1: uint32 while that fits.
        offset = np.arange(self.sigma)[:, None] * (self.length + 1)
        self._counts = (blocks + offset).astype(
            np.uint32 if self.sigma * (self.length + 1) <= 1 << 32 else np.int64)
        self._rounds = (min(bw, n_sub) - 1).bit_length()  # bisection rounds inside one block
        # A 2-D memoryview cannot give a row to bisect: one per symbol row.
        self._counts_mv = [memoryview(row) for row in self._counts]
        self._sub_mv = [memoryview(row) for row in self._sub]

    def plane_payload(self):
        """sigma, length, block_words and the two planes, as from_planes takes them."""
        return self.sigma, self.length, self.block_words, self._low, self._high

    def _decode(self) -> np.ndarray:
        """The whole string, in its narrow dtype: the two planes unpacked."""
        return unpack_bits(self._high, self.length) << 1 | unpack_bits(self._low, self.length)

    # -- queries -------------------------------------------------------------

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of each symbol, indexed by symbol."""
        return self._totals

    def _access(self, p: int) -> int:
        b, o = p >> 3, p & 7
        return ((self._high_bytes[b] >> o) & 1) * 2 + ((self._low_bytes[b] >> o) & 1)

    def _rank(self, i: int, c: int) -> int:
        s = i >> 9
        m = _match_int(self._low_bytes, self._high_bytes, s, c) & ((1 << (i & 511)) - 1)
        return (self._counts_mv[c][s // self.block_words] - c * (self.length + 1)
                + self._sub_mv[c][s] + m.bit_count())

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._by_chunks(self._rank_chunk, i, c)

    def _rank_chunk(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        s = i >> 9
        low, high = self._rows
        m = _match_words(low.take(s, axis=0), high.take(s, axis=0), c)
        m &= _PREFIX.take(i & 511, axis=0)  # the zero padding matches symbol 0, and lies past i
        counts, sub = self._counts, self._sub  # row c of each, by a flat take
        return (counts.ravel().take(c * counts.shape[1] + s // self.block_words)
                - c * (self.length + 1) + sub.ravel().take(c * sub.shape[1] + s)
                + _row_popcounts(m))

    # Both selects search row c of the block counts for the last block with
    # fewer than j c's before it, then that block's sub-block counts for the
    # last sub-block with fewer than the rest; the first holds 0, so one is
    # found. The scalar one bisects the rows' memoryviews, the batched one
    # searches the flat block counts once and bisects the sub-block counts
    # in rounds. Padding bits match symbol 0, but they follow every real
    # position, and the target lies in this sub-block: the scan needs no mask.

    def _select(self, j: int, c: int) -> int:
        row, sub = self._counts_mv[c], self._sub_mv[c]
        key = j + c * (self.length + 1)
        block = bisect_left(row, key) - 1
        target = key - row[block]
        lo, n_sub = block * self.block_words, self._sub.shape[1]
        hi = lo + self.block_words
        s = bisect_left(sub, target, lo, hi if hi < n_sub else n_sub) - 1
        target -= sub[s]
        m = _match_int(self._low_bytes, self._high_bytes, s, c)
        w = s * _SUB_WORDS
        while True:
            word = m & FULL_WORD
            k = word.bit_count()
            if target <= k:
                return w * 64 + select_in_word(word, target - 1)
            target -= k
            m >>= 64
            w += 1

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._by_chunks(self._select_chunk, j, c)

    def _select_chunk(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        counts = self._counts.ravel()
        key = j + c * (self.length + 1)
        pos = counts.searchsorted(key.astype(counts.dtype)) - 1
        target = key - counts[pos]
        # A bisection over the flat sub-block counts, inside each query's block.
        sub, n_sub = self._sub.ravel(), self._sub.shape[1]
        lo = c * n_sub + (pos - c * self._counts.shape[1]) * self.block_words
        hi = np.minimum(lo + self.block_words, (c + 1) * n_sub)
        for _ in range(self._rounds):
            mid = (lo + hi) >> 1
            below = sub[mid] < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        target -= sub[lo]
        s = lo - c * n_sub
        low, high = self._rows
        m = _match_words(low.take(s, axis=0), high.take(s, axis=0), c)
        # The popcounts before each word of the row, in 16-bit lanes, four
        # words a uint64; word k holds the target when k + 1 of them are
        # below it. Bit 15 of a lane of (target - 1 | 0x8000) - before stays
        # set when before <= target - 1, and no lane borrows from the next.
        pops = np.bitwise_count(m).astype(np.uint16).view(np.uint64)
        sums = pops * _ONES16
        before = sums << 16
        before[:, 1] += (sums[:, 0] >> 48) * _ONES16
        below = (((target - 1).astype(np.uint64) * _ONES16)[:, None] | _MSBS16) - before
        below &= _MSBS16
        k = np.bitwise_count(below[:, 0] >> 1 | below[:, 1]).astype(np.int64) - 1
        at = np.arange(0, m.size, _SUB_WORDS) + k  # the word k of each row
        r = target - 1 - before.view(np.uint16).take(at)
        return (s * _SUB_WORDS + k) * 64 + select_in_words(m.take(at), r)

    def _by_chunks(self, kernel, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """kernel over _chunk queries at a time, which bounds its (Q, 8) matrices."""
        out = np.empty(a.shape, dtype=np.int64)
        for s in range(0, a.size, self._chunk):
            sl = slice(s, s + self._chunk)
            out[sl] = kernel(a[sl], c[sl])
        return out

    def size_bits(self) -> int:
        total = 64 * self._rows.size
        total += 8 * (self._counts.nbytes + self._sub.nbytes + self._totals.nbytes)
        total += 3 * 64  # length, block_words, sigma scalars
        return total

    def __repr__(self) -> str:
        return (f"BitPlaneRank(length={self.length}, sigma={self.sigma}, "
                f"block_words={self.block_words})")


# A row of plane words of all 0s, of all 1s.
_FILL = np.array([[0] * _SUB_WORDS, [FULL_WORD] * _SUB_WORDS], dtype=np.uint64)


def _match_words(low, high, c):
    """Rows of plane words whose symbol equals c: NOT((low XOR fill(c0)) OR
    (high XOR fill(c1))), for an int c or one c per row. It works in place on
    rows that the caller gathered or copied: the result is low, and high is
    overwritten."""
    low ^= _FILL.take(c & 1, axis=0)
    high ^= _FILL.take(c >> 1, axis=0)
    low |= high
    return np.invert(low, out=low)


def _row_popcounts(m):
    """The set bits of each row of a (Q, 8) uint64 matrix, as int64: its byte
    popcounts viewed as one uint64 a row, added in pairs into 16-bit lanes,
    then the four lanes summed into the top one by one multiply."""
    b = np.bitwise_count(m).view(np.uint64)[..., 0]
    b = (b & _BYTES16) + (b >> 8 & _BYTES16)
    return (b * _ONES16 >> 48).view(np.int64)


def _match_int(low: memoryview, high: memoryview, s: int, c: int) -> int:
    """_match_words over the plane bytes of sub-block s, read in place as one
    Python int whose bit k is position 512 * s + k. For c = 0 every bit past
    the planes is set as well: a caller masks them off or stops before them."""
    lo = int.from_bytes(low[s * 64:s * 64 + 64], "little")
    hi = int.from_bytes(high[s * 64:s * 64 + 64], "little")
    return (lo if c & 1 else ~lo) & (hi if c & 2 else ~hi)
