"""Plain and sparse bitvectors with rank and select.

Conventions used across the package: rank(i, b) counts occurrences of bit b
in the half-open prefix [0, i), select(j, b) returns the 0-indexed position
of the j-th occurrence (j >= 1). Out-of-range i raises IndexError, while a
select argument beyond the number of occurrences raises ValueError.
Both classes check arguments in the public methods of _BitQueries and
answer in the unchecked kernels _rank, _select, _rank_many and _select_many.
The scalar kernels read the stored arrays as Python ints through
memoryviews, made once where a vector is built or loaded, and search them
with the C bisect module: a numpy call on a numpy scalar costs about 1 us,
a memoryview subscript a small fraction of that. PlainBitvector's batched
select also takes one bit per query, so that a wavelet level answers the
selects of both bits in one call.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ._bits import (FULL_WORD, INT64_MAX, MASK_LOW, index_arg, index_args, integers,
                    narrow_uint, pack_bits, packed_payload, popcount, select_in_word,
                    select_in_words, unpack_bits)

_SUPER_BITS = 512
_WORDS_PER_SUPER = 8
# The ones before word t of a superblock are (block9 >> _SHIFT9[t]) & 511. The
# counts of words 1 to 7 fill bits 0 to 62 of block9, so word 0 reads bit 63,
# which is always 0 (Vigna's rank9); block9 is therefore a nonnegative int64.
# _SHIFT9 serves the scalar kernels and _SHIFT9_WORDS, the same table as an
# array, the batched ones.
_SHIFT9 = tuple(9 * ((t - 1) % _WORDS_PER_SUPER) for t in range(_WORDS_PER_SUPER))
_SHIFT9_WORDS = np.array(_SHIFT9, dtype=np.int64)
# Seven 9-bit fields: a 1 in each, the top bit of each, and 64 * (t + 1) in
# field t, the bits up to the end of word t + 1. ZERO9 - block9 holds the
# zeros before each word as block9 holds the ones, with bit 63 still 0.
_ONES9 = sum(1 << 9 * t for t in range(_WORDS_PER_SUPER - 1))
_MSBS9 = _ONES9 << 8
_ZERO9 = sum(64 * (t + 1) << 9 * t for t in range(_WORDS_PER_SUPER - 1))


def _le9(x, y):
    """The top bit of every 9-bit field of x that is <= the same field of y,
    over Python ints or int64 arrays whose bit 63 is 0 (Vigna's ULEQ_STEP_9)."""
    return ((((y | _MSBS9) - (x & ~_MSBS9)) | (x ^ y)) ^ (x & ~y)) & _MSBS9


def as_bit_array(bits) -> np.ndarray:
    """Coerce a '0101' string or any 0/1 sequence of integers or booleans to
    a uint8 array; ValueError for anything else, checked before the cast."""
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits)
        if arr.dtype != bool:
            arr = integers(arr, "bits")
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("bit input must contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


class _BitQueries:
    """Checked rank, select and bit over the kernels of a bitvector, and its
    counts over its length and ones_count."""

    def __len__(self) -> int:
        return self.length

    @property
    def zeros_count(self) -> int:
        return self.length - self.ones_count

    def count(self, b) -> int:
        return self.ones_count if index_arg(b, 0, 1, "bit value", ValueError) else self.zeros_count

    def rank(self, i, b=1) -> int:
        b = index_arg(b, 0, 1, "bit value", ValueError)
        return self._rank(index_arg(i, 0, self.length, "rank prefix"), b)

    def rank_many(self, i, b=1) -> np.ndarray:
        b = index_arg(b, 0, 1, "bit value", ValueError)
        i = index_args(i, 0, self.length, "rank prefix")
        return self._rank_many(i.ravel(), b).reshape(i.shape)

    def select(self, j, b=1) -> int:
        b = index_arg(b, 0, 1, "bit value", ValueError)
        return self._select(index_arg(j, 1, self.count(b), "select index", ValueError), b)

    def select_many(self, j, b=1) -> np.ndarray:
        b = index_arg(b, 0, 1, "bit value", ValueError)
        j = index_args(j, 1, self.count(b), "select index", ValueError)
        return self._select_many(j.ravel(), b).reshape(j.shape)

    def bit(self, p) -> int:
        return self._bit(index_arg(p, 0, self.length - 1, "bit position"))


class PlainBitvector(_BitQueries):
    """Dense bitvector: the packed words plus two-level rank counts.

    Every 512-bit superblock stores the zeros and the ones before it, as two
    32-bit counts, plus seven relative word counts packed 9 bits each into a
    single extra word, so the vector takes about 1.25 bits per bit and rank
    is O(1). The counts are one ascending array: the ones before each
    superblock, then the zeros before each one plus ones_count, so a zero
    select searches with its j offset by ones_count. Select of either bit is
    one binary search of that array, one search for a batch that mixes the
    bits, then Vigna's broadword select9, which finds the word by comparing
    all seven word counts at once, then a select inside that word, broadword
    in the batched kernel; it stores nothing of its own. A vector of 2**32
    bits or more keeps its counts as 64-bit integers, 64 more bits per
    superblock.
    """

    def __init__(self, bits):
        arr = as_bit_array(bits)
        self._build_counts(arr.size, pack_bits(arr))

    @classmethod
    def from_words(cls, length: int, words: np.ndarray) -> "PlainBitvector":
        """Rebuild from the packed payload, whose words are kept as given;
        rejects nonzero padding bits."""
        self = cls.__new__(cls)
        length, (words,) = packed_payload(length, words)
        self._build_counts(length, words)
        return self

    def _build_counts(self, length: int, words: np.ndarray) -> None:
        self.length = length
        self._words = words
        wp = popcount(words)
        cum = np.zeros(wp.size + 1, dtype=np.int64)
        np.cumsum(wp, out=cum[1:])
        self._total_ones = int(cum[-1])
        n_super = self.length // _SUPER_BITS + 1
        need = n_super * _WORDS_PER_SUPER
        if cum.size < need:
            cum = np.concatenate([cum, np.full(need - cum.size, cum[-1], dtype=np.int64)])
        mat = cum[:need].reshape(n_super, _WORDS_PER_SUPER)
        ones = mat[:, 0]
        # Every superblock starts at or before length, so both of its counts
        # are exact and the zeros half tops out at length. int64, not uint64,
        # for long vectors: int64 queries minus uint64 counts would turn to
        # float64.
        counts = np.empty(2 * n_super, dtype=np.uint32 if length < 1 << 32 else np.int64)
        counts[:n_super] = ones
        counts[n_super:] = np.arange(n_super) * _SUPER_BITS - ones + self._total_ones
        self._block9 = np.bitwise_or.reduce((mat[:, 1:] - mat[:, :1]) << _SHIFT9_WORDS[1:],
                                            axis=1)
        self._use_counts(counts)
        # the same arrays as the scalar kernels read them
        self._words_mv = memoryview(words)
        self._block9_mv = memoryview(self._block9)

    def _use_counts(self, counts: np.ndarray) -> None:
        """Keep counts with its two halves, indexed by bit, and their
        memoryviews: the ones before each superblock, then the zeros before
        each one plus ones_count."""
        n_super = counts.size // 2
        self._counts = counts
        self._halves = (counts[n_super:], counts[:n_super])
        self._halves_mv = tuple(map(memoryview, self._halves))

    # -- basic accessors ---------------------------------------------------

    @property
    def ones_count(self) -> int:
        return self._total_ones

    def _bit(self, p: int) -> int:
        return (self._words_mv[p >> 6] >> (p & 63)) & 1

    def bits(self) -> np.ndarray:
        return unpack_bits(self._words, self.length)

    # -- rank --------------------------------------------------------------

    def _rank(self, i: int, b: int = 1) -> int:
        w = i >> 6
        sb = i >> 9
        rel = (self._block9_mv[sb] >> _SHIFT9[w & 7]) & 511
        part = (self._words_mv[w] & ((1 << (i & 63)) - 1)).bit_count()
        r1 = self._halves_mv[1][sb] + rel + part
        return r1 if b else i - r1

    def _rank_many(self, i: np.ndarray, b: int = 1) -> np.ndarray:
        w = i >> 6
        sb = i >> 9
        rel = (self._block9[sb] >> _SHIFT9_WORDS[w & 7]) & 511
        part = popcount(self._words[w] & MASK_LOW[i & 63])
        r1 = self._halves[1][sb] + rel + part
        return r1 if b else i - r1

    # -- select ------------------------------------------------------------

    # Both kernels search the counts for the last superblock with fewer than
    # j b-bits before it, a zero's key offset by ones_count into the zeros
    # half: the scalar one with bisect, the batched one with searchsorted and
    # a key in the dtype of the counts, since any other key makes numpy cast
    # every count on each call. Inside the superblock, the word is the number
    # of 9-bit word counts of bit b at or below the rank r left to find
    # (Vigna's select9): one broadword comparison of all seven against
    # r * ONES9, then a popcount.

    def _select(self, j: int, b: int = 1) -> int:
        counts = self._halves_mv[b]
        key = j if b else j + self._total_ones
        sb = bisect_left(counts, key) - 1
        r = key - 1 - counts[sb]
        x = self._block9_mv[sb] if b else _ZERO9 - self._block9_mv[sb]
        t = _le9(x, r * _ONES9).bit_count()
        w_idx = sb * _WORDS_PER_SUPER + t
        w = self._words_mv[w_idx]
        return w_idx * 64 + select_in_word(w if b else ~w & FULL_WORD,
                                           r - ((x >> _SHIFT9[t]) & 511))

    def _select_many(self, j: np.ndarray, b=1) -> np.ndarray:
        """b is one bit, whose half of the counts is searched, or an int64
        array of bits, one per query, and then one search of the whole
        ascending array answers both bits: a zero's superblock is its index
        less the ones half, and its word counts and words are flipped."""
        one_bit = type(b) is int  # a check that makes no C call
        if one_bit:
            counts = self._halves[b]
            key = j if b else j + self._total_ones
            sb = counts.searchsorted(key.astype(counts.dtype)) - 1
            r = key - 1 - counts[sb]
            x = self._block9[sb] if b else _ZERO9 - self._block9[sb]
        else:
            zero = b == 0
            key = j + zero * self._total_ones
            sb = self._counts.searchsorted(key.astype(self._counts.dtype)) - 1
            r = key - 1 - self._counts[sb]
            sb -= zero * self._block9.size
            x = self._block9[sb]
            x = np.where(zero, _ZERO9 - x, x)
        t = np.bitwise_count(_le9(x, r * _ONES9))
        w_idx = sb * _WORDS_PER_SUPER + t
        words = self._words[w_idx]
        if one_bit:
            words = words if b else ~words
        else:
            words = np.where(zero, ~words, words)
        return w_idx * 64 + select_in_words(words, r - ((x >> _SHIFT9_WORDS[t]) & 511))

    # -- accounting ---------------------------------------------------------

    def size_bits(self) -> int:
        nbytes = self._words.nbytes + self._counts.nbytes + self._block9.nbytes
        return 8 * nbytes + 2 * 64  # length and ones-count scalars

    def __repr__(self) -> str:
        return f"PlainBitvector(length={self.length}, ones={self._total_ones})"


class SparseBitvector(_BitQueries):
    """Position-list bitvector for vectors with few ones.

    Stores the sorted positions of the ones in the narrowest unsigned dtype
    that can hold the vector length. rank is a binary search of the
    positions, select1 a lookup, and select0 needs no stored zero positions:
    the zeros before the k-th one are d(k) = ones[k] - k, which never falls
    as k grows, so select0(j) is j - 1 + t for t = #{k : d(k) < j}, the ones
    before the j-th zero.

    The scalar select0 starts from the density guess g = (j - 1) * m //
    (length - m + 1), close to t when the ones are spread evenly, and makes
    one C bisect for f = rank1(j + g). That bounds t on one side: t <= f
    when f <= g, since d(f) >= j + g - f >= j, and t >= f otherwise, since
    d(f - 1) < j + g - f + 1 <= j. f = g does not settle t: d(k) = j can hold
    for more than one k. From f it gallops away in the open direction, then
    bisects the bracket, in at most 2 * ceil(log2(m + 1)) more probes of the
    positions.
    """

    def __init__(self, length: int, ones):
        length = index_arg(length, 0, INT64_MAX, "length", ValueError)
        ones = index_args(ones, 0, length - 1, "one positions", ValueError)
        if ones.ndim != 1:
            raise ValueError("ones must be one-dimensional")
        if np.any(np.diff(ones) <= 0):
            raise ValueError("one positions must be strictly increasing")
        self.length = length
        self._ones = ones.astype(narrow_uint(length))
        self._ones_mv = memoryview(self._ones)  # as the scalar kernels read it

    @classmethod
    def from_bits(cls, bits) -> "SparseBitvector":
        arr = as_bit_array(bits)
        return cls(arr.size, np.flatnonzero(arr))

    @property
    def ones_count(self) -> int:
        return self._ones.size

    def _bit(self, p: int) -> int:
        k = bisect_left(self._ones_mv, p)
        return 1 if k < self._ones.size and self._ones_mv[k] == p else 0

    def positions(self) -> np.ndarray:
        return self._ones.astype(np.int64)

    def _rank(self, i: int, b: int = 1) -> int:
        r1 = bisect_left(self._ones_mv, i)
        return r1 if b else i - r1

    def _rank_many(self, i: np.ndarray, b: int = 1) -> np.ndarray:
        r1 = self._ones.searchsorted(i.astype(self._ones.dtype)).astype(np.int64)
        return r1 if b else i - r1

    def _select(self, j: int, b: int = 1) -> int:
        ones = self._ones_mv
        if b:
            return ones[j - 1]
        m = self._ones.size
        g = (j - 1) * m // (self.length - m + 1)
        f = bisect_left(ones, j + g)
        # every k < lo has d(k) < j, every k >= hi has d(k) >= j
        if f > g:
            lo, hi, k, step = f, m, f, 1
            while k < hi:
                if ones[k] - k >= j:
                    hi = k
                    break
                lo, k, step = k + 1, k + step, 2 * step
        else:
            lo, hi, k, step = 0, f, f - 1, 1
            while k >= lo:
                if ones[k] - k < j:
                    lo = k + 1
                    break
                hi, k, step = k, k - step, 2 * step
        while lo < hi:
            mid = (lo + hi) >> 1
            if ones[mid] - mid < j:
                lo = mid + 1
            else:
                hi = mid
        return j - 1 + lo

    def _select_many(self, j: np.ndarray, b: int = 1) -> np.ndarray:
        if b:
            return self._ones[j - 1].astype(np.int64)
        # the zeros before each one, in the stored dtype: ones[k] >= k, so it
        # cannot wrap, and every checked j fits it as a search key
        diffs = self._ones - np.arange(self._ones.size, dtype=self._ones.dtype)
        return j - 1 + diffs.searchsorted(j.astype(diffs.dtype))

    def size_bits(self) -> int:
        return 8 * self._ones.nbytes + 2 * 64

    def __repr__(self) -> str:
        return f"SparseBitvector(length={self.length}, ones={self._ones.size})"
