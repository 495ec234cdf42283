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
a memoryview subscript a small fraction of that. PlainBitvector's select
starts from a sampled inventory of superblocks, built with the rank counts,
and searches only the bracket between two inventory entries: by bisect in
the scalar kernel, by a fixed number of forward steps in the batched one.
Its batched select also takes one bit per query, so that a wavelet level
answers the selects of both bits in one call.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ._bits import (FULL_WORD, INT64_MAX, MASK_LOW, index_arg, index_args, integers,
                    narrow_uint, pack_bits, packed_payload, popcount, select_in_word,
                    select_in_words, stored_indices, unpack_bits)

_SUPER_BITS = 512
_WORDS_PER_SUPER = 8
# The select inventory samples every 2**s-th occurrence of a bit, with 2**s
# about _GAP times the bit's occurrences per superblock, so that samples of
# evenly spread bits lie about _GAP superblocks apart. A vector of fewer
# than _SMALL_SUPERS superblocks, whose entries take one byte, samples with
# _SMALL_GAP, for about two steps a batch: a search of its few counts costs
# little more than that. A batch takes at most _MAX_STEPS steps.
_GAP = 5
_SMALL_SUPERS = 128
_SMALL_GAP = 1.5
_MAX_STEPS = 8
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
    """Dense bitvector: the packed words, two-level rank counts and a
    sampled select inventory.

    Every 512-bit superblock stores the zeros and the ones before it, as two
    32-bit counts, plus seven relative word counts packed 9 bits each into a
    single extra word, so rank is O(1). The counts are one ascending array:
    the ones before each superblock, then the zeros before each one plus
    ones_count, then length, so a zero select searches with its j offset by
    ones_count, and every count a select reads exists.

    Select is Vigna's select9 with a first level sampled per bit. For bit b,
    the inventory keeps the index in the counts of the superblock that holds
    its 1st occurrence, its (k * 2**s)-th for every k >= 1, and its last,
    with s set from the bit's density (see _GAP): one narrow array for both
    bits, built with the counts from the words, so the vector takes about
    1.27 bits per bit. The j-th occurrence lies between entries j >> s and
    (j >> s) + 1: the scalar kernel bisects the counts between them, and
    the batched one starts at the first and takes as many steps of one
    superblock, each one gather and one compare over the batch, as the
    widest bracket of the bit, measured at build time. A batch that mixes
    the bits reads each query's entry and takes the steps of the wider one.
    Past _MAX_STEPS steps, the queries still short of their superblock
    finish with one search of the counts. In the superblock, select9 finds
    the word by comparing all seven word counts at once, then selects inside
    that word, broadword in the batched kernel. A vector of 2**32 bits or
    more keeps its counts as 64-bit integers, 64 more bits per superblock.
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
        counts = np.empty(2 * n_super + 1, dtype=np.uint32 if length < 1 << 32 else np.int64)
        counts[:n_super] = ones
        counts[n_super:-1] = np.arange(n_super) * _SUPER_BITS - ones + self._total_ones
        counts[-1] = length
        self._block9 = np.bitwise_or.reduce((mat[:, 1:] - mat[:, :1]) << _SHIFT9_WORDS[1:],
                                            axis=1)
        self._use_counts(counts)
        # the same arrays as the scalar kernels read them
        self._words_mv = memoryview(words)
        self._block9_mv = memoryview(self._block9)

    def _use_counts(self, counts: np.ndarray) -> None:
        """Keep counts and the select inventory over them, with their
        memoryviews: the ones before each superblock, the zeros before each
        one plus ones_count, then length. Bit 0's entries come first, then
        bit 1's, each the combined index of a superblock in counts, found by
        one search of the counts for both bits."""
        n_super = counts.size // 2
        ones = self._total_ones
        gap = _GAP if n_super >= _SMALL_SUPERS else _SMALL_GAP
        keys, shifts = [], []
        for count, before in ((self.length - ones, ones), (ones, 0)):
            s = max(int(gap * count / n_super).bit_length() - 1, 0)
            # ranks 1, 2**s, 2 * 2**s, ... and count: rank j lies in bracket j >> s
            ranks = np.minimum(np.arange((count >> s) + 2 if count else 0) << s, count)
            ranks[:1] = 1
            keys.append(ranks + before)
            shifts.append(s)
        inv = counts.searchsorted(np.concatenate(keys).astype(counts.dtype)) - 1
        split = keys[0].size
        self._counts = counts
        self._counts_mv = memoryview(counts)
        self._after = counts[1:]  # the count after each superblock, as a step reads it
        self._inventory = inv.astype(narrow_uint(counts.size - 1))
        self._inventory_mv = memoryview(self._inventory)
        self._inv_start = (0, split)
        self._inv_shift = tuple(shifts)
        # the widest bracket of bit 0, of bit 1, and of a batch that mixes them
        widest = [int(np.diff(part).max(initial=0)) for part in (inv[:split], inv[split:])]
        self._widest = (*widest, max(widest))

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
        r1 = self._counts_mv[sb] + rel + part
        return r1 if b else i - r1

    def _rank_many(self, i: np.ndarray, b: int = 1) -> np.ndarray:
        w = i >> 6
        sb = i >> 9
        rel = (self._block9[sb] >> _SHIFT9_WORDS[w & 7]) & 511
        part = popcount(self._words[w] & MASK_LOW[i & 63])
        r1 = self._counts[sb] + rel + part
        return r1 if b else i - r1

    # -- select ------------------------------------------------------------

    # Both kernels find the last superblock with fewer than j b-bits before
    # it, a zero's key offset by ones_count into the zeros half, between two
    # inventory entries: the scalar one with bisect, the batched one with
    # forward steps that compare a key in the dtype of the counts, since any
    # other key makes numpy cast each gathered count. Inside the superblock,
    # the word is the number of 9-bit word counts of bit b at or below the
    # rank r left to find (Vigna's select9): one broadword comparison of all
    # seven against r * ONES9, then a popcount.

    def _select(self, j: int, b: int = 1) -> int:
        counts, inv = self._counts_mv, self._inventory_mv
        key = j if b else j + self._total_ones
        k = self._inv_start[b] + (j >> self._inv_shift[b])
        sb = bisect_left(counts, key, inv[k] + 1, inv[k + 1] + 1) - 1
        r = key - 1 - counts[sb]
        if not b:
            sb -= self._block9.size
        x = self._block9_mv[sb] if b else _ZERO9 - self._block9_mv[sb]
        t = _le9(x, r * _ONES9).bit_count()
        w_idx = sb * _WORDS_PER_SUPER + t
        w = self._words_mv[w_idx]
        return w_idx * 64 + select_in_word(w if b else ~w & FULL_WORD,
                                           r - ((x >> _SHIFT9[t]) & 511))

    def _select_many(self, j: np.ndarray, b=1) -> np.ndarray:
        """b is one bit, or an int64 array of bits, one per query: each query
        then reads its bit's inventory entry, and the batch takes the steps
        of the wider bit. A zero's superblock is its index less the ones
        half, and its word counts and words are flipped."""
        one_bit = type(b) is int  # a check that makes no C call
        if one_bit:
            key = j if b else j + self._total_ones
            k = self._inv_start[b] + (j >> self._inv_shift[b])
            widest = self._widest[b]
        else:
            zero = b == 0
            key = j + zero * self._total_ones
            (o0, o1), (s0, s1) = self._inv_start, self._inv_shift
            k = o1 + (o0 - o1) * zero + (j >> (s1 + (s0 - s1) * zero))
            widest = self._widest[2]
        counts, after = self._counts, self._after
        ckey = key.astype(counts.dtype)
        sb = self._inventory[k].astype(np.int64)
        for _ in range(widest if widest < _MAX_STEPS else _MAX_STEPS):
            sb += after[sb] < ckey
        if widest > _MAX_STEPS:
            late = np.flatnonzero(after[sb] < ckey)
            sb[late] = counts.searchsorted(ckey[late]) - 1
        r = key - 1 - counts[sb]
        if one_bit:
            if not b:
                sb -= self._block9.size
            x = self._block9[sb] if b else _ZERO9 - self._block9[sb]
        else:
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
        nbytes = (self._words.nbytes + self._counts.nbytes + self._block9.nbytes
                  + self._inventory.nbytes)
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
        ones = stored_indices(ones, length - 1, narrow_uint(length), "one positions")
        if ones.ndim != 1:
            raise ValueError("ones must be one-dimensional")
        if np.any(ones[1:] <= ones[:-1]):  # np.diff would wrap in an unsigned dtype
            raise ValueError("one positions must be strictly increasing")
        self.length = length
        self._ones = ones
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
