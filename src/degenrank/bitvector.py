"""Plain and sparse bitvectors with rank and select.

Conventions used across the package: rank(i, b) counts occurrences of bit b
in the half-open prefix [0, i), select(j, b) returns the 0-indexed position
of the j-th occurrence (j >= 1). Out-of-range i raises IndexError, while a
select argument beyond the number of occurrences raises ValueError.
"""

from __future__ import annotations

import numpy as np

from ._bits import MASK_LOW, pack_bits, popcount, select_in_word, select_in_words, unpack_bits

_SUPER_BITS = 512
_WORDS_PER_SUPER = 8
_SELECT_SAMPLE = 8192
_SH9 = np.arange(7, dtype=np.uint64) * np.uint64(9)
_FULL_WORD = (1 << 64) - 1


def as_bit_array(bits) -> np.ndarray:
    """Coerce a '0101' string or any 0/1 sequence to a uint8 array."""
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit input must contain only 0 and 1")
    return arr


class PlainBitvector:
    """Dense bitvector with two-level rank counts and sampled select.

    Every 512-bit superblock stores one absolute 64-bit count plus seven
    relative word counts packed 9 bits each into a single extra word, so the
    rank overhead stays near ell/4 bits. Select keeps every 8192-th
    occurrence of each bit value and finishes with a bounded superblock
    search inside the bracket.
    """

    def __init__(self, bits):
        arr = as_bit_array(bits)
        self.length = int(arr.size)
        self._words = pack_bits(arr)
        self._build_counts()
        ones = np.flatnonzero(arr).astype(np.int64)
        zeros = np.flatnonzero(arr == 0).astype(np.int64)
        self._samples1 = ones[::_SELECT_SAMPLE].copy()
        self._samples0 = zeros[::_SELECT_SAMPLE].copy()

    @classmethod
    def from_words(cls, length: int, words: np.ndarray) -> "PlainBitvector":
        """Rebuild from the packed payload; rejects nonzero padding bits."""
        words = np.asarray(words, dtype=np.uint64)
        expected = length // 64 + 1
        if words.size != expected:
            raise ValueError(f"expected {expected} words for length {length}, got {words.size}")
        raw = np.unpackbits(words.view(np.uint8), bitorder="little")
        if raw[length:].any():
            raise ValueError("padding bits beyond the declared length must be zero")
        return cls(raw[:length])

    def _build_counts(self) -> None:
        wp = popcount(self._words)
        cum = np.zeros(wp.size + 1, dtype=np.int64)
        np.cumsum(wp, out=cum[1:])
        self._total_ones = int(cum[-1])
        n_super = self.length // _SUPER_BITS + 1
        need = n_super * _WORDS_PER_SUPER
        if cum.size < need:
            cum = np.concatenate([cum, np.full(need - cum.size, cum[-1], dtype=np.int64)])
        mat = cum[:need].reshape(n_super, _WORDS_PER_SUPER)
        self._superblocks = np.ascontiguousarray(mat[:, 0])
        rel = (mat[:, 1:] - mat[:, :1]).astype(np.uint64)
        self._block9 = np.bitwise_or.reduce(rel << _SH9[None, :], axis=1)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self.length

    @property
    def ones_count(self) -> int:
        return self._total_ones

    @property
    def zeros_count(self) -> int:
        return self.length - self._total_ones

    def count(self, b: int) -> int:
        return self._total_ones if b else self.length - self._total_ones

    def bit(self, p: int) -> int:
        p = int(p)
        if not 0 <= p < self.length:
            raise IndexError(f"bit position {p} out of range for length {self.length}")
        return (int(self._words[p >> 6]) >> (p & 63)) & 1

    def bits(self) -> np.ndarray:
        return unpack_bits(self._words, self.length)

    # -- rank --------------------------------------------------------------

    def rank(self, i: int, b: int = 1) -> int:
        _check_bit_value(b)
        i = int(i)
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range for length {self.length}")
        r1 = self._rank1(i)
        return r1 if b else i - r1

    def _rank1(self, i: int) -> int:
        w = i >> 6
        sb = i >> 9
        t = w & 7
        rel = (int(self._block9[sb]) >> (9 * t - 9)) & 511 if t else 0
        part = (int(self._words[w]) & ((1 << (i & 63)) - 1)).bit_count()
        return int(self._superblocks[sb]) + rel + part

    def rank_many(self, i, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        i = np.asarray(i, dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.length):
            raise IndexError("rank prefix out of range")
        w = i >> 6
        sb = i >> 9
        t = w & 7
        sh = ((np.maximum(t, 1) - 1) * 9).astype(np.uint64)
        rel = np.where(t == 0, 0, ((self._block9[sb] >> sh) & np.uint64(511)).astype(np.int64))
        part = popcount(self._words[w] & MASK_LOW[i & 63])
        r1 = self._superblocks[sb] + rel + part
        return r1 if b else i - r1

    # -- select ------------------------------------------------------------

    def select(self, j: int, b: int = 1) -> int:
        _check_bit_value(b)
        j = int(j)
        total = self.count(b)
        if not 1 <= j <= total:
            raise ValueError(f"select({j}, {b}) out of range: only {total} occurrences")
        samples = self._samples1 if b else self._samples0
        k = (j - 1) // _SELECT_SAMPLE
        lo_sb = int(samples[k]) >> 9
        hi_sb = (int(samples[k + 1]) if k + 1 < samples.size else self.length - 1) >> 9
        while lo_sb < hi_sb:
            mid = (lo_sb + hi_sb + 1) >> 1
            if self._count_before_super(mid, b) < j:
                lo_sb = mid
            else:
                hi_sb = mid - 1
        sb = lo_sb
        rel = j - self._count_before_super(sb, b)
        b9 = int(self._block9[sb])
        t = 0
        prev = 0
        for tt in range(1, _WORDS_PER_SUPER):
            cnt = (b9 >> (9 * tt - 9)) & 511
            if not b:
                cnt = tt * 64 - cnt
            if cnt < rel:
                t, prev = tt, cnt
            else:
                break
        w_idx = sb * _WORDS_PER_SUPER + t
        w = int(self._words[w_idx])
        if not b:
            w = ~w & _FULL_WORD
        return w_idx * 64 + select_in_word(w, rel - 1 - prev)

    def _count_before_super(self, sb: int, b: int) -> int:
        ones = int(self._superblocks[sb])
        return ones if b else sb * _SUPER_BITS - ones

    def select_many(self, j, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        j = np.asarray(j, dtype=np.int64)
        total = self.count(b)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        if j.min() < 1 or j.max() > total:
            raise ValueError(f"select batch out of range: only {total} occurrences")
        if b:
            counts = self._superblocks
        else:
            counts = np.arange(self._superblocks.size, dtype=np.int64) * _SUPER_BITS - self._superblocks
        sb = np.searchsorted(counts, j, side="left") - 1
        rel = j - counts[sb]
        brel = ((self._block9[sb][:, None] >> _SH9[None, :]) & np.uint64(511)).astype(np.int64)
        brel = np.concatenate([np.zeros((sb.size, 1), dtype=np.int64), brel], axis=1)
        if not b:
            brel = np.arange(_WORDS_PER_SUPER, dtype=np.int64)[None, :] * 64 - brel
        t = (brel < rel[:, None]).sum(axis=1) - 1
        rows = np.arange(sb.size)
        prev = brel[rows, t]
        w_idx = sb * _WORDS_PER_SUPER + t
        words = self._words[w_idx]
        if not b:
            words = ~words
        return w_idx * 64 + select_in_words(words, rel - 1 - prev)

    # -- accounting ---------------------------------------------------------

    def size_bits(self) -> int:
        sizes = 64 * (self._words.size + self._superblocks.size + self._block9.size)
        sizes += 64 * (self._samples1.size + self._samples0.size)
        sizes += 2 * 64  # length and ones-count scalars
        return sizes

    def __repr__(self) -> str:
        return f"PlainBitvector(length={self.length}, ones={self._total_ones})"


class SparseBitvector:
    """Position-list bitvector for vectors with few ones.

    Stores the sorted positions of the ones in the narrowest unsigned dtype
    that can hold the vector length; rank is a binary search and select is a
    table lookup. select(j, 0) uses the identity that the prefix ending at
    the k-th one contains position-minus-index zeroes, so it needs no stored
    zero positions.
    """

    def __init__(self, length: int, ones):
        length = int(length)
        if length < 0:
            raise ValueError("length must be nonnegative")
        ones = np.asarray(ones, dtype=np.int64)
        if ones.ndim != 1:
            raise ValueError("ones must be one-dimensional")
        if ones.size:
            if ones[0] < 0 or ones[-1] >= length:
                raise ValueError("one positions out of range")
            if np.any(np.diff(ones) <= 0):
                raise ValueError("one positions must be strictly increasing")
        self.length = length
        self._ones = ones.astype(_pos_dtype(length))

    @classmethod
    def from_bits(cls, bits) -> "SparseBitvector":
        arr = as_bit_array(bits)
        return cls(arr.size, np.flatnonzero(arr))

    def __len__(self) -> int:
        return self.length

    @property
    def ones_count(self) -> int:
        return int(self._ones.size)

    @property
    def zeros_count(self) -> int:
        return self.length - self._ones.size

    def count(self, b: int) -> int:
        return self.ones_count if b else self.zeros_count

    def bit(self, p: int) -> int:
        if not 0 <= p < self.length:
            raise IndexError(f"bit position {p} out of range for length {self.length}")
        k = int(self._ones.searchsorted(self._key(p)))
        return 1 if k < self._ones.size and int(self._ones[k]) == p else 0

    def positions(self) -> np.ndarray:
        return self._ones.astype(np.int64)

    def _key(self, i: int):
        # A search key of another dtype makes numpy cast the whole position
        # array on every call; any checked i <= length fits the stored dtype.
        return self._ones.dtype.type(i)

    def rank(self, i: int, b: int = 1) -> int:
        _check_bit_value(b)
        i = int(i)
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range for length {self.length}")
        r1 = int(self._ones.searchsorted(self._key(i)))
        return r1 if b else i - r1

    def rank_many(self, i, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        i = np.asarray(i, dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.length):
            raise IndexError("rank prefix out of range")
        r1 = self._ones.searchsorted(i.astype(self._ones.dtype)).astype(np.int64)
        return r1 if b else i - r1

    def select(self, j: int, b: int = 1) -> int:
        _check_bit_value(b)
        j = int(j)
        total = self.count(b)
        if not 1 <= j <= total:
            raise ValueError(f"select({j}, {b}) out of range: only {total} occurrences")
        if b:
            return int(self._ones[j - 1])
        # count ones whose prefix holds fewer than j zeroes
        lo, hi = 0, self._ones.size
        while lo < hi:
            mid = (lo + hi) >> 1
            if int(self._ones[mid]) - mid < j:
                lo = mid + 1
            else:
                hi = mid
        return j - 1 + lo

    def select_many(self, j, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        j = np.asarray(j, dtype=np.int64)
        total = self.count(b)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        if j.min() < 1 or j.max() > total:
            raise ValueError(f"select batch out of range: only {total} occurrences")
        if b:
            return self._ones[j - 1].astype(np.int64)
        diffs = self._ones.astype(np.int64) - np.arange(self._ones.size, dtype=np.int64)
        t = np.searchsorted(diffs, j, side="left")
        return j - 1 + t

    def size_bits(self) -> int:
        return 8 * self._ones.nbytes + 2 * 64

    def __repr__(self) -> str:
        return f"SparseBitvector(length={self.length}, ones={self._ones.size})"


def _pos_dtype(length: int):
    if length < 1 << 8:
        return np.uint8
    if length < 1 << 16:
        return np.uint16
    if length < 1 << 32:
        return np.uint32
    return np.int64


def _check_bit_value(b: int) -> None:
    if b not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {b!r}")
