"""Plain and sparse bitvectors with rank and select.

Conventions used across the package: rank(i, b) counts occurrences of bit b
in the half-open prefix [0, i), select(j, b) returns the 0-indexed position
of the j-th occurrence (j >= 1). Out-of-range i raises IndexError, while a
select argument beyond the number of occurrences raises ValueError.
Both classes check arguments in the public methods of _BitQueries and
answer in the unchecked kernels _rank, _select, _rank_many and _select_many.
"""

from __future__ import annotations

import numpy as np

from ._bits import (INT64_MAX, MASK_LOW, index_arg, index_args, integers, pack_bits,
                    packed_payload, popcount, select_in_word, select_in_words, unpack_bits)

_SUPER_BITS = 512
_WORDS_PER_SUPER = 8
_SH9 = np.arange(7, dtype=np.uint64) * np.uint64(9)
_FULL_WORD = (1 << 64) - 1


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
    """Checked rank, select and bit over the kernels of a bitvector."""

    def rank(self, i, b: int = 1) -> int:
        _check_bit_value(b)
        return self._rank(index_arg(i, 0, self.length, "rank prefix"), b)

    def rank_many(self, i, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        i = index_args(i, 0, self.length, "rank prefix")
        return self._rank_many(i.ravel(), b).reshape(i.shape)

    def select(self, j, b: int = 1) -> int:
        _check_bit_value(b)
        return self._select(index_arg(j, 1, self.count(b), "select index", ValueError), b)

    def select_many(self, j, b: int = 1) -> np.ndarray:
        _check_bit_value(b)
        j = index_args(j, 1, self.count(b), "select index", ValueError)
        return self._select_many(j.ravel(), b).reshape(j.shape)

    def bit(self, p) -> int:
        return self._bit(index_arg(p, 0, self.length - 1, "bit position"))


class PlainBitvector(_BitQueries):
    """Dense bitvector: the packed words plus two-level rank counts.

    Every 512-bit superblock stores one absolute 64-bit count plus seven
    relative word counts packed 9 bits each into a single extra word, so the
    vector takes about 1.25 bits per bit and rank is O(1). Select binary
    searches the same superblock counts, then the relative word counts, and
    finishes inside one word; it stores nothing of its own.
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

    def _bit(self, p: int) -> int:
        return (int(self._words[p >> 6]) >> (p & 63)) & 1

    def bits(self) -> np.ndarray:
        return unpack_bits(self._words, self.length)

    # -- rank --------------------------------------------------------------

    def _rank(self, i: int, b: int = 1) -> int:
        w = i >> 6
        sb = i >> 9
        t = w & 7
        rel = (int(self._block9[sb]) >> (9 * t - 9)) & 511 if t else 0
        part = (int(self._words[w]) & ((1 << (i & 63)) - 1)).bit_count()
        r1 = int(self._superblocks[sb]) + rel + part
        return r1 if b else i - r1

    def _rank_many(self, i: np.ndarray, b: int = 1) -> np.ndarray:
        w = i >> 6
        sb = i >> 9
        t = w & 7
        sh = ((np.maximum(t, 1) - 1) * 9).astype(np.uint64)
        rel = np.where(t == 0, 0, ((self._block9[sb] >> sh) & np.uint64(511)).astype(np.int64))
        part = popcount(self._words[w] & MASK_LOW[i & 63])
        r1 = self._superblocks[sb] + rel + part
        return r1 if b else i - r1

    # -- select ------------------------------------------------------------

    def _select(self, j: int, b: int = 1) -> int:
        counts = self._superblocks
        if b:
            sb = int(counts.searchsorted(j)) - 1
            rel = j - counts.item(sb)
        else:  # the last superblock with fewer than j zeros before it
            sb, hi = 0, counts.size - 1
            while sb < hi:
                mid = (sb + hi + 1) >> 1
                if mid * _SUPER_BITS - counts.item(mid) < j:
                    sb = mid
                else:
                    hi = mid - 1
            rel = j - (sb * _SUPER_BITS - counts.item(sb))
        b9 = self._block9.item(sb)
        t = prev = 0
        for tt in range(1, _WORDS_PER_SUPER):
            cnt = (b9 >> (9 * tt - 9)) & 511
            if not b:
                cnt = tt * 64 - cnt
            if cnt >= rel:
                break
            t, prev = tt, cnt
        w_idx = sb * _WORDS_PER_SUPER + t
        w = self._words.item(w_idx)
        if not b:
            w = ~w & _FULL_WORD
        return w_idx * 64 + select_in_word(w, rel - 1 - prev)

    def _select_many(self, j: np.ndarray, b: int = 1) -> np.ndarray:
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
        return sizes + 2 * 64  # length and ones-count scalars

    def __repr__(self) -> str:
        return f"PlainBitvector(length={self.length}, ones={self._total_ones})"


class SparseBitvector(_BitQueries):
    """Position-list bitvector for vectors with few ones.

    Stores the sorted positions of the ones in the narrowest unsigned dtype
    that can hold the vector length; rank is a binary search and select is a
    table lookup. select(j, 0) uses the identity that the prefix ending at
    the k-th one contains position-minus-index zeroes, so it needs no stored
    zero positions.
    """

    def __init__(self, length: int, ones):
        length = index_arg(length, 0, INT64_MAX, "length", ValueError)
        ones = index_args(ones, 0, length - 1, "one positions", ValueError)
        if ones.ndim != 1:
            raise ValueError("ones must be one-dimensional")
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

    def _bit(self, p: int) -> int:
        k = int(self._ones.searchsorted(self._key(p)))
        return 1 if k < self._ones.size and int(self._ones[k]) == p else 0

    def positions(self) -> np.ndarray:
        return self._ones.astype(np.int64)

    def _key(self, i: int):
        # A search key of another dtype makes numpy cast the whole position
        # array on every call; any checked i <= length fits the stored dtype.
        return self._ones.dtype.type(i)

    def _rank(self, i: int, b: int = 1) -> int:
        r1 = int(self._ones.searchsorted(self._key(i)))
        return r1 if b else i - r1

    def _rank_many(self, i: np.ndarray, b: int = 1) -> np.ndarray:
        r1 = self._ones.searchsorted(i.astype(self._ones.dtype)).astype(np.int64)
        return r1 if b else i - r1

    def _select(self, j: int, b: int = 1) -> int:
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

    def _select_many(self, j: np.ndarray, b: int = 1) -> np.ndarray:
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
