"""Packed-word bit utilities and the query-argument checks shared by the
rank-select structures.

Every public query method checks its arguments once, with the helpers at
the end of this module, and then calls an unchecked kernel (`_rank`,
`_select`, `_rank_many`, `_select_many`). Kernels take Python ints, or flat
int64 arrays of one length, that the checks have put in range, and call only
the kernels of their components.
"""

from __future__ import annotations

import operator

import numpy as np

WORD_BITS = 64
INT64_MAX = (1 << 63) - 1

# MASK_LOW[k] has the k lowest bits set; MASK_LOW[0] == 0.  Kept as uint64 so
# that `word & MASK_LOW[k]` never promotes to a wider or signed dtype.
MASK_LOW = np.array([(1 << k) - 1 for k in range(WORD_BITS)], dtype=np.uint64)

_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)


def _build_select_in_byte() -> np.ndarray:
    table = np.zeros((256, 8), dtype=np.uint8)
    for b in range(256):
        t = 0
        for p in range(8):
            if (b >> p) & 1:
                table[b, t] = p
                t += 1
    return table


# SELECT_IN_BYTE[b, r] is the position of the (r+1)-th set bit of byte b.
SELECT_IN_BYTE = _build_select_in_byte()


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 0/1 array into little-endian words.

    Returns ``len(bits) // 64 + 1`` words so that the word holding position
    ``i`` exists for every boundary query ``0 <= i <= len(bits)``.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n_words = bits.size // WORD_BITS + 1
    buf = np.zeros(n_words * 8, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    buf[: packed.size] = packed
    return buf.view("<u8").astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of pack_bits, trimmed to `length` bits."""
    raw = np.unpackbits(words.view(np.uint8), bitorder="little")
    return raw[:length]


def packed_payload(length, *planes):
    """The length and planes of a packed bit payload as an int and uint64 arrays,
    checked before any cast: ValueError unless length >= 0 and each plane is
    length // 64 + 1 integers in [0, 2**64) with no bit set at or past length."""
    length = index_arg(length, 0, INT64_MAX, "payload length", ValueError)
    checked = []
    for words in planes:
        arr = integers(words, "payload words")
        if arr.shape != (length // WORD_BITS + 1,) or (arr.dtype.kind == "i" and arr.min() < 0):
            raise ValueError(f"a payload of length {length} is {length // WORD_BITS + 1} "
                             f"words in [0, 2**64), got shape {arr.shape}")
        arr = arr.astype(np.uint64, copy=False)
        if arr[-1] & ~MASK_LOW[length & 63]:
            raise ValueError("padding bits beyond the declared length must be zero")
        checked.append(arr)
    return length, checked


def popcount(words: np.ndarray) -> np.ndarray:
    # np.bitwise_count returns uint8; widen before anything cumulative.
    return np.bitwise_count(words).astype(np.int64)


def select_in_word(word: int, r: int) -> int:
    """Position of the (r+1)-th set bit of a 64-bit word. r is 0-indexed."""
    w = word
    for _ in range(r):
        w &= w - 1
    return (w & -w).bit_length() - 1


def select_in_words(words: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Vectorized select_in_word over matching arrays of words and ranks."""
    words = np.asarray(words, dtype=np.uint64)
    ranks = np.asarray(ranks, dtype=np.int64)
    byte_mat = ((words[:, None] >> _BYTE_SHIFTS[None, :]) & np.uint64(0xFF))
    cnt = np.bitwise_count(byte_mat).astype(np.int64)
    cum = np.cumsum(cnt, axis=1)
    byte_idx = (cum <= ranks[:, None]).sum(axis=1)
    rows = np.arange(words.size)
    r_in = ranks - (cum[rows, byte_idx] - cnt[rows, byte_idx])
    byte_vals = byte_mat[rows, byte_idx].astype(np.int64)
    return byte_idx * 8 + SELECT_IN_BYTE[byte_vals, r_in].astype(np.int64)


# -- query arguments ---------------------------------------------------------


def integers(values, what: str) -> np.ndarray:
    """values as an array, ValueError unless its dtype is an integer type.

    An empty list, which numpy makes float64, holds no non-integer and passes.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr


def index_arg(value, lo: int, hi: int, what: str, error=IndexError) -> int:
    """One integer argument (an int, a numpy integer or a 0-d integer array)
    as an int; ValueError for anything else, error unless lo <= value <= hi."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if not lo <= value <= hi:
        raise error(f"{what} {value} out of range [{lo}, {hi}]")
    return value


def index_args(values, lo: int, hi, what: str, error=IndexError) -> np.ndarray:
    """An integer argument of any shape as int64; error unless every value
    lies in [lo, hi], where hi is an int or an array that broadcasts.

    A uint64 value past the int64 range turns negative in the cast, so it
    fails the check instead of wrapping into range.
    """
    arr = integers(values, what).astype(np.int64, copy=False)
    if arr.size and (arr.min() < lo or (arr > hi).any()):
        raise error(f"{what} out of range")
    return arr


def rank_arg(i, c, limit: int, sigma: int) -> tuple[int, int]:
    """Scalar rank arguments: IndexError unless 0 <= i <= limit and 0 <= c < sigma."""
    return index_arg(i, 0, limit, "prefix"), index_arg(c, 0, sigma - 1, "symbol")


def select_arg(j, c, counts: np.ndarray) -> tuple[int, int]:
    """Scalar select arguments: IndexError unless 0 <= c < len(counts),
    ValueError unless 1 <= j <= counts[c]."""
    c = index_arg(c, 0, counts.size - 1, "symbol")
    return index_arg(j, 1, int(counts[c]), "select index", ValueError), c


def rank_args(i, c, limit: int, sigma: int):
    """rank_arg over arrays: c is broadcast against i and both are flattened;
    the shape the answer takes comes third."""
    return _flat(index_args(i, 0, limit, "prefix"), index_args(c, 0, sigma - 1, "symbol"))


def select_args(j, c, counts: np.ndarray):
    """select_arg over arrays, shaped as rank_args."""
    c = index_args(c, 0, counts.size - 1, "symbol")
    return _flat(index_args(j, 1, counts[c], "select index", ValueError), c)


def _flat(a: np.ndarray, c: np.ndarray):
    if a.shape != c.shape:
        a, c = np.broadcast_arrays(a, c)  # ValueError when the shapes do not broadcast
    return a.ravel(), c.ravel(), a.shape
