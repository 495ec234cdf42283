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
FULL_WORD = (1 << WORD_BITS) - 1  # a word of all ones, as a Python int
INT64_MAX = (1 << 63) - 1

# MASK_LOW[k] has the k lowest bits set; MASK_LOW[0] == 0.  Kept as uint64 so
# that `word & MASK_LOW[k]` never promotes to a wider or signed dtype.
MASK_LOW = np.array([(1 << k) - 1 for k in range(WORD_BITS)], dtype=np.uint64)


def _build_select_in_byte() -> np.ndarray:
    table = np.zeros(256 * 8, dtype=np.uint8)
    for b in range(256):
        t = 0
        for p in range(8):
            if (b >> p) & 1:
                table[8 * b + t] = p
                t += 1
    return table


# SELECT_IN_BYTE[8 * b + r] is the position of the (r+1)-th set bit of byte b
# (one flat index is cheaper for numpy than two); _SELECT_IN_BYTE_ROWS is the
# same table as rows of Python tuples, for select_in_word.
SELECT_IN_BYTE = _build_select_in_byte()
_SELECT_IN_BYTE_ROWS = tuple(map(tuple, SELECT_IN_BYTE.reshape(256, 8).tolist()))


def narrow_uint(top: int):
    """The narrowest unsigned dtype that holds every value in [0, top]."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


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


def stored_indices(values, hi: int, dtype, what: str) -> np.ndarray:
    """Indices that a structure stores, of any shape, as a copy in dtype made
    by one cast; ValueError unless every value is an integer in [0, hi].
    The range is checked in the array's own dtype, before the cast, so a
    uint64 value of 2**63 or more is refused, not wrapped."""
    arr = integers(values, what)
    if arr.size and (arr.min() < 0 or arr.max() > hi):
        raise ValueError(f"{what} out of range")
    return arr.astype(dtype)


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
    """Position of the (r+1)-th set bit of a 64-bit word. r is 0-indexed and
    below the word's popcount. Halving: the low 32, 16 and 8 bits at the
    current offset each either hold the bit or are skipped, then one byte
    table lookup."""
    p = 0
    k = (word & 0xFFFFFFFF).bit_count()
    if r >= k:
        r -= k
        p = 32
    k = ((word >> p) & 0xFFFF).bit_count()
    if r >= k:
        r -= k
        p += 16
    k = ((word >> p) & 0xFF).bit_count()
    if r >= k:
        r -= k
        p += 8
    return p + _SELECT_IN_BYTE_ROWS[(word >> p) & 255][r]


# Eight 8-bit fields: a 1 in each, the top bit of each.
_ONES8 = 0x0101010101010101
_MSBS8 = _ONES8 << 7


def select_in_words(words: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Vectorized select_in_word over matching uint64 words and int64 ranks,
    as uint8 (Vigna's broadword select). The popcounts of the bytes of a
    contiguous words array, read back as one uint64 a word and multiplied by
    ONES8, make byte k of `sums` count the set bits of bytes 0 to k, at most
    64, so one subtraction compares all eight sums with the rank and a
    popcount gives the byte; one table lookup in it."""
    sums = np.bitwise_count(words.view(np.uint8)).view(np.uint64) * _ONES8
    r = ranks.astype(np.uint64)
    place = np.bitwise_count((((r * _ONES8) | _MSBS8) - sums) & _MSBS8) << 3
    before = (sums << 8 >> place) & 255
    return place + SELECT_IN_BYTE[((words >> place) & 255) << 3 | (r - before)]


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
        if type(value) is bool:  # an int to Python, but refused as numpy's bools are
            raise TypeError
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


def select_arg(j, c, counts) -> tuple[int, int]:
    """Scalar select arguments: IndexError unless 0 <= c < len(counts),
    ValueError unless 1 <= j <= counts[c]. counts is an int64 array or a
    memoryview of one, which a scalar query reads faster."""
    c = index_arg(c, 0, len(counts) - 1, "symbol")
    return index_arg(j, 1, counts[c], "select index", ValueError), c


def rank_args(i, c, limit: int, sigma: int):
    """rank_arg over arrays: c is broadcast against i and both are flattened;
    the shape the answer takes comes third."""
    return _flat(index_args(i, 0, limit, "prefix"), index_args(c, 0, sigma - 1, "symbol"))


def select_args(j, c, counts: np.ndarray):
    """select_arg over arrays, shaped as rank_args."""
    c = index_args(c, 0, counts.size - 1, "symbol")
    return _flat(index_args(j, 1, counts[c], "select index", ValueError), c)


def small_batch(a, c, limit: int):
    """a and c as flat lists of Python ints in their broadcast shape, and that
    shape, when both are integer arrays that broadcast to at most limit
    elements. For anything else, a and c as arrays and None: the array
    checks then take them and raise what they raise. No value is checked."""
    a, c = np.asarray(a), np.asarray(c)
    if a.dtype.kind in "iu" and c.dtype.kind in "iu":
        try:  # np.broadcast_arrays costs about 3 us even when it changes nothing
            la, lc = (a, c) if a.shape == c.shape else np.broadcast_arrays(a, c)
        except ValueError:  # shapes that do not broadcast
            return a, c, None
        if la.size <= limit:
            shape = la.shape
            if la.ndim != 1:  # tolist nests lists, and gives a scalar at 0-d
                la, lc = la.ravel(), lc.ravel()
            return la.tolist(), lc.tolist(), shape
    return a, c, None


def select_list_args(j: list, c: list, counts) -> None:
    """select_args over the lists of small_batch, on Python ints, with counts
    as select_arg takes them: every symbol is checked before any select
    index, so a bad symbol's IndexError wins."""
    top = len(counts) - 1
    for v in c:
        index_arg(v, 0, top, "symbol")
    for v, b in zip(j, c):
        index_arg(v, 1, counts[b], "select index", ValueError)


def _flat(a: np.ndarray, c: np.ndarray):
    if a.shape != c.shape:
        a, c = np.broadcast_arrays(a, c)  # ValueError when the shapes do not broadcast
    return a.ravel(), c.ravel(), a.shape
