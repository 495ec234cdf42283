"""Reductions from subset rank-select to regular string rank-select.

Three interchangeable constructions over a degenerate string X:

* ReductionI — requires no empty sets. S is the concatenation of the set
  contents (ascending inside each set), R a plain bitvector of length N+1
  with a 1 at the start of every set plus a trailing 1. subset-rank finds
  the start of set i via select on R and counts in S; subset-select finds
  the j-th c in S and maps its position back through rank on R.
* ReductionII — replaces every empty set with a singleton sentinel symbol
  sigma, then defers to ReductionI over the sigma+1 alphabet. The sentinel
  stays internal: the public alphabet is unchanged and sentinel queries are
  rejected.
* ReductionIII — keeps an empty-position bitvector E (sparse: n0 is tiny in
  the motivating workloads) plus ReductionI over X with empty sets removed.
  Ranks shift i by the empties before it; selects map back through the
  zeroes of E.

E is handled in one layer, _Empties, which puts E over any structure of the
nonempty sets: ReductionIII is _Empties over ReductionI, and the DSD is
_Empties over its decomposition of the nonempty sets. No other layer
queries E.

Each class is built from its components, S and R (and E for ReductionIII),
and derives n, N and n0 from them; build_reduction and container.loads
both end in these constructors. The builders take the variant and base
names exactly as VARIANTS and BASES spell them. The public queries of
_SubsetQueries check their arguments against the public alphabet once;
below them every class calls only the unchecked kernels of its
components. decompose, size_bits and repr are defined once, on
_SubsetQueries, over those kernels.

All queries are 0-indexed with half-open rank prefixes, like the rest of
the package; the worked-example test pins the conversion from the common
1-indexed formulation.
"""

from __future__ import annotations

import numpy as np

from ._bits import (index_arg, narrow_uint, rank_arg, rank_args, select_arg, select_args,
                    select_list_args, small_batch)
from .bitvector import PlainBitvector, SparseBitvector
from .degenerate import DegenerateString
from .strrank import _MAX_SIGMA, BitPlaneRank, WaveletTree

BASES = ("wavelet", "bitplane")
VARIANTS = ("reduction-i", "reduction-ii", "reduction-iii")


def _check_base(sigma: int, base: str, block_words: int) -> int:
    """block_words as an int, once base is a base that takes sigma symbols;
    block_words is checked on both bases, though only the bitplane base uses it."""
    block_words = index_arg(block_words, 1, BitPlaneRank.MAX_BLOCK_WORDS, "block_words",
                            ValueError)
    if base not in BASES:
        raise ValueError(f"unknown base {base!r}, expected one of {BASES}")
    most = _MAX_SIGMA if base == "wavelet" else BitPlaneRank.SIGMA
    if sigma > most:
        raise ValueError(f"{base} base supports alphabets up to {most}, needs {sigma}")
    return block_words


def _build_base(symbols: np.ndarray, sigma: int, base: str, block_words: int):
    """The base string over symbols, for arguments that passed _check_base."""
    if base == "wavelet":
        return WaveletTree(symbols, sigma)
    return BitPlaneRank(symbols, block_words=block_words)


def _check_alphabet(S, sigma: int) -> None:
    """Reject a base string with a symbol >= sigma or a wavelet matrix over another
    alphabet. A wavelet matrix counts only the symbols below its own sigma, so
    one whose levels hold a bigger symbol has counts that sum short of its length."""
    if ((S.base_name == "wavelet" and S.sigma != sigma) or sigma > S.sigma
            or S.symbol_counts()[:sigma].sum() != S.length):
        raise ValueError(f"base string does not fit the alphabet of size {sigma}")


# A batch of at most _SCALAR_RANKS ranks or _SCALAR_SELECTS selects is checked
# on Python ints and answered one query at a time by the scalar kernels: each
# numpy call of a batched kernel costs about 1 us however small the batch. A
# sweep of 1 to 64 queries on every benchmark structure put the crossover at 16
# to 20 ranks, and at 24 to 48 selects on the reductions, whose batched kernels
# make more calls; a DSD select batch gains from the batched kernels only past
# about 64.
_SCALAR_RANKS = 16
_SCALAR_SELECTS = 32


def _one_by_one(kernel, a: list, c: list, shape) -> np.ndarray:
    out = np.array(list(map(kernel, a, c)), dtype=np.int64)
    return out if out.shape == shape else out.reshape(shape)


def _in_key_order(kernel, a: np.ndarray, c: np.ndarray, key: np.ndarray) -> np.ndarray:
    """kernel's answers to the queries (a, c), asked in the order of key and
    put back in the order given."""
    order = np.argsort(key)
    out = np.empty(key.size, dtype=np.int64)
    out[order] = kernel(a[order], c[order])
    return out


class _SubsetQueries:
    """Checked subset queries over the kernels _rank, _select, _rank_many and
    _select_many; a subclass sets sigma, n, N, n0 and base_name, passes
    _set_containing the number of sets that contain each symbol, and defines
    size_breakdown().

    Every query form checks its arguments once: a batch of at most
    _SCALAR_RANKS ranks through subset_rank, one of at most _SCALAR_SELECTS
    selects on Python ints before the scalar kernel, a larger one as arrays
    before the batched kernels. Both raise the same errors and give the
    same answers in the same int64 array of the broadcast shape.

    A larger batch runs in key order: one argsort puts ranks in order of i
    and selects in order of (c, j), by the key _first[c] + j, one per
    (c, j) and at most N. Every layer below then searches its arrays with
    increasing keys, which branch predictors and caches favour, and the
    answers are scattered back to the caller's order once."""

    def subset_rank(self, i, c) -> int:
        return self._rank(*rank_arg(i, c, self.n, self.sigma))

    def subset_select(self, j, c) -> int:
        return self._select(*select_arg(j, c, self._containing_mv))

    def subset_rank_many(self, i, c) -> np.ndarray:
        i, c, shape = small_batch(i, c, _SCALAR_RANKS)
        if shape is None:
            i, c, shape = rank_args(i, c, self.n, self.sigma)
            return _in_key_order(self._rank_many, i, c, i).reshape(shape)
        return _one_by_one(self.subset_rank, i, c, shape)

    def subset_select_many(self, j, c) -> np.ndarray:
        j, c, shape = small_batch(j, c, _SCALAR_SELECTS)
        if shape is None:
            j, c, shape = select_args(j, c, self._containing)
            return _in_key_order(self._select_many, j, c, self._first[c] + j).reshape(shape)
        select_list_args(j, c, self._containing_mv)
        return _one_by_one(self._select, j, c, shape)

    def containing_count(self, c) -> int:
        """Number of sets containing c (the select upper bound)."""
        return self._containing_mv[index_arg(c, 0, self.sigma - 1, "symbol")]

    def _set_containing(self, counts: np.ndarray) -> None:
        """_containing, the sets that contain each symbol, with the memoryview
        that the scalar checks read, and _first, its exclusive prefix sums."""
        self._containing, self._containing_mv = counts, memoryview(counts)
        self._first = np.cumsum(counts) - counts

    def size_bits(self) -> int:
        return sum(self.size_breakdown().values())

    def decompose(self) -> DegenerateString:
        """Read the instance back: set k holds c exactly when k is one of the
        sets containing c, which select lists in ascending order. It is checked
        as every DegenerateString is, so parts that disagree, such as a DSD
        overflow row that repeats its set's kept symbol, raise ValueError."""
        counts = self._containing
        c = np.repeat(np.arange(self.sigma, dtype=np.int64), counts)
        j = np.arange(1, c.size + 1, dtype=np.int64) - np.repeat(self._first, counts)
        sets = self._select_many(j, c)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sets, minlength=self.n), out=offsets[1:])
        # a stable sort by set keeps the members of each set in symbol order
        return DegenerateString(self.sigma, c[np.argsort(sets, kind="stable")], offsets)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(sigma={self.sigma}, n={self.n}, N={self.N}, "
                f"n0={self.n0}, base={self.base_name})")


class _Empties(_SubsetQueries):
    """Reduction iii's empty-set layer: E marks the empty sets, and inner
    answers queries over the nonempty ones. Ranks skip the empties before i;
    selects map inner's answer through the zeros of E. This is the only
    layer that queries E."""

    def __init__(self, E: SparseBitvector, inner):
        if E.zeros_count != inner.n:
            raise ValueError(f"E marks {E.zeros_count} nonempty sets, "
                             f"the structure over them holds {inner.n}")
        self._E = E
        self._inner = inner
        self.sigma = inner.sigma
        self.n = E.length
        self.N = inner.N
        self.n0 = E.ones_count
        self.base_name = inner.base_name
        self.block_words = inner.block_words
        self._set_containing(inner._containing)

    def _rank(self, i: int, c: int) -> int:
        return self._inner._rank(i - self._E._rank(i, 1), c)

    def _select(self, j: int, c: int) -> int:
        return self._E._select(self._inner._select(j, c) + 1, 0)

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._inner._rank_many(i - self._E._rank_many(i, 1), c)

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._E._select_many(self._inner._select_many(j, c) + 1, 0)

    def size_breakdown(self) -> dict:
        return {**self._inner.size_breakdown(), "E": self._E.size_bits()}


class ReductionI(_SubsetQueries):
    """Concatenation + boundary bitvector; requires every set nonempty."""

    structure_name = "reduction-i"
    _sentinels = 0  # symbols of S past the public alphabet

    def __init__(self, sigma: int, S, R: PlainBitvector):
        if S.length != R.length - 1 or not (R._bit(0) and R._bit(R.length - 1)):
            raise ValueError("R must hold one bit per symbol of S plus one, "
                             "set at both ends")
        self.sigma = index_arg(sigma, 1, _MAX_SIGMA, "sigma", ValueError)
        _check_alphabet(S, self.sigma + self._sentinels)
        self._S = S
        self._R = R
        self.n = R.ones_count - 1
        counts = S.symbol_counts()
        self.n0 = int(counts[self.sigma]) if self._sentinels else 0
        self.N = R.length - 1 - self.n0
        self.base_name = S.base_name
        self.block_words = S.block_words
        self._set_containing(counts[:self.sigma])  # each occurrence in S is one set

    def _rank(self, i: int, c: int) -> int:
        return self._S._rank(self._R._select(i + 1, 1), c)  # S up to the start of set i

    def _select(self, j: int, c: int) -> int:
        return self._R._rank(self._S._select(j, c) + 1, 1) - 1

    def _rank_many(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._S._rank_many(self._R._select_many(i + 1, 1), c)

    def _select_many(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self._R._rank_many(self._S._select_many(j, c) + 1, 1) - 1

    def size_breakdown(self) -> dict:
        return {"S": self._S.size_bits(), "R": self._R.size_bits()}


class ReductionII(ReductionI):
    """Sentinel transform: empty sets become singleton {sigma}, then ReductionI."""

    structure_name = "reduction-ii"
    _sentinels = 1


class ReductionIII(_Empties):
    """E over ReductionI of the nonempty sets."""

    structure_name = "reduction-iii"

    def __init__(self, sigma: int, S, R: PlainBitvector, E: SparseBitvector):
        super().__init__(E, ReductionI(sigma, S, R))


def _concat(symbols: np.ndarray, offsets: np.ndarray, sigma: int, base: str,
            block_words: int):
    """S and R over the sets of (symbols, offsets); empty sets leave no trace."""
    S = _build_base(symbols, sigma, base, block_words)
    bits = np.zeros(symbols.size + 1, dtype=np.uint8)
    bits[offsets] = 1
    return S, PlainBitvector(bits)


def build_reduction(x: DegenerateString, variant: str, base: str = "wavelet",
                    block_words: int = 8):
    """Build the requested reduction over x; see the class docstrings."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown reduction variant {variant!r}, expected one of {VARIANTS}")
    # before any work on the symbols, which must hold reduction ii's sentinel sigma
    block_words = _check_base(x.sigma + (variant == "reduction-ii"), base, block_words)
    if variant == "reduction-ii":  # a sentinel sigma in place of every empty set
        empty = x._empty()
        symbols = np.insert(x.symbols.astype(narrow_uint(x.sigma), copy=False),
                            x.offsets[:-1].compress(empty), x.sigma)
        offsets = x.offsets.copy()
        offsets[1:] += np.cumsum(empty)
        return ReductionII(x.sigma, *_concat(symbols, offsets, x.sigma + 1, base, block_words))
    if variant == "reduction-i" and x.n0:
        raise ValueError(f"reduction-i requires no empty sets, instance has {x.n0}")
    S, R = _concat(x.symbols, x.offsets, x.sigma, base, block_words)
    if variant == "reduction-i":
        return ReductionI(x.sigma, S, R)
    return ReductionIII(x.sigma, S, R, SparseBitvector(x.n, np.flatnonzero(x._empty())))
