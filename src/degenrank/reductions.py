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
both end in these constructors. The public queries of _SubsetQueries check
their arguments against the public alphabet once; below them every class
calls only the unchecked kernels of its components. decompose, size_bits
and repr are defined once, on _SubsetQueries, over those kernels.

All queries are 0-indexed with half-open rank prefixes, like the rest of
the package; the worked-example test pins the conversion from the common
1-indexed formulation.
"""

from __future__ import annotations

import numpy as np

from ._bits import index_arg, rank_arg, rank_args, select_arg, select_args
from .bitvector import PlainBitvector, SparseBitvector
from .degenerate import DegenerateString
from .strrank import BitPlaneRank, WaveletTree

BASES = ("wavelet", "bitplane")
VARIANTS = ("reduction-i", "reduction-ii", "reduction-iii")


def _build_base(symbols: np.ndarray, sigma: int, base: str, block_words: int):
    if base == "wavelet":
        return WaveletTree(symbols, max(sigma, 1))
    if base == "bitplane":
        if sigma > BitPlaneRank.SIGMA:
            raise ValueError(
                f"bitplane base supports alphabets up to {BitPlaneRank.SIGMA}, "
                f"needs {sigma}")
        return BitPlaneRank(symbols, block_words=block_words)
    raise ValueError(f"unknown base {base!r}, expected one of {BASES}")


def _check_alphabet(S, sigma: int) -> None:
    """Reject a base string with a symbol >= sigma or a wavelet tree over another alphabet."""
    if ((S.base_name == "wavelet" and S.sigma != max(sigma, 1)) or sigma > S.sigma
            or S.symbol_counts()[:sigma].sum() != S.length):
        raise ValueError(f"base string does not fit the alphabet of size {sigma}")


class _SubsetQueries:
    """Checked subset queries over the kernels _rank, _select, _rank_many and
    _select_many; a subclass sets sigma, n, N, n0, base_name and
    _containing, the number of sets that contain each symbol, and defines
    size_breakdown()."""

    def subset_rank(self, i, c) -> int:
        return self._rank(*rank_arg(i, c, self.n, self.sigma))

    def subset_select(self, j, c) -> int:
        return self._select(*select_arg(j, c, self._containing))

    def subset_rank_many(self, i, c) -> np.ndarray:
        i, c, shape = rank_args(i, c, self.n, self.sigma)
        return self._rank_many(i, c).reshape(shape)

    def subset_select_many(self, j, c) -> np.ndarray:
        j, c, shape = select_args(j, c, self._containing)
        return self._select_many(j, c).reshape(shape)

    def containing_count(self, c) -> int:
        """Number of sets containing c (the select upper bound)."""
        return int(self._containing[index_arg(c, 0, self.sigma - 1, "symbol")])

    def size_bits(self) -> int:
        return sum(self.size_breakdown().values())

    def decompose(self) -> DegenerateString:
        """Read the instance back: set k holds c exactly when k is one of the
        sets containing c, which select lists in ascending order."""
        counts = self._containing
        c = np.repeat(np.arange(self.sigma, dtype=np.int64), counts)
        before = np.repeat(np.cumsum(counts) - counts, counts)  # occurrences of smaller symbols
        j = np.arange(1, c.size + 1, dtype=np.int64) - before
        sets = self._select_many(j, c)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sets, minlength=self.n), out=offsets[1:])
        # a stable sort by set keeps the members of each set in symbol order
        return DegenerateString(self.sigma, c[np.argsort(sets, kind="stable")], offsets,
                                validate=False)

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
        self._containing = inner._containing

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
        _check_alphabet(S, sigma + self._sentinels)
        self.sigma = int(sigma)
        self._S = S
        self._R = R
        self.n = R.ones_count - 1
        counts = S.symbol_counts()
        self.n0 = int(counts[self.sigma]) if self._sentinels else 0
        self.N = R.length - 1 - self.n0
        self.base_name = S.base_name
        self.block_words = S.block_words
        self._containing = counts[:self.sigma]  # each occurrence in S is one set

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


def normalize_variant(variant: str) -> str:
    v = variant.strip().lower()
    aliases = {
        "i": "reduction-i", "1": "reduction-i",
        "ii": "reduction-ii", "2": "reduction-ii",
        "iii": "reduction-iii", "3": "reduction-iii",
    }
    v = aliases.get(v, v)
    if v not in VARIANTS:
        raise ValueError(f"unknown reduction variant {variant!r}")
    return v


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
    v = normalize_variant(variant)
    if v == "reduction-ii":  # a sentinel sigma in place of every empty set
        empty = x.set_sizes() == 0
        symbols = np.insert(x.symbols.astype(np.int64), x.offsets[:-1][empty], x.sigma)
        offsets = x.offsets + np.concatenate([[0], np.cumsum(empty)])
        return ReductionII(x.sigma, *_concat(symbols, offsets, x.sigma + 1, base, block_words))
    if v == "reduction-i" and x.n0:
        raise ValueError(f"reduction-i requires no empty sets, instance has {x.n0}")
    S, R = _concat(x.symbols, x.offsets, x.sigma, base, block_words)
    if v == "reduction-i":
        return ReductionI(x.sigma, S, R)
    return ReductionIII(x.sigma, S, R, SparseBitvector(x.n, np.flatnonzero(x.set_sizes() == 0)))
