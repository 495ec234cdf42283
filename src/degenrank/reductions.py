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

Each class is built from its components, S and R (and E for ReductionIII),
and derives n, N and n0 from them; build_reduction and container.loads
both end in these constructors.

All queries are 0-indexed with half-open rank prefixes, like the rest of
the package; the worked-example test pins the conversion from the common
1-indexed formulation.
"""

from __future__ import annotations

import numpy as np

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
            or sum(S.symbol_count(c) for c in range(sigma)) != S.length):
        raise ValueError(f"base string does not fit the alphabet of size {sigma}")


class ReductionI:
    """Concatenation + boundary bitvector; requires every set nonempty."""

    structure_name = "reduction-i"
    _sentinels = 0  # symbols of S past the public alphabet

    def __init__(self, sigma: int, S, R: PlainBitvector):
        if S.length != R.length - 1 or not (R.bit(0) and R.bit(R.length - 1)):
            raise ValueError("R must hold one bit per symbol of S plus one, "
                             "set at both ends")
        _check_alphabet(S, sigma + self._sentinels)
        self.sigma = int(sigma)
        self._S = S
        self._R = R
        self.n = R.ones_count - 1
        self.n0 = S.symbol_count(self.sigma) if self._sentinels else 0
        self.N = R.length - 1 - self.n0
        self.base_name = S.base_name
        self.block_words = S.block_words

    def _check(self, c: int) -> None:
        if not 0 <= c < self.sigma:
            raise IndexError(f"symbol {c} out of range for sigma {self.sigma}")

    def subset_rank(self, i: int, c: int) -> int:
        self._check(c)
        if not 0 <= i <= self.n:
            raise IndexError(f"prefix {i} out of range for length {self.n}")
        k = self._R.select(i + 1, 1)  # start of set i in S
        return self._S.rank(k, c)

    def subset_select(self, j: int, c: int) -> int:
        self._check(c)
        k = self._S.select(j, c)
        return self._R.rank(k + 1, 1) - 1

    def subset_rank_many(self, i, c) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.n):
            raise IndexError("prefix out of range")
        k = self._R.select_many(i + 1, 1)
        return self._S.rank_many(k, c)

    def subset_select_many(self, j, c) -> np.ndarray:
        j = np.asarray(j, dtype=np.int64)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        k = self._S.select_many(j, c)
        return self._R.rank_many(k + 1, 1) - 1

    def containing_count(self, c: int) -> int:
        """Number of sets containing c (the select upper bound)."""
        return self.subset_rank(self.n, c)

    def size_breakdown(self) -> dict:
        return {"S": self._S.size_bits(), "R": self._R.size_bits()}

    def size_bits(self) -> int:
        return sum(self.size_breakdown().values())

    def _decompose_raw(self):
        """Rebuild (symbols, offsets) of the instance S and R were built on."""
        n_sets = self._R.ones_count - 1
        starts = self._R.select_many(np.arange(1, n_sets + 2, dtype=np.int64), 1)
        syms = np.zeros(self._R.length - 1, dtype=np.int64)
        for c in range(self._S.sigma):
            total = self._S.symbol_count(c)
            if total:
                js = np.arange(1, total + 1, dtype=np.int64)
                syms[self._S.select_many(js, c)] = c
        return syms, starts

    def decompose(self) -> DegenerateString:
        """Reconstruct the original instance from S and R."""
        syms, starts = self._decompose_raw()
        return DegenerateString(self.sigma, syms, starts, validate=False)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(sigma={self.sigma}, n={self.n}, "
                f"N={self.N}, base={self.base_name})")


class ReductionII(ReductionI):
    """Sentinel transform: empty sets become singleton {sigma}, then ReductionI."""

    structure_name = "reduction-ii"
    _sentinels = 1

    def decompose(self) -> DegenerateString:
        syms, starts = self._decompose_raw()
        real = syms != self.sigma  # drop the sentinel singletons
        sizes = np.diff(starts)
        set_of = np.repeat(np.arange(self.n, dtype=np.int64), sizes)
        counts = np.zeros(self.n, dtype=np.int64)
        np.add.at(counts, set_of[real], 1)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return DegenerateString(self.sigma, syms[real], offsets, validate=False)


class ReductionIII:
    """Empty-position bitvector + ReductionI over the nonempty subsequence."""

    structure_name = "reduction-iii"

    def __init__(self, sigma: int, S, R: PlainBitvector, E: SparseBitvector):
        inner = ReductionI(sigma, S, R)
        if E.zeros_count != inner.n:
            raise ValueError(f"E marks {E.zeros_count} nonempty sets, S and R hold {inner.n}")
        self._E = E
        self._inner = inner
        self.sigma = inner.sigma
        self.n = E.length
        self.N = inner.N
        self.n0 = E.ones_count
        self.base_name = inner.base_name
        self.block_words = inner.block_words

    def subset_rank(self, i: int, c: int) -> int:
        if not 0 <= i <= self.n:
            raise IndexError(f"prefix {i} out of range for length {self.n}")
        k = i - self._E.rank(i, 1)
        return self._inner.subset_rank(k, c)

    def subset_select(self, j: int, c: int) -> int:
        k = self._inner.subset_select(j, c)
        return self._E.select(k + 1, 0)

    def subset_rank_many(self, i, c) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        if i.size and (i.min() < 0 or i.max() > self.n):
            raise IndexError("prefix out of range")
        k = i - self._E.rank_many(i, 1)
        return self._inner.subset_rank_many(k, c)

    def subset_select_many(self, j, c) -> np.ndarray:
        j = np.asarray(j, dtype=np.int64)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        k = self._inner.subset_select_many(j, c)
        return self._E.select_many(k + 1, 0)

    def containing_count(self, c: int) -> int:
        return self._inner.subset_rank(self._inner.n, c)

    def size_breakdown(self) -> dict:
        inner = self._inner.size_breakdown()
        return {"S": inner["S"], "R": inner["R"], "E": self._E.size_bits()}

    def size_bits(self) -> int:
        return sum(self.size_breakdown().values())

    def decompose(self) -> DegenerateString:
        packed = self._inner.decompose()
        mask = np.ones(self.n, dtype=bool)
        mask[self._E.positions()] = False
        sizes = np.zeros(self.n, dtype=np.int64)
        sizes[mask] = np.diff(packed.offsets)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return DegenerateString(self.sigma, packed.symbols, offsets, validate=False)

    def __repr__(self) -> str:
        return (f"ReductionIII(sigma={self.sigma}, n={self.n}, N={self.N}, "
                f"n0={self.n0}, base={self.base_name})")


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
