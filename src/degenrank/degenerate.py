"""Degenerate strings: sequences of subsets of a small alphabet.

A degenerate string X of length n over alphabet {0..sigma-1} assigns each
position i a set X_i (possibly empty). The flat representation keeps all
set members concatenated in one array plus n+1 offsets, so total size N and
empty-position count n0 are cheap to derive.

Two text formats are supported. "sets-text" is a header line ``sigma n``
followed by n lines, each the ascending members of one set separated by
single spaces (an empty line for the empty set), LF line endings.
"dna-text" is a single line over ACGT for the common case of an ordinary
string: sigma fixed to 4, every set a singleton, A=0 C=1 G=2 T=3.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

DNA_ALPHABET = "ACGT"

# Set-size probabilities [P(|X|=0), .., P(|X|=4)] for the genomic-like
# profile: mostly singletons, a sprinkle of larger sets and empties.
GENOMIC_SIZE_PROBS = (0.01, 0.80, 0.12, 0.05, 0.02)

_GEN_CHUNK = 1 << 16


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr


def _min_uint(sigma: int):
    if sigma <= 1 << 8:
        return np.uint8
    if sigma <= 1 << 16:
        return np.uint16
    return np.uint32


class DegenerateString:
    """Flat storage for a sequence of symbol sets.

    symbols holds the members of every set back to back, ascending inside
    each set; offsets[i]:offsets[i+1] delimits set i.
    """

    __slots__ = ("sigma", "symbols", "offsets")

    def __init__(self, sigma: int, symbols, offsets, *, validate: bool = True):
        self.sigma = int(sigma)
        if validate:
            # before the narrowing casts below, which wrap 256 to 0 and cut 2.7 to 2
            symbols = _integers(symbols, "set members")
            offsets = _integers(offsets, "offsets")
            self._validate(symbols, offsets)
        self.symbols = np.asarray(symbols, dtype=_min_uint(self.sigma))
        self.offsets = np.asarray(offsets, dtype=np.int64)

    def _validate(self, syms: np.ndarray, off: np.ndarray) -> None:
        if self.sigma < 1:
            raise ValueError("sigma must be at least 1")
        if syms.ndim != 1:
            raise ValueError("set members must be one-dimensional")
        if off.ndim != 1 or off.size < 1 or off[0] != 0 or off[-1] != syms.size:
            raise ValueError("offsets must run from 0 to len(symbols)")
        if np.any(off[1:] < off[:-1]):
            raise ValueError("offsets must be nondecreasing")
        off = off.astype(np.int64)  # now known to lie in [0, len(symbols)]
        if syms.size and (syms.min() < 0 or syms.max() >= self.sigma):
            raise ValueError(f"set members must lie in [0, {self.sigma})")
        if syms.size:
            # ascending inside each set, strict (no duplicate members)
            syms = syms.astype(np.int64)
            inner = np.ones(syms.size, dtype=bool)
            inner[off[:-1][np.diff(off) > 0]] = False
            if np.any(np.diff(syms)[inner[1:]] <= 0):
                raise ValueError("each set must list distinct members in ascending order")

    @classmethod
    def from_sets(cls, sigma: int, sets) -> "DegenerateString":
        flat = []
        offsets = [0]
        for s in sets:
            members = sorted(s)
            if len(set(members)) != len(members):
                raise ValueError(f"duplicate member in set {len(offsets) - 1}")
            flat.extend(members)
            offsets.append(len(flat))
        return cls(sigma, flat, offsets)

    # -- derived quantities ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of positions (sets)."""
        return self.offsets.size - 1

    @property
    def N(self) -> int:
        """Total number of set members."""
        return int(self.symbols.size)

    @property
    def n0(self) -> int:
        """Number of empty sets."""
        return int((np.diff(self.offsets) == 0).sum())

    def set_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def set_at(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for length {self.n}")
        return self.symbols[self.offsets[i]:self.offsets[i + 1]].astype(np.int64)

    def sets(self):
        off = self.offsets
        syms = self.symbols
        for i in range(self.n):
            yield tuple(int(v) for v in syms[off[i]:off[i + 1]])

    def element_rows(self) -> np.ndarray:
        """Set index of every flat member, length N."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.set_sizes())

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegenerateString):
            return NotImplemented
        return (self.sigma == other.sigma
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.symbols, other.symbols))

    def __repr__(self) -> str:
        return f"DegenerateString(sigma={self.sigma}, n={self.n}, N={self.N}, n0={self.n0})"


# -- text formats --------------------------------------------------------------

FORMATS = ("sets-text", "dna-text")


def parse_degenerate(data, fmt: str = "sets-text") -> DegenerateString:
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise ValueError(f"input is not ASCII text: {e}") from None
    if fmt == "sets-text":
        return _parse_sets_text(data)
    if fmt == "dna-text":
        return _parse_dna_text(data)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def serialize_degenerate(x: DegenerateString, fmt: str = "sets-text") -> bytes:
    if fmt == "sets-text":
        return _serialize_sets_text(x)
    if fmt == "dna-text":
        return _serialize_dna_text(x)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def _parse_sets_text(text: str) -> DegenerateString:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("sets-text input is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'sigma n', got {lines[0]!r}")
    try:
        sigma, n = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header must be two integers, got {lines[0]!r}") from None
    if sigma < 1 or n < 0:
        raise ValueError(f"header values out of range: sigma={sigma}, n={n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} set lines, found {len(lines) - 1}")
    flat = []
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        prev = None
        if line:
            for tok in line.split(" "):
                try:
                    v = int(tok)
                except ValueError:
                    raise ValueError(f"line {i + 2}: bad symbol {tok!r}") from None
                if not 0 <= v < sigma:
                    raise ValueError(f"line {i + 2}: symbol {v} outside [0, {sigma})")
                if prev is not None and v <= prev:
                    raise ValueError(f"line {i + 2}: members must be ascending and distinct")
                flat.append(v)
                prev = v
        offsets[i + 1] = len(flat)
    symbols = np.array(flat, dtype=np.int64) if flat else np.zeros(0, dtype=np.int64)
    return DegenerateString(sigma, symbols, offsets, validate=False)


def _serialize_sets_text(x: DegenerateString) -> bytes:
    out = [f"{x.sigma} {x.n}"]
    off = x.offsets
    syms = x.symbols
    for i in range(x.n):
        out.append(" ".join(str(int(v)) for v in syms[off[i]:off[i + 1]]))
    return ("\n".join(out) + "\n").encode("ascii")


def _parse_dna_text(text: str) -> DegenerateString:
    line = text[:-1] if text.endswith("\n") else text
    if "\n" in line:
        raise ValueError("dna-text must be a single line")
    arr = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    symbols = np.full(arr.size, -1, dtype=np.int64)
    for v, ch in enumerate(DNA_ALPHABET):
        symbols[arr == ord(ch)] = v
    if np.any(symbols < 0):
        bad = chr(arr[int(np.argmax(symbols < 0))])
        raise ValueError(f"dna-text admits only ACGT, found {bad!r}")
    offsets = np.arange(arr.size + 1, dtype=np.int64)
    return DegenerateString(4, symbols, offsets, validate=False)


def _serialize_dna_text(x: DegenerateString) -> bytes:
    if x.sigma != 4:
        raise ValueError(f"dna-text requires sigma 4, got {x.sigma}")
    if np.any(x.set_sizes() != 1):
        raise ValueError("dna-text requires every set to be a singleton")
    letters = np.frombuffer(DNA_ALPHABET.encode("ascii"), dtype=np.uint8)
    return letters[x.symbols.astype(np.int64)].tobytes() + b"\n"


# -- statistics ------------------------------------------------------------------


@dataclass
class DegenStats:
    sigma: int
    n: int
    N: int
    n0: int
    size_histogram: np.ndarray       # counts of |X_i| = 0 .. sigma
    distinct_sets: int
    set_entropy_bits: float          # empirical entropy of the set distribution

    def lines(self):
        hist = " ".join(str(int(v)) for v in self.size_histogram)
        return [
            f"sigma {self.sigma}",
            f"n {self.n}",
            f"N {self.N}",
            f"n0 {self.n0}",
            f"size-histogram {hist}",
            f"distinct-sets {self.distinct_sets}",
            f"set-entropy-bits {self.set_entropy_bits:.4f}",
        ]


def stats(x: DegenerateString) -> DegenStats:
    sizes = x.set_sizes()
    hist = np.bincount(sizes, minlength=x.sigma + 1)
    if x.n == 0:
        return DegenStats(x.sigma, 0, 0, 0, hist, 0, 0.0)
    if x.sigma <= 64:
        masks = np.zeros(x.n, dtype=np.uint64)
        np.bitwise_or.at(masks, x.element_rows(),
                         np.uint64(1) << x.symbols.astype(np.uint64))
        _, freq = np.unique(masks, return_counts=True)
    else:
        counter = Counter(x.sets())
        freq = np.array(list(counter.values()), dtype=np.int64)
    p = freq / x.n
    entropy = float(-(p * np.log2(p)).sum())
    return DegenStats(x.sigma, x.n, x.N, x.n0, hist, int(freq.size), entropy)


# -- random generation -------------------------------------------------------------

PROFILES = ("uniform", "genomic-like")


def generate(seed: int, n: int, sigma: int, profile: str = "uniform",
             size_probs=None) -> DegenerateString:
    """Draw a random degenerate string with the given set-size profile.

    Set sizes are i.i.d. from size_probs (index = |X_i|); members are a
    uniform random subset of that size. "uniform" defaults to equal weight
    on sizes 0..sigma. "genomic-like" fixes sigma=4 and uses
    GENOMIC_SIZE_PROBS. Deterministic for a given (seed, n, sigma, probs).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if sigma < 1:
        raise ValueError("sigma must be at least 1")
    if profile == "genomic-like":
        if sigma != 4:
            raise ValueError("genomic-like profile requires sigma 4")
        if size_probs is not None:
            raise ValueError("genomic-like profile fixes its own size distribution")
        probs = np.array(GENOMIC_SIZE_PROBS)
    elif profile == "uniform":
        if size_probs is None:
            probs = np.full(sigma + 1, 1.0 / (sigma + 1))
        else:
            probs = np.asarray(size_probs, dtype=np.float64)
            if probs.shape != (sigma + 1,):
                raise ValueError(f"size_probs must have length sigma+1 = {sigma + 1}")
            if np.any(probs < 0) or probs.sum() <= 0:
                raise ValueError("size_probs must be nonnegative and sum to a positive value")
            probs = probs / probs.sum()
    else:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")

    rng = np.random.default_rng(seed)
    sizes = rng.choice(sigma + 1, size=n, p=probs).astype(np.int64)
    chunks = []
    for s in range(0, n, _GEN_CHUNK):
        sz = sizes[s:s + _GEN_CHUNK]
        keys = rng.random((sz.size, sigma))
        ranks = keys.argsort(axis=1).argsort(axis=1)
        picked = ranks < sz[:, None]
        _, members = np.nonzero(picked)
        chunks.append(members)
    symbols = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return DegenerateString(sigma, symbols, offsets, validate=False)
