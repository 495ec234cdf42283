"""Degenerate strings: sequences of subsets of a small alphabet.

A degenerate string X of length n over alphabet {0..sigma-1} assigns each
position i a set X_i (possibly empty). The flat representation keeps all
set members concatenated in one array plus n+1 offsets, so total size N and
empty-position count n0 are cheap to derive.

Two ASCII text formats are supported. "sets-text" is a header line
``sigma n`` followed by n lines, line k + 2 the ascending members of set
k one space apart (an empty line for the empty set): numbers
``0|[1-9][0-9]*``, LF line ends, the last one optional, and nothing else.
"dna-text" is a single line over ACGT for the common case of an ordinary
string: sigma fixed to 4, every set a singleton, A=0 C=1 G=2 T=3.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._bits import INT64_MAX, index_arg, integers, narrow_uint

DNA_ALPHABET = "ACGT"

# Set-size probabilities [P(|X|=0), .., P(|X|=4)] for the genomic-like
# profile: mostly singletons, a sprinkle of larger sets and empties.
GENOMIC_SIZE_PROBS = (0.01, 0.80, 0.12, 0.05, 0.02)

# generate draws one random key per (set, symbol) in chunks of at most
# _GEN_KEYS keys and _GEN_SETS sets; the stream is the same at any chunk size.
_GEN_KEYS = 1 << 22
_GEN_SETS = 1 << 16


class DegenerateString:
    """Flat storage for a sequence of symbol sets.

    symbols holds the members of every set back to back, ascending inside
    each set; offsets[i]:offsets[i+1] delimits set i. The constructor checks
    all three; generate and the dna-text parser, valid by construction, skip it.
    """

    __slots__ = ("sigma", "symbols", "offsets")

    def __init__(self, sigma: int, symbols, offsets):
        self._store(*_checked(sigma, symbols, offsets))

    @classmethod
    def _trusted(cls, sigma: int, symbols, offsets) -> "DegenerateString":
        """An instance of arrays that are valid by construction, kept unchecked."""
        self = cls.__new__(cls)
        self._store(sigma, symbols, offsets)
        return self

    def _store(self, sigma: int, symbols, offsets) -> None:
        self.sigma = sigma
        self.symbols = np.asarray(symbols, dtype=narrow_uint(sigma - 1))
        self.offsets = np.asarray(offsets, dtype=np.int64)

    @classmethod
    def from_sets(cls, sigma: int, sets) -> "DegenerateString":
        sets = [sorted(s) for s in sets]
        return cls(sigma, [v for s in sets for v in s], np.cumsum([0, *map(len, sets)]))

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
        return int(np.count_nonzero(self._empty()))

    def _empty(self) -> np.ndarray:
        """True at every empty set: one compare of neighbouring offsets, where
        set_sizes() would build an int64 difference of all of them."""
        return self.offsets[1:] == self.offsets[:-1]

    def set_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def set_at(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for length {self.n}")
        return self.symbols[self.offsets[i]:self.offsets[i + 1]].astype(np.int64)

    def sets(self):
        syms, off = self.symbols.tolist(), self.offsets.tolist()
        return (tuple(syms[a:b]) for a, b in zip(off, off[1:]))

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


def _member_array(values) -> np.ndarray:
    """Set members as an array. For a list of ints that mixes values below 2**63
    with values at or above it numpy infers float64; such ints, all in
    [0, 2**64), make a uint64 array. Anything else keeps numpy's dtype, for
    the validation to accept or refuse."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fO" and not isinstance(values, np.ndarray):
        try:
            return np.array([operator.index(v) for v in values], dtype=np.uint64)
        except (TypeError, OverflowError):  # a non-integer, a negative, or 2**64 and past
            pass
    return arr


def _checked(sigma, symbols, offsets, in_file: bool = False):
    """sigma as an int, the members and offsets as integer arrays, or ValueError
    naming the first bad member, its set, and with in_file that set's line."""
    sigma = index_arg(sigma, 1, math.inf, "sigma", ValueError)
    # before the narrowing casts of _store, which wrap 256 to 0 and cut 2.7 to 2
    syms = integers(_member_array(symbols), "set members")
    off = integers(offsets, "offsets")
    if syms.ndim != 1:
        raise ValueError("set members must be one-dimensional")
    if off.ndim != 1 or off.size < 1 or off[0] != 0 or off[-1] != syms.size:
        raise ValueError("offsets must run from 0 to len(symbols)")
    if np.any(off[1:] < off[:-1]):
        raise ValueError("offsets must be nondecreasing")
    off = off.astype(np.int64)  # now known to lie in [0, len(symbols)]

    def member(i):
        k = int(np.searchsorted(off, i, side="right")) - 1
        return f"member {syms[i]} of set {k}" + (f" (sets-text line {k + 2})" if in_file else "")

    if syms.size and (syms.min() < 0 or syms.max() >= sigma):
        i = int(np.argmax((syms < 0) | (syms >= sigma)))
        raise ValueError(f"set members must lie in [0, {sigma}): {member(i)} is outside")
    # ascending inside each set, strict (no duplicate members), compared in
    # the members' own dtype: a cast to int64 wraps 2**63 negative
    inner = np.ones(syms.size, dtype=bool)
    inner[off[:-1][np.diff(off) > 0]] = False
    bad = np.flatnonzero((syms[1:] <= syms[:-1]) & inner[1:]) + 1
    if bad.size:
        raise ValueError(f"each set must list distinct members in ascending order: "
                         f"{member(bad[0])} is a duplicate or descends")
    return sigma, syms, off


# -- text formats --------------------------------------------------------------

FORMATS = ("sets-text", "dna-text")


def parse_degenerate(data, fmt: str = "sets-text") -> DegenerateString:
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if not data.isascii():
        raise _line_error(data, re.search(rb"[\x80-\xff]", data).start(), "input is not ASCII text")
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


def _line_error(data: bytes, pos: int, what: str) -> ValueError:
    """ValueError(what), naming and quoting the line of data that holds byte pos."""
    number = data.count(b"\n", 0, pos) + 1
    line = data[data.rfind(b"\n", 0, pos) + 1:].partition(b"\n")[0]
    return ValueError(f"line {number}: {what} in {line.decode('ascii', 'backslashreplace')!r}")


_NUMBER = re.compile(rb"0|[1-9][0-9]*")


def _number_starts(data: bytes, base: int):
    """Check the set lines, data[base:], which end in LF, against the grammar;
    the positions in them of the numbers' first digits and of the LFs."""
    body = np.frombuffer(data, dtype=np.uint8, offset=base)
    digit = body - np.uint8(48) < 10
    space, lf = body == 32, body == 10
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    bad = ~(digit | space | lf)  # a byte that no sets-text holds
    if not bad.any():
        bad = space.copy()  # a space without a digit on each side
        bad[1:-1] &= ~(digit[:-2] & digit[2:])
        bad[:-1] |= first[:-1] & (body[:-1] == 48) & digit[1:]  # a leading zero
    if bad.any():
        pos = base + int(np.argmax(bad))
        raise _line_error(data, pos, f"bad symbol {chr(data[pos])!r}")
    return np.flatnonzero(first), np.flatnonzero(lf)


def _parse_sets_text(data: bytes) -> DegenerateString:
    if not data.endswith(b"\n"):
        data += b"\n"
    if data == b"\n":
        raise ValueError("sets-text input is empty")
    head = data[:data.index(b"\n")]
    fields = head.split(b" ")
    if len(fields) != 2 or not all(map(_NUMBER.fullmatch, fields)):
        raise ValueError(f"line 1: header must be two integers 'sigma n', got {head.decode()!r}")
    sigma, n = map(int, fields)
    base = len(head) + 1
    starts, ends = _number_starts(data, base)
    if ends.size != n:
        raise ValueError(f"expected {n} set lines, found {ends.size}")
    # the header's two numbers, then the members: text-mode fromstring reads
    # them exactly, except every number from 2**64 up, which it reads as 2**64 - 1
    symbols = np.fromstring(data, dtype=np.uint64, sep=" ")[2:]
    for pos in (base + starts[symbols == 2**64 - 1]).tolist():
        if (number := _NUMBER.match(data, pos).group()) != b"18446744073709551615":
            raise _line_error(data, pos, f"symbol {number.decode()} outside [0, 2**64)")
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.searchsorted(starts, ends)
    return DegenerateString._trusted(*_checked(sigma, symbols, offsets, in_file=True))


def _serialize_sets_text(x: DegenerateString) -> bytes:
    members = x.symbols.tolist()
    if x.sigma <= x.N:  # str() of each symbol once, then a lookup per member
        words = list(map([str(v) for v in range(x.sigma)].__getitem__, members))
    else:
        words = list(map(str, members))
    off = x.offsets.tolist()
    lines = [" ".join(words[a:b]) for a, b in zip(off, off[1:])]
    return "\n".join([f"{x.sigma} {x.n}", *lines, ""]).encode("ascii")


def _parse_dna_text(data: bytes) -> DegenerateString:
    line = data[:-1] if data.endswith(b"\n") else data
    if b"\n" in line:
        raise ValueError("dna-text must be a single line")
    arr = np.frombuffer(line, dtype=np.uint8)
    symbols = np.full(arr.size, -1, dtype=np.int64)
    for v, ch in enumerate(DNA_ALPHABET):
        symbols[arr == ord(ch)] = v
    if np.any(symbols < 0):
        bad = chr(arr[int(np.argmax(symbols < 0))])
        raise ValueError(f"dna-text admits only ACGT, found {bad!r}")
    offsets = np.arange(arr.size + 1, dtype=np.int64)
    return DegenerateString._trusted(4, symbols, offsets)


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
    size_histogram: np.ndarray       # counts of |X_i| = 0 .. min(sigma, N)
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
    hist = np.bincount(sizes, minlength=min(x.sigma, x.N) + 1)  # no set holds more
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
    entropy = 0.0 - float((p * np.log2(p)).sum())  # +0.0, not -0.0, for one distinct set
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
    n = index_arg(n, 0, INT64_MAX, "n", ValueError)
    sigma = index_arg(sigma, 1, math.inf, "sigma", ValueError)
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
    chunk = max(1, min(_GEN_SETS, _GEN_KEYS // sigma))
    for s in range(0, n, chunk):
        sz = sizes[s:s + chunk]
        keys = rng.random((sz.size, sigma))
        ranks = keys.argsort(axis=1).argsort(axis=1)
        picked = ranks < sz[:, None]
        _, members = np.nonzero(picked)
        chunks.append(members)
    symbols = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return DegenerateString._trusted(sigma, symbols, offsets)
