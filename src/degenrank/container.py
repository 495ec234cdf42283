"""On-disk container for built structures.

Layout, all little-endian:

    magic "DGRS" | version u8 | structure tag u8 | base tag u8
    then a sequence of components: sub-tag u8 | payload length u64 | payload

Structure tags: 1 reduction-i, 2 reduction-ii, 3 reduction-iii, 4 dsd.
Base tags: 0 wavelet, 1 bitplane. Component sub-tags: 1 meta (sigma, n, N,
n0, block_words as five u64), 2 plain bitvector (length u64 + packed
words), 3 sparse bitvector (length u64, count u64, positions as u64), 4
wavelet levels (sigma u64, length u64, level words back to back), 5 bit
planes (length u64, block_words u64, low words, high words).

Only payloads are stored; rank/select support structures are rebuilt on
load, which keeps the format small and makes every loaded structure
self-consistent. Padding bits beyond a declared length must be zero.
Loading builds the structure with the constructors the builders use,
which reject components that do not fit together, and then rejects a
meta block that differs from what the components give.
"""

from __future__ import annotations

import struct

import numpy as np

from .bitvector import PlainBitvector, SparseBitvector
from .dsd import DsdStructure
from .reductions import ReductionI, ReductionII, ReductionIII
from .strrank import BitPlaneRank, WaveletTree

MAGIC = b"DGRS"
VERSION = 1

_STRUCT_TAGS = {"reduction-i": 1, "reduction-ii": 2, "reduction-iii": 3, "dsd": 4}
_BASE_TAGS = {"wavelet": 0, "bitplane": 1}
_COMP_NAMES = {1: "meta", 2: "plain", 3: "sparse", 4: "wavelet", 5: "bitplane"}


def is_container(blob: bytes) -> bool:
    return blob[:4] == MAGIC


def _u64(*vals) -> bytes:
    return struct.pack("<" + "Q" * len(vals), *(int(v) for v in vals))


def _words_bytes(words: np.ndarray) -> bytes:
    return np.ascontiguousarray(words, dtype="<u8").tobytes()


def _comp(tag: int, payload: bytes) -> bytes:
    return struct.pack("<BQ", tag, len(payload)) + payload


_META_FIELDS = ("sigma", "n", "N", "n0", "block_words")


def _meta(st) -> tuple:
    # block_words is None off the bitplane base and stored as 0
    return tuple(getattr(st, f) or 0 for f in _META_FIELDS)


def _plain_comp(bv: PlainBitvector) -> bytes:
    return _comp(2, _u64(bv.length) + _words_bytes(bv._words))


def _sparse_comp(sv: SparseBitvector) -> bytes:
    pos = sv.positions()
    return _comp(3, _u64(sv.length, pos.size) + _words_bytes(pos.astype(np.uint64)))


def _base_comp(base) -> bytes:
    if base.base_name == "wavelet":
        payload = _u64(base.sigma, base.length)
        payload += b"".join(_words_bytes(w) for (_, w) in base.level_payload())
        return _comp(4, payload)
    length, bw, low, high = base.plane_payload()
    return _comp(5, _u64(length, bw) + _words_bytes(low) + _words_bytes(high))


def dumps(st) -> bytes:
    """Serialize a built structure (any reduction or DSD) to bytes."""
    name = getattr(st, "structure_name", None)
    if name not in _STRUCT_TAGS:
        raise ValueError(f"cannot serialize {type(st).__name__}")
    head = MAGIC + struct.pack("<BBB", VERSION, _STRUCT_TAGS[name],
                               _BASE_TAGS[st.base_name])
    parts = [head, _comp(1, _u64(*_meta(st)))]
    if name == "dsd":
        e, base, overflow = st.components()
        parts.append(_base_comp(base))
        parts.append(_sparse_comp(e))
        parts.extend(_sparse_comp(ov) for ov in overflow)
    elif name == "reduction-iii":
        parts.append(_base_comp(st._inner._S))
        parts.append(_plain_comp(st._inner._R))
        parts.append(_sparse_comp(st._E))
    else:
        parts.append(_base_comp(st._S))
        parts.append(_plain_comp(st._R))
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, offset: int):
        self.blob = blob
        self.at = offset

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.blob):
            raise ValueError("container truncated")
        out = self.blob[self.at:self.at + n]
        self.at += n
        return out

    def u64s(self, count: int):
        vals = struct.unpack("<" + "Q" * count, self.take(8 * count))
        return vals if count > 1 else vals[0]

    def words(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)

    def component(self, want_tag: int):
        tag, ln = struct.unpack("<BQ", self.take(9))
        name = _COMP_NAMES.get(tag, f"tag{tag}")
        if tag != want_tag:
            raise ValueError(
                f"expected component {_COMP_NAMES[want_tag]!r}, found {name!r}")
        end = self.at + ln
        if end > len(self.blob):
            raise ValueError("container truncated")
        return end

    def done(self) -> None:
        if self.at != len(self.blob):
            raise ValueError(f"{len(self.blob) - self.at} trailing bytes in container")


def _read_meta(r: _Reader):
    end = r.component(1)
    vals = r.u64s(5)
    if r.at != end:
        raise ValueError("meta component has wrong size")
    return vals  # sigma, n, N, n0, block_words


def _read_plain(r: _Reader) -> PlainBitvector:
    end = r.component(2)
    length = r.u64s(1)
    bv = PlainBitvector.from_words(length, r.words(length // 64 + 1))
    if r.at != end:
        raise ValueError("plain bitvector component has wrong size")
    return bv


def _read_sparse(r: _Reader) -> SparseBitvector:
    end = r.component(3)
    length, m = r.u64s(2)
    sv = SparseBitvector(length, r.words(m).astype(np.int64))
    if r.at != end:
        raise ValueError("sparse bitvector component has wrong size")
    return sv


def _read_base(r: _Reader, base_name: str):
    if base_name == "wavelet":
        end = r.component(4)
        sigma, length = r.u64s(2)
        nbits = (int(sigma) - 1).bit_length()
        per_level = length // 64 + 1
        levels = [r.words(per_level) for _ in range(nbits)]
        if r.at != end:
            raise ValueError("wavelet component has wrong size")
        return WaveletTree.from_level_payload(int(sigma), int(length), levels)
    end = r.component(5)
    length, bw = r.u64s(2)
    per_plane = length // 64 + 1
    low = r.words(per_plane)
    high = r.words(per_plane)
    if r.at != end:
        raise ValueError("bitplane component has wrong size")
    return BitPlaneRank.from_planes(int(length), int(bw), low, high)


def loads(blob: bytes):
    """Decode a container produced by dumps."""
    if blob[:4] != MAGIC:
        raise ValueError("not a structure container (bad magic)")
    version, s_tag, b_tag = struct.unpack("<BBB", blob[4:7])
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    s_names = {v: k for k, v in _STRUCT_TAGS.items()}
    b_names = {v: k for k, v in _BASE_TAGS.items()}
    if s_tag not in s_names:
        raise ValueError(f"unknown structure tag {s_tag}")
    if b_tag not in b_names:
        raise ValueError(f"unknown base tag {b_tag}")
    name = s_names[s_tag]
    base_name = b_names[b_tag]
    r = _Reader(blob, 7)
    meta = _read_meta(r)
    sigma = meta[0]
    if name == "dsd":
        base = _read_base(r, base_name)
        e = _read_sparse(r)
        st = DsdStructure(e, base, [_read_sparse(r) for _ in range(sigma)])
    elif name == "reduction-iii":
        st = ReductionIII(sigma, _read_base(r, base_name), _read_plain(r), _read_sparse(r))
    else:
        cls = ReductionI if name == "reduction-i" else ReductionII
        st = cls(sigma, _read_base(r, base_name), _read_plain(r))
    r.done()
    wrong = [f"{f} {a} (components give {b})"
             for f, a, b in zip(_META_FIELDS, meta, _meta(st)) if a != b]
    if wrong:
        raise ValueError("meta block does not match the components: " + ", ".join(wrong))
    return st


def save(st, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps(st))


def load(path):
    with open(path, "rb") as fh:
        return loads(fh.read())


def scan_components(blob: bytes):
    """(name, payload_offset, payload_length) for each component, in order."""
    if blob[:4] != MAGIC:
        raise ValueError("not a structure container (bad magic)")
    out = []
    at = 7
    while at < len(blob):
        tag, ln = struct.unpack("<BQ", blob[at:at + 9])
        out.append((_COMP_NAMES.get(tag, f"tag{tag}"), at + 9, ln))
        at += 9 + ln
    return out
