"""On-disk container for built structures.

Layout, all little-endian:

    magic "DGRS" | version u8 (2) | structure tag u8 | base tag u8
    then a sequence of components: sub-tag u8 | payload length u64 | payload

Structure tags: 1 reduction-i, 2 reduction-ii, 3 reduction-iii, 4 dsd.
Base tags: 0 wavelet, 1 bitplane. Component sub-tags: 1 meta (sigma, n, N,
n0, block_words as five u64), 2 plain bitvector (length u64 + packed
words), 3 sparse bitvector (length u64, count u64, positions as u64), 4
wavelet levels (sigma u64, length u64, level words back to back, in
wavelet-matrix order: level k holds bit nbits-1-k of every symbol, stably
partitioned on the bits above it, zeros first), 5 bit planes (length u64,
block_words u64, low words, high words). After the meta block come the
base string, then R and E for a reduction, or E and one overflow vector per
symbol for a DSD; the overflow vectors span the n - n0 nonempty sets, like
its base string. Version 1 kept the wavelet levels in wavelet-tree order,
which differs for sigma > 4, so it is refused.

One codec frames every component: _parts lists them in container order,
_encode writes one and _Reader reads them back. Each reader is bounded, to
the blob or to one payload, so a cut inside a header or a payload is a
ValueError, as is a payload that its decoder does not consume exactly.
dumps joins every header and word array into the blob once. loads copies
each array out of it once: as one aligned copy, or in its constructor. A
DSD's sigma overflow payloads are read into one run array, the form
DsdStructure takes, with one copy.

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
VERSION = 2

_STRUCTS = ("reduction-i", "reduction-ii", "reduction-iii", "dsd")  # tags 1 to 4
_BASES = ("wavelet", "bitplane")  # tags 0 and 1
_COMP_NAMES = {1: "meta", 2: "plain", 3: "sparse", 4: "wavelet", 5: "bitplane"}
_META_FIELDS = ("sigma", "n", "N", "n0", "block_words")


def is_container(blob: bytes) -> bool:
    return blob[:4] == MAGIC


def _meta(st) -> tuple:
    # block_words is None off the bitplane base and stored as 0
    return tuple(getattr(st, f) or 0 for f in _META_FIELDS)


def _parts(st) -> list:
    """The meta block and the components of st, in container order."""
    if st.structure_name == "dsd":
        e, base, overflow = st.components()
        return [_meta(st), base, e, *overflow]
    if st.structure_name == "reduction-iii":
        return [_meta(st), st._inner._S, st._inner._R, st._E]
    return [_meta(st), st._S, st._R]


def _encode(comp) -> list:
    """One component: sub-tag, payload length and header fields packed, then its words."""
    if isinstance(comp, tuple):
        tag, head, arrays = 1, comp, ()
    elif isinstance(comp, PlainBitvector):
        tag, head, arrays = 2, (comp.length,), (comp._words,)
    elif isinstance(comp, SparseBitvector):
        tag, head, arrays = 3, (comp.length, comp.ones_count), (comp._ones,)
    elif isinstance(comp, WaveletTree):
        tag, head, arrays = 4, (comp.sigma, comp.length), [w for _, w in comp.level_payload()]
    else:
        length, bw, low, high = comp.plane_payload()
        tag, head, arrays = 5, (length, bw), (low, high)
    arrays = [np.ascontiguousarray(a, dtype="<u8") for a in arrays]
    size = 8 * len(head) + sum(a.nbytes for a in arrays)
    return [struct.pack(f"<BQ{len(head)}Q", tag, size, *head), *arrays]


def dumps(st) -> bytes:
    """Serialize a built structure (any reduction or DSD) to bytes."""
    name = getattr(st, "structure_name", None)
    if name not in _STRUCTS:
        raise ValueError(f"cannot serialize {type(st).__name__}")
    head = MAGIC + bytes([VERSION, _STRUCTS.index(name) + 1, _BASES.index(st.base_name)])
    return b"".join([head, *(piece for comp in _parts(st) for piece in _encode(comp))])


class _Reader:
    """Reads blob[at:end] front to back."""

    def __init__(self, blob: bytes, at: int, end: int):
        self.blob, self.at, self.end = blob, at, end

    def skip(self, n: int) -> int:
        """Move past n bytes; where they start."""
        if n > self.end - self.at:
            raise ValueError("container truncated")
        self.at += n
        return self.at - n

    def u64s(self, count: int) -> tuple:
        return struct.unpack_from(f"<{count}Q", self.blob, self.skip(8 * count))

    def view(self, count: int) -> np.ndarray:
        return np.frombuffer(self.blob, "<u8", count, self.skip(8 * count))

    def words(self, count: int) -> np.ndarray:
        return self.view(count).astype(np.uint64)  # aligned, and not tied to the blob

    def header(self):
        """The next component's sub-tag, and a reader bounded to its payload."""
        tag, ln = struct.unpack_from("<BQ", self.blob, self.skip(9))
        return tag, _Reader(self.blob, self.skip(ln), self.at)

    def payload(self, tag: int) -> "_Reader":
        """A reader bounded to the next component's payload, which must have this sub-tag."""
        found, r = self.header()
        if found != tag:
            raise ValueError(f"expected component {_COMP_NAMES[tag]!r}, "
                             f"found {_COMP_NAMES.get(found, f'tag{found}')!r}")
        return r

    def done(self, tag: int) -> None:
        if self.at != self.end:
            raise ValueError(f"{_COMP_NAMES[tag]} component has wrong size")

    def component(self, tag: int):
        """Decode the next component, which must have this sub-tag."""
        r = self.payload(tag)
        # constructors are read as module globals: perfbench's traced load times them
        if tag == 1:
            out = r.u64s(5)  # sigma, n, N, n0, block_words
        elif tag == 2:
            (length,) = r.u64s(1)
            out = PlainBitvector.from_words(length, r.words(length // 64 + 1))
        elif tag == 3:
            length, m = r.u64s(2)
            out = SparseBitvector(length, r.view(m))
        elif tag == 4:
            sigma, length = r.u64s(2)
            levels = [r.words(length // 64 + 1) for _ in range((sigma - 1).bit_length())]
            out = WaveletTree.from_level_payload(sigma, length, levels)
        else:
            length, bw = r.u64s(2)
            per_plane = length // 64 + 1
            out = BitPlaneRank.from_planes(length, bw, r.view(per_plane), r.view(per_plane))
        r.done(tag)
        return out

    def runs(self, sigma: int, length: int):
        """The next sigma sparse components, each of this length, as DsdStructure
        takes them: their positions back to back in one copy, as int64, where a
        position past the int64 range turns negative, and the count of each.
        Headers are read one at a time, so a sigma the blob cannot hold ends
        in a truncation."""
        blob, spans, counts = memoryview(self.blob), [], []
        for _ in range(sigma):
            r = self.payload(3)
            declared, m = r.u64s(2)
            if declared != length:
                raise ValueError(f"an overflow vector has length {declared}, not {length}, "
                                 "one bit per nonempty set")
            spans.append(blob[r.skip(8 * m):r.at])
            counts.append(m)
            r.done(3)
        return np.frombuffer(b"".join(spans), "<i8"), counts


def _open(blob: bytes):
    """A reader past the 7-byte header, then its version, structure and base tags."""
    if blob[:4] != MAGIC:
        raise ValueError("not a structure container (bad magic)")
    r = _Reader(blob, 4, len(blob))
    return (r, *struct.unpack_from("<3B", blob, r.skip(3)))


def loads(blob: bytes):
    """Decode a container produced by dumps."""
    r, version, s_tag, b_tag = _open(blob)
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    if not 0 < s_tag <= len(_STRUCTS):
        raise ValueError(f"unknown structure tag {s_tag}")
    if b_tag >= len(_BASES):
        raise ValueError(f"unknown base tag {b_tag}")
    name = _STRUCTS[s_tag - 1]
    meta = r.component(1)
    sigma = meta[0]
    base = r.component(4 + b_tag)  # sub-tag 4 wavelet, 5 bitplane
    if name == "dsd":
        st = DsdStructure(r.component(3), base, *r.runs(sigma, base.length))
    elif name == "reduction-iii":
        st = ReductionIII(sigma, base, r.component(2), r.component(3))
    else:
        st = (ReductionI if name == "reduction-i" else ReductionII)(sigma, base, r.component(2))
    if r.at != r.end:
        raise ValueError(f"{r.end - r.at} trailing bytes in container")
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
    """(name, payload_offset, payload_length) for each component, in order;
    a header or payload that runs past the end of blob is a ValueError."""
    r = _open(blob)[0]
    out = []
    while r.at < r.end:
        tag, body = r.header()
        out.append((_COMP_NAMES.get(tag, f"tag{tag}"), body.at, body.end - body.at))
    return out
