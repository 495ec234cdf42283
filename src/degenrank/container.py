"""On-disk container for built structures.

Layout, all little-endian:

    magic "DGRS" | version u8 (4) | structure tag u8 | base tag u8
    then components: sub-tag u8 | payload length u64 | CRC32 u32 | payload

Structure tags: 1 reduction-i, 2 reduction-ii, 3 reduction-iii, 4 dsd.
Base tags: 0 wavelet, 1 bitplane. A component holds the arguments of the
constructor that loads it, once, in the dtype the structure keeps them in.
Sub-tags: 2 plain bitvector (length u64, packed words), 3 sparse bitvector
(length u64, then positions in narrow_uint(length) to the end of the
payload), 4 wavelet levels (sigma u64, length u64, level words back to
back, in wavelet-matrix order: level k holds bit nbits-1-k of every
symbol, stably partitioned on the bits above it, zeros first), 5 bit
planes (sigma u64, length u64, block_words u64, low words, high words), 6
DSD overflow (the base's sigma run lengths as u64, then the rows of every
run in narrow_uint(n - n0)). The base string comes first, then R and E
for a reduction, or E and the overflow for a DSD. sigma, n, N and n0
follow from the components.

A component's CRC32 (zlib) covers its sub-tag, length and payload, and is
checked before the payload is decoded, so a flipped bit is a ValueError
that names the component. Versions 1 to 3 are refused: version 1 kept
the wavelet levels in wavelet-tree order; version 2 had no CRC and one
overflow vector per symbol; version 3 led with a meta block (sub-tag 1)
that held sigma, which its bit planes lacked, and a count in each sparse
header.

One codec frames every component: _parts lists them in container order,
_encode writes one and _Reader reads them back. Each reader is bounded, to
the blob or to one payload, so a cut inside a header or a payload is a
ValueError, as is a payload that its decoder does not consume exactly.
dumps joins every header and array into the blob once. loads copies each
array out of it once: as one aligned copy, or in its constructor. Only
payloads are stored; rank/select support structures are rebuilt on load,
which keeps the format small and makes every loaded structure
self-consistent. Padding bits beyond a declared length must be zero.
Loading builds the structure with the constructors the builders use,
which reject components that do not fit together.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ._bits import narrow_uint
from .bitvector import PlainBitvector, SparseBitvector
from .dsd import DsdStructure
from .reductions import ReductionI, ReductionII, ReductionIII
from .strrank import BitPlaneRank, WaveletTree

MAGIC = b"DGRS"
VERSION = 4

_STRUCTS = ("reduction-i", "reduction-ii", "reduction-iii", "dsd")  # tags 1 to 4
_BASES = ("wavelet", "bitplane")  # tags 0 and 1
_COMP_NAMES = {2: "plain", 3: "sparse", 4: "wavelet", 5: "bitplane", 6: "overflow"}
_FRAME = struct.Struct("<BQI")  # sub-tag, payload length, CRC32


def is_container(blob: bytes) -> bool:
    return blob[:4] == MAGIC


def _fields(comp) -> tuple:
    """The sub-tag, header fields and arrays of one bitvector or base string."""
    if isinstance(comp, PlainBitvector):
        return 2, (comp.length,), (comp._words,)
    if isinstance(comp, SparseBitvector):
        return 3, (comp.length,), (comp._ones,)
    if isinstance(comp, WaveletTree):
        *head, levels = comp.level_payload()
        return 4, head, levels
    *head, low, high = comp.plane_payload()
    return 5, head, (low, high)


def _parts(st) -> list:
    """(sub-tag, header fields, arrays) of each component of st, in container order."""
    if st.structure_name == "dsd":
        inner = st._inner
        counts = np.diff(inner._bounds).view(np.uint64)
        return [_fields(inner._base), _fields(st._E), (6, (), (counts, inner._rows))]
    if st.structure_name == "reduction-iii":
        return list(map(_fields, (st._inner._S, st._inner._R, st._E)))
    return [_fields(st._S), _fields(st._R)]


def _encode(tag: int, head: tuple, arrays) -> list:
    """One component: its frame, then its header fields and arrays, each array
    in its own dtype, little-endian."""
    arrays = [np.ascontiguousarray(a, a.dtype.newbyteorder("<")) for a in arrays]
    fields = struct.pack(f"<{len(head)}Q", *head)
    frame = struct.pack("<BQ", tag, len(fields) + sum(a.nbytes for a in arrays))
    crc = zlib.crc32(fields, zlib.crc32(frame))
    for a in arrays:
        crc = zlib.crc32(a, crc)
    return [frame, struct.pack("<I", crc), fields, *arrays]


def dumps(st) -> bytes:
    """Serialize a built structure (any reduction or DSD) to bytes."""
    name = getattr(st, "structure_name", None)
    if name not in _STRUCTS:
        raise ValueError(f"cannot serialize {type(st).__name__}")
    head = MAGIC + bytes([VERSION, _STRUCTS.index(name) + 1, _BASES.index(st.base_name)])
    return b"".join([head, *(piece for part in _parts(st) for piece in _encode(*part))])


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

    def view(self, count: int, dtype=np.uint64) -> np.ndarray:
        dtype = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self.blob, dtype, count, self.skip(count * dtype.itemsize))

    def rest(self, dtype) -> np.ndarray:
        """The whole items of dtype left in the payload; done() refuses a part item."""
        return self.view((self.end - self.at) // np.dtype(dtype).itemsize, dtype)

    def words(self, count: int) -> np.ndarray:
        return self.view(count).astype(np.uint64)  # aligned, and not tied to the blob

    def header(self):
        """The next component's sub-tag and CRC, and a reader bounded to its payload."""
        tag, ln, crc = _FRAME.unpack_from(self.blob, self.skip(_FRAME.size))
        return tag, crc, _Reader(self.blob, self.skip(ln), self.at)

    def payload(self, tag: int) -> "_Reader":
        """A reader bounded to the next component's payload, which must pass
        its CRC and have this sub-tag."""
        found, crc, r = self.header()
        name = _COMP_NAMES.get(found, f"tag{found}")
        blob = memoryview(self.blob)
        if zlib.crc32(blob[r.at:r.end], zlib.crc32(blob[r.at - _FRAME.size:r.at - 4])) != crc:
            raise ValueError(f"{name} component fails its CRC")
        if found != tag:
            raise ValueError(f"expected component {_COMP_NAMES[tag]!r}, found {name!r}")
        return r

    def done(self, tag: int) -> None:
        if self.at != self.end:
            raise ValueError(f"{_COMP_NAMES[tag]} component has wrong size")

    def component(self, tag: int):
        """Decode the next component, which must have this sub-tag."""
        r = self.payload(tag)
        # constructors are read as module globals: perfbench's traced load times them
        if tag == 2:
            (length,) = r.u64s(1)
            out = PlainBitvector.from_words(length, r.words(length // 64 + 1))
        elif tag == 3:
            (length,) = r.u64s(1)
            out = SparseBitvector(length, r.rest(narrow_uint(length)))
        elif tag == 4:
            sigma, length = r.u64s(2)
            levels = [r.words(length // 64 + 1) for _ in range((sigma - 1).bit_length())]
            out = WaveletTree.from_level_payload(sigma, length, levels)
        else:
            sigma, length, bw = r.u64s(3)
            per_plane = length // 64 + 1
            out = BitPlaneRank.from_planes(sigma, length, bw, r.view(per_plane), r.view(per_plane))
        r.done(tag)
        return out

    def overflow(self, sigma: int, length: int) -> tuple:
        """A DSD's overflow rows and sigma run lengths, over length nonempty sets."""
        r = self.payload(6)
        counts = r.view(sigma)
        rows = r.rest(narrow_uint(length))
        r.done(6)
        return rows, counts


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
        raise ValueError(f"unsupported container version {version}, expected {VERSION}")
    if not 0 < s_tag <= len(_STRUCTS):
        raise ValueError(f"unknown structure tag {s_tag}")
    if b_tag >= len(_BASES):
        raise ValueError(f"unknown base tag {b_tag}")
    name = _STRUCTS[s_tag - 1]
    base = r.component(4 + b_tag)  # sub-tag 4 wavelet, 5 bitplane
    if name == "dsd":
        st = DsdStructure(r.component(3), base, *r.overflow(base.sigma, base.length))
    elif name == "reduction-iii":
        st = ReductionIII(base, r.component(2), r.component(3))
    else:
        st = (ReductionI if name == "reduction-i" else ReductionII)(base, r.component(2))
    if r.at != r.end:
        raise ValueError(f"{r.end - r.at} trailing bytes in container")
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
        tag, _, body = r.header()
        out.append((_COMP_NAMES.get(tag, f"tag{tag}"), body.at, body.end - body.at))
    return out
