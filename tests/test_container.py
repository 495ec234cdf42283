import hashlib
import zlib

import numpy as np
import pytest

from degenrank import bitvector, container, dsd
from degenrank._bits import narrow_uint
from degenrank.degenerate import DegenerateString, generate, parse_degenerate
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import build_reduction

WORKED = parse_degenerate("4 4\n0 1 2\n0 3\n1\n2 3\n")


def same_answers(x, st):
    table = rank_table(x)
    idx = np.arange(x.n + 1)
    for c in range(x.sigma):
        got = st.subset_rank_many(idx, np.full(idx.size, c))
        assert np.array_equal(got, table[:, c])
        pos = positions_of(x, c)
        if pos.size:
            js = np.arange(1, pos.size + 1)
            assert np.array_equal(st.subset_select_many(js, np.full(js.size, c)), pos)


def build_all(x):
    out = []
    variants = ["reduction-ii", "reduction-iii"] + ([] if x.n0 else ["reduction-i"])
    for v in variants:
        out.append(build_reduction(x, v, "wavelet"))
        eff = x.sigma + 1 if v == "reduction-ii" else x.sigma
        if eff <= 4:
            out.append(build_reduction(x, v, "bitplane", block_words=1))
    out.append(build_dsd(x, "wavelet"))
    if x.sigma <= 4:
        out.append(build_dsd(x, "bitplane", block_words=2))
    return out


def reseal(blob) -> bytes:
    """blob with every component's CRC recomputed over its sub-tag, payload
    length and payload, so that an edit reaches the checks behind the CRC."""
    out = bytearray(blob)
    for _, off, ln in container.scan_components(blob):
        crc = zlib.crc32(out[off:off + ln], zlib.crc32(out[off - 13:off - 4]))
        out[off - 4:off] = crc.to_bytes(4, "little")
    return bytes(out)


def test_roundtrip_every_structure():
    for seed, sigma, profile in [(1, 3, "uniform"), (2, 4, "genomic-like"),
                                 (3, 9, "uniform")]:
        x = generate(seed=seed, n=300, sigma=sigma, profile=profile)
        for st in build_all(x):
            blob = container.dumps(st)
            assert container.is_container(blob)
            st2 = container.loads(blob)
            assert container.dumps(st2) == blob
            assert type(st2) is type(st)
            assert (st2.sigma, st2.n, st2.N, st2.n0) == (st.sigma, st.n, st.N, st.n0)
            assert st2.base_name == st.base_name
            assert st2.decompose() == x
            same_answers(x, st2)


def test_roundtrip_preserves_block_words():
    x = generate(seed=11, n=500, sigma=4, profile="uniform")
    st = build_reduction(x, "reduction-iii", "bitplane", block_words=4)
    st2 = container.loads(container.dumps(st))
    assert st2.block_words == 4
    st3 = container.loads(container.dumps(build_reduction(x, "reduction-iii")))
    assert st3.block_words is None


def test_save_load_file(tmp_path):
    x = generate(seed=5, n=128, sigma=6, profile="uniform")
    st = build_dsd(x)
    path = tmp_path / "x.dgrs"
    container.save(st, path)
    st2 = container.load(path)
    assert st2.decompose() == x
    same_answers(x, st2)


def test_scan_components_layout():
    st = build_reduction(WORKED, "reduction-i", "wavelet")
    blob = container.dumps(st)
    comps = container.scan_components(blob)
    assert [name for name, _, _ in comps] == ["meta", "wavelet", "plain"]
    # components tile the blob exactly after the 7-byte header, each after
    # its 13-byte frame: sub-tag, payload length and CRC
    at = 7
    for _, off, ln in comps:
        assert off == at + 13
        at = off + ln
    assert at == len(blob)

    x = generate(seed=7, n=64, sigma=3, profile="uniform")
    names = [n for n, _, _ in
             container.scan_components(container.dumps(build_dsd(x)))]
    assert names == ["meta", "wavelet", "sparse", "overflow"]
    names = [n for n, _, _ in container.scan_components(
        container.dumps(build_reduction(x, "reduction-iii", "bitplane")))]
    assert names == ["meta", "bitplane", "plain", "sparse"]


def test_a_corrupted_payload_is_refused_by_name():
    # flipped bits inside the base-string component would decode (support
    # tables are rebuilt, so it stays self-consistent) and answer for another
    # instance; its CRC refuses it before the decode
    x = generate(seed=19, n=400, sigma=4, profile="uniform")
    for base in ("wavelet", "bitplane"):
        st = build_reduction(x, "reduction-iii", base)
        blob = bytearray(container.dumps(st))
        comps = {name: (off, ln) for name, off, ln in container.scan_components(blob)}
        off, _ = comps[base]
        blob[off + 16] ^= 0xFF  # first word of the first plane / level
        with pytest.raises(ValueError, match=f"^{base} component fails its CRC$"):
            container.loads(bytes(blob))


def single_bit_flips(blob, bits):
    """(flipped blob, name of the component whose payload holds the bit or None)."""
    names = [None] * len(blob)
    for name, off, ln in container.scan_components(blob):
        names[off:off + ln] = [name] * ln
    for bit in bits:
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        yield bytes(flipped), names[bit >> 3]


def test_every_single_bit_flip_is_refused():
    # every bit of the worked example's containers, and 400 seeded bits of
    # each build of a genomic-like instance
    rng = np.random.default_rng(27)
    cases = [(st, None) for st in build_all(WORKED)]
    cases += [(st, 400) for st in build_all(generate(3, 300, 4, "genomic-like"))]
    for st, sample in cases:
        blob = container.dumps(st)
        bits = (range(8 * len(blob)) if sample is None
                else rng.choice(8 * len(blob), sample, replace=False))
        for flipped, name in single_bit_flips(blob, bits):
            with pytest.raises(ValueError) as err:
                container.loads(flipped)
            if name is not None:
                assert str(err.value) == f"{name} component fails its CRC"


def test_rejects_malformed_blobs():
    st = build_reduction(WORKED, "reduction-i")
    blob = container.dumps(st)
    with pytest.raises(ValueError, match="magic"):
        container.loads(b"JUNK" + blob[4:])
    for version in (1, 2, 99):  # the layouts of versions 1 and 2 are not read
        with pytest.raises(ValueError, match="version"):
            container.loads(blob[:4] + bytes([version]) + blob[5:])
    with pytest.raises(ValueError, match="structure tag"):
        container.loads(blob[:5] + bytes([200]) + blob[6:])
    with pytest.raises(ValueError, match="truncated"):
        container.loads(blob[:-3])
    with pytest.raises(ValueError, match="trailing"):
        container.loads(blob + b"\x00" * 4)
    with pytest.raises(ValueError):
        container.loads(blob[:7])  # header only, no components
    for short in (b"DGRS", b"DGRS\x02", blob[:6]):  # a cut inside the 7-byte header
        with pytest.raises(ValueError, match="truncated"):
            container.loads(short)
    with pytest.raises(ValueError, match="unknown base tag"):
        container.loads(blob[:6] + bytes([2]) + blob[7:])
    for not_built in (WORKED, object()):
        with pytest.raises(ValueError, match="cannot serialize"):
            container.dumps(not_built)
    assert not container.is_container(b"PNG\x89 nope")


def test_scan_components_refuses_truncated_blobs():
    blob = container.dumps(build_reduction(WORKED, "reduction-i"))
    # inside the first component's frame; 4 of the meta block's 8 payload
    # bytes; the last component 3 bytes short
    for cut in (blob[:8], blob[:12], blob[:24], blob[:-3]):
        with pytest.raises(ValueError, match="truncated"):
            container.scan_components(cut)


@pytest.mark.parametrize("kind", ["meta", "plain", "sparse", "wavelet", "bitplane"])
def test_a_payload_longer_than_its_contents_is_refused(kind):
    base = "wavelet" if kind == "wavelet" else "bitplane"
    blob = container.dumps(build_reduction(WORKED, "reduction-iii", base))
    off, ln = {name: (off, ln) for name, off, ln in container.scan_components(blob)}[kind]
    container.loads(blob)
    grown = (blob[:off - 12] + (ln + 8).to_bytes(8, "little") + blob[off - 4:off + ln]
             + bytes(8) + blob[off + ln:])
    with pytest.raises(ValueError, match="wrong size"):
        container.loads(reseal(grown))


def test_loaded_word_arrays_are_aligned():
    # payloads start at odd offsets in the blob; each array must be a copy
    x = generate(seed=2, n=500, sigma=4, profile="uniform")
    for base in ("wavelet", "bitplane"):
        st = container.loads(container.dumps(build_dsd(x, base, block_words=2)))
        e, b, _ = st.components()
        arrays = [e._ones, st._inner._rows]
        if base == "wavelet":
            arrays += [bv._words for bv in b._levels]
        else:
            arrays += [b._low, b._high]
        r3 = container.loads(container.dumps(build_reduction(x, "reduction-iii", base)))
        arrays.append(r3._inner._R._words)
        assert all(a.flags.aligned for a in arrays)


def test_a_loaded_structure_does_not_depend_on_its_blob():
    # no array of a loaded structure is a view of the blob: zeroing the blob
    # after the load leaves its bytes and its instance as they were
    for x in (WORKED, generate(seed=1, n=300, sigma=3, profile="uniform")):
        for st in build_all(x):
            blob = container.dumps(st)
            buf = bytearray(blob)
            st2 = container.loads(buf)
            buf[:] = bytes(len(buf))
            assert container.dumps(st2) == blob
            assert st2.decompose() == x


def test_padding_bits_are_policed():
    # a corrupt final word with garbage past the declared length is refused
    for base, comp in (("wavelet", "plain"), ("bitplane", "bitplane")):
        st = build_reduction(WORKED, "reduction-i", base)
        blob = bytearray(container.dumps(st))
        comps = {name: (off, ln) for name, off, ln in container.scan_components(blob)}
        off, ln = comps[comp]
        blob[off + ln - 1] ^= 0x80  # top bit of the last word, far past length 9 or 8
        with pytest.raises(ValueError, match="padding"):
            container.loads(reseal(blob))


def probe_build(seed, kind, base):
    # sigma sits at the bitplane limit, so that sigma + 1 is refused there too:
    # the meta block is the only record of a bit plane string's alphabet, and
    # a string over [0, 3) is also a valid string over [0, 4)
    sigma = 3 if (kind, base) == ("reduction-ii", "bitplane") else 4
    probs = [0.0 if kind == "reduction-i" else 0.2] + [0.8 / sigma] * sigma
    x = generate(seed, 300, sigma, size_probs=probs)
    if kind == "dsd":
        return build_dsd(x, base, block_words=2)
    return build_reduction(x, kind, base, block_words=2)


@pytest.mark.parametrize("kind", ["reduction-i", "reduction-ii", "reduction-iii", "dsd"])
@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_meta_edits_and_foreign_components_are_rejected(kind, base):
    blob = container.dumps(probe_build(3, kind, base))
    comps = {name: (off, ln) for name, off, ln in container.scan_components(blob)}
    at, _ = comps["meta"]  # sigma, its only field
    value = int.from_bytes(blob[at:at + 8], "little")
    for delta in (1, -1):
        edited = (value + delta).to_bytes(8, "little")
        with pytest.raises(ValueError):
            container.loads(reseal(blob[:at] + edited + blob[at + 8:]))
    # the base string of an instance of the same size but another shape
    donor = container.dumps(probe_build(4, kind, base))
    d_off, d_ln = {name: (off, ln) for name, off, ln in container.scan_components(donor)}[base]
    off, ln = comps[base]
    with pytest.raises(ValueError):
        container.loads(blob[:off - 13] + donor[d_off - 13:d_off + d_ln] + blob[off + ln:])


@pytest.mark.parametrize("sets", [[[], []], [[0], [], [0, 1], [1]]])
def test_a_container_declaring_sigma_0_is_refused(sets):
    # sigma is the first u64 of the meta block; no alphabet is empty
    for st in build_all(DegenerateString.from_sets(2, sets)):
        blob = bytearray(container.dumps(st))
        (name, off, _), *_ = container.scan_components(blob)
        assert name == "meta"
        blob[off:off + 8] = bytes(8)
        with pytest.raises(ValueError):
            container.loads(reseal(blob))


# SHA-256 of dumps for every structure x base that builds, at the default
# block_words, on generate(7, n, sigma, profile): the container v3 bytes stay
# the same whatever the code that writes them.
PINNED_INSTANCES = {"dna": (3000, 4, "genomic-like"), "wide": (2000, 16, "uniform")}
PINNED_DIGESTS = {
    ("dna", "reduction-ii", "wavelet"):
        "902c30543174611977daf6127155b49fa5b93365646a679d23cbe9419c3c6d4f",
    ("dna", "reduction-iii", "wavelet"):
        "f4ee74ff0076df51034061dfd04032f97f28a514ad9621f7ff6e2319cbfe4238",
    ("dna", "reduction-iii", "bitplane"):
        "cad7b6e00b7e2dea67eaaa1bdcf9b1f3fb0c11843300d1738258a56392d2f92c",
    ("dna", "dsd", "wavelet"):
        "25b6e15cc5ee1764db53828c6d05e7c7b06d404a3ab45aaab13b6784ea5368f2",
    ("dna", "dsd", "bitplane"):
        "4f612f243db7bf76e6ffbaebb15e70f92cdea2d2a2bc32516423c4d8ad6ad313",
    ("wide", "reduction-ii", "wavelet"):
        "f9522ae12a121ecf879af8dd2a3c99d3fc10c012fcf017a53542265e9de4fa27",
    ("wide", "reduction-iii", "wavelet"):
        "5cf90c06d750f3710fafa0e3c942ec4cfee433bfd2cd817005c22f89ae511b22",
    ("wide", "dsd", "wavelet"):
        "d864e89a86c265389e3775f3ae02b58300d1b60b23c2b790d49842e0bfc0e6bf",
}


def test_container_bytes_are_pinned():
    digests = {}
    for name, args in PINNED_INSTANCES.items():
        x = generate(7, *args)
        for structure in ("reduction-i", "reduction-ii", "reduction-iii", "dsd"):
            for base in ("wavelet", "bitplane"):
                try:
                    st = (build_dsd(x, base) if structure == "dsd"
                          else build_reduction(x, structure, base))
                except ValueError:  # empty sets for reduction-i, sigma past the bitplane's
                    continue
                digests[name, structure, base] = hashlib.sha256(container.dumps(st)).hexdigest()
    assert digests == PINNED_DIGESTS


def large_sigma_instance():
    """100 sets of 0 to 3 members over 4,096 symbols."""
    return generate(7, 100, 4096, "uniform", size_probs=[1, 1, 1, 1] + [0] * 4093)


def edge_instances():
    sets = list(generate(7, 1000, 4, "genomic-like").sets())
    return {
        # empty sets at both ends and in runs of 2 and 6 between
        "empty-runs": DegenerateString.from_sets(
            4, [()] * 3 + sets[:400] + [()] * 6 + sets[400:700] + [()] * 2 + sets[700:]
            + [()] * 4),
        "all-empty": DegenerateString(4, [], np.zeros(51, dtype=np.int64)),
        # nine wavelet levels over uint16 symbols, ten for reduction ii's sentinel 257
        "sigma-257": generate(7, 1500, 257, "uniform", size_probs=[1, 4, 2, 1] + [0] * 254),
        # the paper's regime: sigma far above the set sizes, most overflow runs empty
        "sigma-4096": large_sigma_instance(),
    }


# SHA-256 of dumps on the instances above, in container v3.
PINNED_EDGE_DIGESTS = {
    ("empty-runs", "reduction-ii", "wavelet"):
        "e148a307e6f1ad90d8c9721c2097f75d805a45f1cdb3635c2632a780acade541",
    ("empty-runs", "reduction-iii", "wavelet"):
        "316fe7c438e3aa98b7bb07726fd0a1710aea1442e8a9a092a2ed819d2667589e",
    ("empty-runs", "reduction-iii", "bitplane"):
        "420e4ef6f8cc7c9c752655eeec24a44dd946eecd536868d8351bb274943ebe4b",
    ("empty-runs", "dsd", "wavelet"):
        "e972f39b104368cc25716389d29ab71ae034397ce4ad1e5260328c6510d2058c",
    ("empty-runs", "dsd", "bitplane"):
        "5afc44e79413fa20c053627430b169082e9de95f9e9bbd9e97952af728a80519",
    ("all-empty", "reduction-ii", "wavelet"):
        "987fffc686f616fc5f651eb16351576e99896f16f91e7d131fdf6e404872fdc9",
    ("all-empty", "reduction-iii", "wavelet"):
        "045d4f3fd98f54fa238726ee4d2e4f2162d953b6e1442088d257b94a3724cbb5",
    ("all-empty", "reduction-iii", "bitplane"):
        "1a3bf693679bebb4ec4a02a9a0ae1424f2ce9c4e7a2c68aee15e8f2562b7c04a",
    ("all-empty", "dsd", "wavelet"):
        "98e561acd8e909debafbc2b221fa26b8d8f4dbfeed4a37dee083503394ac8f7b",
    ("all-empty", "dsd", "bitplane"):
        "52454872a02670b22c6425a5748c7e55218a346e7eb59957026fd47b2f1d41bd",
    ("sigma-257", "reduction-ii", "wavelet"):
        "15d4f5edda4d7d19466c037ac881d8b12fc4e75ebfc91f5b63cf0df754586343",
    ("sigma-257", "reduction-iii", "wavelet"):
        "2b2d36db2cad8d52d6baf4e2100f99c433cfef694ae293399df40554a8abb715",
    ("sigma-257", "dsd", "wavelet"):
        "1f39c7376ee70aece1a5d00bf8293046de8f079c5a6d2946100d6c3adfbafc78",
    ("sigma-4096", "reduction-ii", "wavelet"):
        "c8b20b8844f2932734f7083e68937466883e5a4aaf3292a70fa495d592a493d5",
    ("sigma-4096", "reduction-iii", "wavelet"):
        "5fa78513b694cd0d6e3df09183a6e138c5ef34dcd7727ac45d2b4a5741ec9d48",
    ("sigma-4096", "dsd", "wavelet"):
        "6e0ee485b20cc08acd1216f267f16362805b9c64f2910902c1fd038395863717",
}


def test_container_bytes_are_pinned_on_edge_instances():
    digests = {}
    for name, x in edge_instances().items():
        for structure in ("reduction-i", "reduction-ii", "reduction-iii", "dsd"):
            for base in ("wavelet", "bitplane"):
                try:
                    st = (build_dsd(x, base) if structure == "dsd"
                          else build_reduction(x, structure, base))
                except ValueError:  # empty sets for reduction-i, sigma past the bitplane's
                    continue
                digests[name, structure, base] = hashlib.sha256(container.dumps(st)).hexdigest()
    assert digests == PINNED_EDGE_DIGESTS
    x = edge_instances()["sigma-257"]
    assert x.symbols.dtype == np.uint16 and 256 in x.symbols


def test_dsd_build_and_load_make_no_vector_per_symbol(monkeypatch):
    # E is the only SparseBitvector that build_dsd or loads constructs; the
    # overflow goes from the split to the structure, and from the container
    # to the structure, as one run array
    x = large_sigma_instance()
    made = []

    class Counted(dsd.SparseBitvector):
        def __init__(self, *args):
            made.append("build")
            super().__init__(*args)

    def counted_load(*args):
        made.append("load")
        return bitvector.SparseBitvector(*args)

    with monkeypatch.context() as m:
        m.setattr(dsd, "SparseBitvector", Counted)
        d = build_dsd(x)
    blob = container.dumps(d)
    with monkeypatch.context() as m:  # dumps tells components apart by their class
        m.setattr(container, "SparseBitvector", counted_load)
        loaded = container.loads(blob)
    assert made == ["build", "load"]
    assert container.dumps(loaded) == blob
    table = rank_table(x)
    i, c = np.meshgrid(np.arange(x.n + 1), np.arange(x.sigma), indexing="ij")
    j = np.concatenate([np.arange(1, k + 1) for k in table[-1]])
    for st in (d, loaded):
        assert st.decompose() == x
        assert np.array_equal(st.subset_rank_many(i, c), table)
        assert np.array_equal(st.subset_select_many(j, np.repeat(np.arange(x.sigma), table[-1])),
                              np.concatenate([positions_of(x, c) for c in range(x.sigma)]))


def overflow_edits(d):
    """Edits of d's container, each of which loads must refuse once every CRC
    is resealed. The components are meta, the base, E, then the overflow:
    sigma run lengths as u64, then the rows in narrow_uint(n - n0)."""
    blob = container.dumps(d)
    (_, meta_at, _), *_, (name, off, _) = container.scan_components(blob)
    assert name == "overflow"
    counts = np.frombuffer(blob, "<u8", d.sigma, off)
    rows = np.frombuffer(blob, narrow_uint(d.n - d.n0), offset=off + 8 * d.sigma)
    c = int(np.flatnonzero(counts >= 2)[0])  # a run with two rows or more
    first = int(counts[:c].sum())
    short, long, high, swapped = counts.copy(), counts.copy(), rows.copy(), rows.copy()
    short[c] -= 1
    long[c] += 1
    high[-1] = d.n - d.n0
    swapped[[first, first + 1]] = rows[[first + 1, first]]

    def overflow(counts=counts, rows=rows):
        return reseal(blob[:off] + counts.tobytes() + rows.tobytes())

    return {
        "a row equal to n - n0": (overflow(rows=high), "overflow rows out of range"),
        "two swapped rows": (overflow(rows=swapped), "strictly increasing"),
        "a count one short": (overflow(counts=short), "overflow counts sum to"),
        "a count one long": (overflow(counts=long), "overflow counts sum to"),
        "another sub-tag": (reseal(blob[:off - 13] + bytes([2]) + blob[off - 12:]),
                            "expected component"),
        "sigma 2**40": (reseal(blob[:meta_at] + (1 << 40).to_bytes(8, "little")
                               + blob[meta_at + 8:]), "truncated"),
    }


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_a_dsd_container_with_a_bad_overflow_component_is_refused(base):
    x = generate(3, 300, 4, size_probs=[0.2] * 5)
    d = build_dsd(x, base)
    blob = container.dumps(d)
    edits = overflow_edits(d)
    assert len({edited for edited, _ in edits.values()} - {blob}) == len(edits)
    for case, (edited, message) in edits.items():
        with pytest.raises(ValueError, match=message):
            container.loads(edited)
            pytest.fail(case)  # reached only when loads takes the edit


@pytest.mark.parametrize("sigma", [4, 4096, 2**16])
def test_a_dsd_container_holds_four_components_whatever_sigma(sigma):
    # the overflow is one component however many runs it holds
    x = generate(7, 100, sigma, "uniform", size_probs=[1, 1, 1, 1] + [0] * (sigma - 3))
    blob = container.dumps(build_dsd(x))
    assert [name for name, _, _ in container.scan_components(blob)] == [
        "meta", "wavelet", "sparse", "overflow"]
    assert container.loads(blob).decompose() == x
