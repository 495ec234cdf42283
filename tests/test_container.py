import hashlib
import zlib

import numpy as np
import pytest

from degenrank import bitvector, container, dsd
from degenrank._bits import narrow_uint
from degenrank.degenerate import DegenerateString, generate, parse_degenerate
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import VARIANTS, build_reduction

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
    # block_words is a fact of the bitplane base alone
    x = generate(seed=11, n=500, sigma=4, profile="uniform")
    st = build_reduction(x, "reduction-iii", "bitplane", block_words=4)
    assert container.loads(container.dumps(st))._inner._S.block_words == 4
    d = build_dsd(x, "bitplane", block_words=4)
    assert container.loads(container.dumps(d))._inner._base.block_words == 4
    st3 = container.loads(container.dumps(build_reduction(x, "reduction-iii")))
    assert not hasattr(st3._inner._S, "block_words")


def base_of(st):
    inner = getattr(st, "_inner", st)
    return inner._base if st.structure_name == "dsd" else inner._S


@pytest.mark.parametrize("base,sigma", [("bitplane", s) for s in (1, 2, 3, 4)]
                         + [("wavelet", s) for s in (1, 5, 16, 300)])
def test_every_structure_round_trips_with_sigma_read_from_its_base(base, sigma):
    layout = {"reduction-i": [base, "plain"], "reduction-ii": [base, "plain"],
              "reduction-iii": [base, "plain", "sparse"], "dsd": [base, "sparse", "overflow"]}
    built = []
    for empty in (0.0, 0.2):  # reduction i takes no empty set
        probs = ([empty] + [1.0] * 3 + [0.0] * sigma)[:sigma + 1]
        x = generate(13 + sigma, 200, sigma, size_probs=probs)
        assert (x.n0 > 0) == (empty > 0)
        for structure in VARIANTS + ("dsd",):
            try:
                st = (build_dsd(x, base) if structure == "dsd"
                      else build_reduction(x, structure, base))
            except ValueError:  # reduction i over empty sets, sigma + 1 past the bitplane's 4
                continue
            blob = container.dumps(st)
            assert [name for name, _, _ in container.scan_components(blob)] == layout[structure]
            st2 = container.loads(blob)
            assert base_of(st2).sigma == sigma + (structure == "reduction-ii")
            assert st2.sigma == sigma and st2.decompose() == x
            assert container.dumps(st2) == blob
            built.append(structure)
    assert set(built) == set(layout) - ({"reduction-ii"} if sigma == 4 else set())


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
    assert [name for name, _, _ in comps] == ["wavelet", "plain"]
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
    assert names == ["wavelet", "sparse", "overflow"]
    names = [n for n, _, _ in container.scan_components(
        container.dumps(build_reduction(x, "reduction-iii", "bitplane")))]
    assert names == ["bitplane", "plain", "sparse"]


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
    for version in (1, 2, 3, 99):  # the layouts of versions 1 to 3 are not read
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
    # inside the first component's frame; 4 bytes into the wavelet header's
    # 16; the last component 3 bytes short
    for cut in (blob[:8], blob[:12], blob[:24], blob[:-3]):
        with pytest.raises(ValueError, match="truncated"):
            container.scan_components(cut)


@pytest.mark.parametrize("kind", ["plain", "sparse", "wavelet", "bitplane"])
def test_a_payload_longer_than_its_contents_is_refused(kind):
    base = "wavelet" if kind == "wavelet" else "bitplane"
    blob = container.dumps(build_reduction(WORKED, "reduction-iii", base))
    off, ln = {name: (off, ln) for name, off, ln in container.scan_components(blob)}[kind]
    container.loads(blob)
    grown = (blob[:off - 12] + (ln + 8).to_bytes(8, "little") + blob[off - 4:off + ln]
             + bytes(8) + blob[off + ln:])
    # sparse positions run to the end of their payload: 8 more, each 0
    with pytest.raises(ValueError, match="one positions" if kind == "sparse" else "wrong size"):
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
    # S is over 4 symbols in every build, reduction ii's sentinel included: at
    # the bitplane limit, and a power of 2, so sigma + 1 takes one wavelet
    # level more than the payload holds. An edit that kept the level count,
    # such as 5 to 6 under reduction ii, would read as another valid
    # instance, whose sets hold the old sentinel: sigma has one home, and
    # only the CRC guards it.
    sigma = 3 if kind == "reduction-ii" else 4
    probs = [0.0 if kind == "reduction-i" else 0.2] + [0.8 / sigma] * sigma
    x = generate(seed, 300, sigma, size_probs=probs)
    if kind == "dsd":
        return build_dsd(x, base, block_words=2)
    return build_reduction(x, kind, base, block_words=2)


@pytest.mark.parametrize("kind", ["reduction-i", "reduction-ii", "reduction-iii", "dsd"])
@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_sigma_edits_and_foreign_components_are_rejected(kind, base):
    blob = container.dumps(probe_build(3, kind, base))
    comps = {name: (off, ln) for name, off, ln in container.scan_components(blob)}
    at, _ = comps[base]  # sigma, the base header's first field
    value = int.from_bytes(blob[at:at + 8], "little")
    assert value == 4
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
    # sigma is the first u64 of the base string, the first component; no
    # alphabet is empty
    for st in build_all(DegenerateString.from_sets(2, sets)):
        blob = bytearray(container.dumps(st))
        (name, off, _), *_ = container.scan_components(blob)
        assert name == st.base_name
        blob[off:off + 8] = bytes(8)
        with pytest.raises(ValueError):
            container.loads(reseal(blob))


# SHA-256 of dumps for every structure x base that builds, at the default
# block_words, on generate(7, n, sigma, profile): the container v4 bytes stay
# the same whatever the code that writes them.
PINNED_INSTANCES = {"dna": (3000, 4, "genomic-like"), "wide": (2000, 16, "uniform")}
PINNED_DIGESTS = {
    ("dna", "reduction-ii", "wavelet"):
        "eef5bf1ea5e5837afe7d49fc2928a0ba4bed4c232c4d24582f134206df3b8d66",
    ("dna", "reduction-iii", "wavelet"):
        "bcdaeabc0ef181b0d020a81d0c3b4687de682e5cad495a1ef43e2739ec404d3d",
    ("dna", "reduction-iii", "bitplane"):
        "2f2e6357a8934c6b77bb1e62d2088041487552c7700905215e54999f062e84f0",
    ("dna", "dsd", "wavelet"):
        "7d359e7c8dd2ab08173c0edd3f35ff4d5f5a04d9df3f5f6a76091043de68829e",
    ("dna", "dsd", "bitplane"):
        "a3274888970d209fafbcba2233bbe51f1cd8b45276b78f189cab5a7d53714751",
    ("wide", "reduction-ii", "wavelet"):
        "1eecf4b4162df7f955a6df014c120d68c4330819c0c2ee54b7c17dd6b036fb86",
    ("wide", "reduction-iii", "wavelet"):
        "fafbcb8e63d0851749f4e6413a51b6ce957a7752a56e5b11cd7fb0a9b5504954",
    ("wide", "dsd", "wavelet"):
        "cd98f4f6462ba0208c18a590205e6f23ee98bf4d44bd4aeaed5336b4c4d0bbb5",
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


# SHA-256 of dumps on the instances above, in container v4.
PINNED_EDGE_DIGESTS = {
    ("empty-runs", "reduction-ii", "wavelet"):
        "3161f7b40253c62c0b3d1a00f6e8d74f39c2fe47457c23102d2134d0899eb301",
    ("empty-runs", "reduction-iii", "wavelet"):
        "89cf4ac2000c260631997bef8338c6f76d32d8ffebc8835632e4aaa5f7f77573",
    ("empty-runs", "reduction-iii", "bitplane"):
        "5456aabc5392c13027155078eb7a33c4ef9969afe0592755407a15ce801a24e3",
    ("empty-runs", "dsd", "wavelet"):
        "420b60667cba25581ea8d97831fd83d319dc61063f26ef0016b6e2827df2dcf0",
    ("empty-runs", "dsd", "bitplane"):
        "ac1c10898aa1f6630c0d04c5231211ed6a66e3334226dfbabe3529469ff346df",
    ("all-empty", "reduction-ii", "wavelet"):
        "970c86fedfb7c0efd349eb6687b17f6b46b1c8b7626ca1b65b845eaaa4eda15e",
    ("all-empty", "reduction-iii", "wavelet"):
        "174b6729365fb748c548c8fe3c9df29e86c77bd26f345d86bef35f7977dd1a7a",
    ("all-empty", "reduction-iii", "bitplane"):
        "e701fcda34c1b45b84fdcc06a5641a521943c7125be57977b1d3532a70413e9d",
    ("all-empty", "dsd", "wavelet"):
        "abbc994ed4b0ac904e6eb2ba1762824801ed09c7a4c72bf7176d530a30c2fd1e",
    ("all-empty", "dsd", "bitplane"):
        "9bb496debdbb76dc42e19ff3e753cdd1372471d1b184acb82529a1d9bd29f43f",
    ("sigma-257", "reduction-ii", "wavelet"):
        "aea2fe4016920048cb6cbf34ebd4d42887cb704eb79bf0eb92e2e57bc5bf9b55",
    ("sigma-257", "reduction-iii", "wavelet"):
        "32159198ac39f3b366cf0f6f4253e37ce78421d694004740e106650ad09b8838",
    ("sigma-257", "dsd", "wavelet"):
        "5535dc3df56d2c0d151d0d3f223c431ec0ee62a79395e9717383d777a7cf5640",
    ("sigma-4096", "reduction-ii", "wavelet"):
        "3b0521ee61ede8fcac07a996f45090cb1271c54dc5b6b95c5f3bf47a397de7b6",
    ("sigma-4096", "reduction-iii", "wavelet"):
        "e86d28c0fd5995f01aed9d5eadad2659c2b60095389c8e78028e20a4f1e7c7fc",
    ("sigma-4096", "dsd", "wavelet"):
        "1481566fb32b5d8e161d28b96c9592622adf6e80a1737a5356586b9c8e7483fe",
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
    is resealed. The components are the base, whose header starts with
    sigma, E, then the overflow: sigma run lengths as u64, then the rows in
    narrow_uint(n - n0)."""
    blob = container.dumps(d)
    (_, sigma_at, _), *_, (name, off, _) = container.scan_components(blob)
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
        # 40 wavelet levels, or an alphabet past the bitplane's 4
        "sigma 2**40": (reseal(blob[:sigma_at] + (1 << 40).to_bytes(8, "little")
                               + blob[sigma_at + 8:]),
                        "truncated" if d.base_name == "wavelet" else "sigma"),
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
def test_a_dsd_container_holds_three_components_whatever_sigma(sigma):
    # the overflow is one component however many runs it holds
    x = generate(7, 100, sigma, "uniform", size_probs=[1, 1, 1, 1] + [0] * (sigma - 3))
    blob = container.dumps(build_dsd(x))
    assert [name for name, _, _ in container.scan_components(blob)] == [
        "wavelet", "sparse", "overflow"]
    assert container.loads(blob).decompose() == x


def test_a_version_3_container_is_refused():
    blob = container.dumps(build_reduction(WORKED, "reduction-iii"))
    with pytest.raises(ValueError, match="^unsupported container version 3, expected 4$"):
        container.loads(blob[:4] + bytes([3]) + blob[5:])


def with_base_sigma(blob, sigma) -> bytes:
    """blob with the base string's sigma, its first header field, set to sigma
    and every CRC resealed."""
    (_, at, _), *_ = container.scan_components(blob)
    return reseal(blob[:at] + sigma.to_bytes(8, "little") + blob[at + 8:])


@pytest.mark.parametrize("structure", ["reduction-iii", "dsd"])
def test_a_wavelet_payload_that_holds_a_symbol_past_sigma_is_refused(structure):
    # 6 and 5 symbols take 3 levels each, so the levels read whole
    x = generate(9, 300, 6, "uniform")
    st = build_dsd(x) if structure == "dsd" else build_reduction(x, structure)
    assert base_of(st).symbol_counts()[5] > 0
    with pytest.raises(ValueError, match="levels hold a symbol past the alphabet of size 5"):
        container.loads(with_base_sigma(container.dumps(st), 5))


@pytest.mark.parametrize("structure", ["reduction-i", "reduction-iii", "dsd"])
def test_a_bitplane_payload_that_holds_a_symbol_past_sigma_is_refused(structure):
    probs = [0.0 if structure == "reduction-i" else 0.2, 1, 1, 1, 1]
    x = generate(9, 300, 4, size_probs=probs)
    st = (build_dsd(x, "bitplane") if structure == "dsd"
          else build_reduction(x, structure, "bitplane"))
    assert base_of(st).symbol_counts()[1:].all()
    for sigma in (1, 2, 3):
        with pytest.raises(ValueError,
                           match=f"planes hold a symbol past the alphabet of size {sigma}"):
            container.loads(with_base_sigma(container.dumps(st), sigma))


def test_a_sparse_payload_cut_inside_a_position_is_refused():
    # E's positions take 2 bytes each once n passes 255; one byte more is no whole position
    x = generate(3, 400, 4, size_probs=[0.2] * 5)
    blob = container.dumps(build_reduction(x, "reduction-iii"))
    (*_, (name, off, ln)) = container.scan_components(blob)
    assert name == "sparse" and (ln - 8) % 2 == 0
    grown = blob[:off - 12] + (ln + 1).to_bytes(8, "little") + blob[off - 4:] + bytes(1)
    with pytest.raises(ValueError, match="^sparse component has wrong size$"):
        container.loads(reseal(grown))
