import hashlib

import numpy as np
import pytest

from degenrank import container
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
    # components tile the blob exactly after the 7-byte header
    at = 7
    for _, off, ln in comps:
        assert off == at + 9
        at = off + ln
    assert at == len(blob)

    x = generate(seed=7, n=64, sigma=3, profile="uniform")
    names = [n for n, _, _ in
             container.scan_components(container.dumps(build_dsd(x)))]
    assert names == ["meta", "wavelet", "sparse"] + ["sparse"] * 3
    names = [n for n, _, _ in container.scan_components(
        container.dumps(build_reduction(x, "reduction-iii", "bitplane")))]
    assert names == ["meta", "bitplane", "plain", "sparse"]


def test_corrupted_payload_changes_answers():
    # flip bits inside the base-string component: the container still decodes
    # (support tables are rebuilt, so it stays self-consistent) but the answers
    # no longer match the instance it was built from
    x = generate(seed=19, n=400, sigma=4, profile="uniform")
    table = rank_table(x)
    idx = np.arange(x.n + 1)
    for base in ("wavelet", "bitplane"):
        st = build_reduction(x, "reduction-iii", base)
        blob = bytearray(container.dumps(st))
        comps = {name: (off, ln) for name, off, ln in container.scan_components(blob)}
        off, _ = comps[base]
        blob[off + 16] ^= 0xFF  # first word of the first plane / level
        bad = container.loads(bytes(blob))
        bad_table = np.column_stack(
            [bad.subset_rank_many(idx, np.full(idx.size, c)) for c in range(x.sigma)])
        assert not np.array_equal(bad_table, table)
        if base == "wavelet":  # this flip repeats a member, which decompose() refuses
            with pytest.raises(ValueError, match="distinct members"):
                bad.decompose()
        else:
            assert bad.decompose() != x


def test_rejects_malformed_blobs():
    st = build_reduction(WORKED, "reduction-i")
    blob = container.dumps(st)
    with pytest.raises(ValueError, match="magic"):
        container.loads(b"JUNK" + blob[4:])
    for version in (1, 99):  # version 1 kept the wavelet levels in wavelet-tree order
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
    # inside the first component header; 4 of the meta block's 40 payload
    # bytes; the last component 3 bytes short
    for cut in (blob[:8], blob[:12], blob[:20], blob[:-3]):
        with pytest.raises(ValueError, match="truncated"):
            container.scan_components(cut)


@pytest.mark.parametrize("kind", ["meta", "plain", "sparse", "wavelet", "bitplane"])
def test_a_payload_longer_than_its_contents_is_refused(kind):
    base = "wavelet" if kind == "wavelet" else "bitplane"
    blob = container.dumps(build_reduction(WORKED, "reduction-iii", base))
    off, ln = {name: (off, ln) for name, off, ln in container.scan_components(blob)}[kind]
    container.loads(blob)
    grown = (blob[:off - 8] + (ln + 8).to_bytes(8, "little") + blob[off:off + ln]
             + bytes(8) + blob[off + ln:])
    with pytest.raises(ValueError, match="wrong size"):
        container.loads(grown)


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
            container.loads(bytes(blob))


def probe_build(seed, kind, base):
    # sigma sits at the bitplane limit, so that sigma + 1 is refused there too:
    # a bit plane string does not record its alphabet, and one over [0, 3) is
    # also a valid string over [0, 4)
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
    meta_at, _ = comps["meta"]
    for field in range(5):  # sigma, n, N, n0, block_words
        at = meta_at + 8 * field
        value = int.from_bytes(blob[at:at + 8], "little")
        for delta in (1, -1):
            edited = ((value + delta) % (1 << 64)).to_bytes(8, "little")
            with pytest.raises(ValueError):
                container.loads(blob[:at] + edited + blob[at + 8:])
    # the base string of an instance of the same size but another shape
    donor = container.dumps(probe_build(4, kind, base))
    d_off, d_ln = {name: (off, ln) for name, off, ln in container.scan_components(donor)}[base]
    off, ln = comps[base]
    with pytest.raises(ValueError):
        container.loads(blob[:off - 9] + donor[d_off - 9:d_off + d_ln] + blob[off + ln:])


@pytest.mark.parametrize("sets", [[[], []], [[0], [], [0, 1], [1]]])
def test_a_container_declaring_sigma_0_is_refused(sets):
    # sigma is the first u64 of the meta block; no alphabet is empty
    for st in build_all(DegenerateString.from_sets(2, sets)):
        blob = bytearray(container.dumps(st))
        (name, off, _), *_ = container.scan_components(blob)
        assert name == "meta"
        blob[off:off + 8] = bytes(8)
        with pytest.raises(ValueError):
            container.loads(bytes(blob))


# SHA-256 of dumps for every structure x base that builds, at the default
# block_words, on generate(7, n, sigma, profile): the container v2 bytes stay
# the same whatever the code that writes them.
PINNED_INSTANCES = {"dna": (3000, 4, "genomic-like"), "wide": (2000, 16, "uniform")}
PINNED_DIGESTS = {
    ("dna", "reduction-ii", "wavelet"):
        "18f1b66a1923025361df42de0538fad440b8f6ab94f14e59a438ed783ea3cd81",
    ("dna", "reduction-iii", "wavelet"):
        "fcfb3db6c9cd8d77d0597011588f924b1d5b7dc9752aec7a9471a085283e966a",
    ("dna", "reduction-iii", "bitplane"):
        "11af01a7c9df57cbe8ff7e61840085572ba5fdcd8bb5412d5b36115129b2e51c",
    ("dna", "dsd", "wavelet"):
        "5a6d35907458dda97e3200a73234cb2f9830dbba99900a556f7e3eaac1457bf5",
    ("dna", "dsd", "bitplane"):
        "0e12439a1e16071f3922e9e18baa699e31a9358cbcc1e284863c0986c6932628",
    ("wide", "reduction-ii", "wavelet"):
        "741b0753c70e1e553d7f6f170d74d4a7cad253305744c5d95c9dbddad65c2b2a",
    ("wide", "reduction-iii", "wavelet"):
        "7d3e03fb50af7a3e6caed9d09fe4cc1b04613b995535014f39164814e60d0363",
    ("wide", "dsd", "wavelet"):
        "e1aecdf6fbfb8cdcd3406d5f11ee7bae0a4d98ecf7260d38301abf99c6e7314f",
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
    }


# SHA-256 of dumps on the instances above, as the builds that sorted the
# wavelet levels and indexed the DSD split with boolean masks wrote them.
PINNED_EDGE_DIGESTS = {
    ("empty-runs", "reduction-ii", "wavelet"):
        "7f6876a2d87a4ce9b3a99814090a6dee9be0eec5903b279412ce0b5f2151983b",
    ("empty-runs", "reduction-iii", "wavelet"):
        "d69d82597295d6894b33511da2918b9ab7d95ab5fa9e830ffb3f4551fe2e35df",
    ("empty-runs", "reduction-iii", "bitplane"):
        "13c47738a2cc0e1bd79bb0297007cc0483bca1b51c0e1577e0c857cff659ab0f",
    ("empty-runs", "dsd", "wavelet"):
        "88e40f77c690b0e365810e83fdd24fcef29c15c650543e8c91d47c5dd2c850fb",
    ("empty-runs", "dsd", "bitplane"):
        "77c0b546de56080438f2e5b973377473d7a738b09c0b48c64afa0805ad7cda13",
    ("all-empty", "reduction-ii", "wavelet"):
        "0881619d600efb69b737b8ee6b8cac3ce2684a84693174dc858e7f63e0b946aa",
    ("all-empty", "reduction-iii", "wavelet"):
        "81dc74d5278ff5ee222aadd46758da42bd3e13834d070f1155716043413a53ff",
    ("all-empty", "reduction-iii", "bitplane"):
        "22b5e424fffec574e9c379e27e99c08812bf81f94ebecdae2c061878753f6665",
    ("all-empty", "dsd", "wavelet"):
        "c36b8631333ea0a0ccf0018262fec9d7fc0650733cfbe5830f3fa8f2dd95d755",
    ("all-empty", "dsd", "bitplane"):
        "d76d7c19609695a249fa791238213b15ce78998eddd029d7a55eb43d84481452",
    ("sigma-257", "reduction-ii", "wavelet"):
        "d481f685bd087cd274010ce420e3937c502ca6e115822a311dd8ba0b7755d059",
    ("sigma-257", "reduction-iii", "wavelet"):
        "159bad60a1f5fd8795dc7f22252ecd1cfc228089efa4e1dc207bd0d32ed1f9b7",
    ("sigma-257", "dsd", "wavelet"):
        "30e759ef6d8aa5ac77c38fa5877430be02284b1cc8b882f61261c241003f3d0f",
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
