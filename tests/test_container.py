import numpy as np
import pytest

from degenrank import container
from degenrank.degenerate import generate, parse_degenerate
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
        assert bad.decompose() != x


def test_rejects_malformed_blobs():
    st = build_reduction(WORKED, "reduction-i")
    blob = container.dumps(st)
    with pytest.raises(ValueError, match="magic"):
        container.loads(b"JUNK" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        container.loads(blob[:4] + bytes([99]) + blob[5:])
    with pytest.raises(ValueError, match="structure tag"):
        container.loads(blob[:5] + bytes([200]) + blob[6:])
    with pytest.raises(ValueError, match="truncated"):
        container.loads(blob[:-3])
    with pytest.raises(ValueError, match="trailing"):
        container.loads(blob + b"\x00" * 4)
    with pytest.raises(ValueError):
        container.loads(blob[:7])  # header only, no components
    assert not container.is_container(b"PNG\x89 nope")


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
