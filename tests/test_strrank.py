import numpy as np
import pytest

from degenrank._bits import unpack_bits
from degenrank.bitvector import PlainBitvector
from degenrank import strrank
from degenrank.strrank import BitPlaneRank, WaveletTree


def ref_rank(syms, i, c):
    return int((syms[:i] == c).sum())


def ref_positions(syms, c):
    return np.flatnonzero(syms == c)


def random_symbols(rng, n, sigma, skew=None):
    if skew is None:
        return rng.integers(0, sigma, size=n)
    return rng.choice(sigma, size=n, p=skew)


# Worked example string ACGATCTG with A=0 C=1 G=2 T=3: two A's in the first
# five symbols, second G at position 7.
DOC_SYMS = np.array([0, 1, 2, 0, 3, 1, 3, 2])


@pytest.mark.parametrize("make", [
    lambda s: WaveletTree(s, 4),
    lambda s: BitPlaneRank(s, 4, block_words=1),
])
def test_doc_string_values(make):
    st = make(DOC_SYMS)
    assert st.rank(5, 0) == 2
    assert st.select(2, 2) == 7
    for i in range(len(DOC_SYMS) + 1):
        for c in range(4):
            assert st.rank(i, c) == ref_rank(DOC_SYMS, i, c)
    for c in range(4):
        for j, p in enumerate(ref_positions(DOC_SYMS, c), start=1):
            assert st.select(j, c) == p
    for p, s in enumerate(DOC_SYMS):
        assert st.access(p) == s


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 6, 11, 16, 100, 257])
def test_wavelet_matches_linear_scan(sigma):
    rng = np.random.default_rng(40 + sigma)
    for n in [0, 1, 2, 100, 1337]:
        syms = random_symbols(rng, n, sigma)
        wt = WaveletTree(syms, sigma)
        idx = np.arange(n + 1)
        for c in range(sigma):
            expect = np.cumsum(np.concatenate([[0], (syms == c).astype(np.int64)]))
            assert np.array_equal(wt.rank_many(idx, c), expect), (sigma, n, c)
            i = int(rng.integers(0, n + 1))
            assert wt.rank(i, c) == expect[i] and wt.rank(n, c) == expect[n]
            pos = ref_positions(syms, c)
            assert wt.symbol_count(c) == pos.size
            if pos.size:
                js = np.arange(1, pos.size + 1)
                assert np.array_equal(wt.select_many(js, c), pos)
                j = int(rng.integers(1, pos.size + 1))
                assert wt.select(j, c) == pos[j - 1] and wt.select(pos.size, c) == pos[-1]
        if n:
            spots = rng.integers(0, n, size=min(n, 50))
            for p in spots:
                assert wt.access(int(p)) == syms[p]


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 16, 17, 256, 257])
def test_wavelet_matrix_layout(sigma):
    # level k holds bit nbits-1-k of every symbol, stably sorted by the bits
    # above it with the nearest one most significant: zeros first at each level.
    # sigma 1 and 2 make no partition, a constant string and lengths 0 and 1
    # leave a side of every partition empty, and sigma 256 and 257 key uint16.
    rng = np.random.default_rng(50 + sigma)
    nbits = (sigma - 1).bit_length()
    strings = [[int(s) for s in rng.integers(0, sigma, size=700)], [sigma - 1] * 300, [],
               [sigma // 2]]
    for syms in strings:
        levels = []
        for k in range(nbits):
            above = [nbits - 1 - m for m in reversed(range(k))]
            order = sorted(syms, key=lambda s: [(s >> b) & 1 for b in above])
            levels.append([(s >> (nbits - 1 - k)) & 1 for s in order])
        wt = WaveletTree(syms, sigma)
        assert wt.level_payload()[:2] == (sigma, len(syms))
        payload = wt.level_payload()[2]
        assert [unpack_bits(words, len(syms)).tolist() for words in payload] == levels
        level_bits = sum(PlainBitvector.from_words(len(syms), words).size_bits()
                         for words in payload)
        assert wt.size_bits() == level_bits + 64 * (nbits + 2 * sigma) + 192
        assert wt.symbol_counts().tolist() == np.bincount(syms, minlength=sigma).tolist()


@pytest.mark.parametrize("block_words", [1, 2, 3, 8, 16, 32, 2**40])
def test_bitplane_matches_linear_scan(block_words):
    rng = np.random.default_rng(90 + block_words)
    lengths = [0, 1, 63, 64, 65, 511, 512, 513, 512 * block_words - 1,
               512 * block_words, 512 * block_words + 1, 3000, 4095, 4096, 4097]
    # the last sub-block row padded with every count of zero words from 7 down to 0
    lengths += [1024 + 64 * k + 5 for k in range(8)]
    lengths = [n for n in lengths if n <= 3 * 2**14]  # the block edges of 2**40 are too far
    for n in lengths:
        syms = random_symbols(rng, n, 4, skew=[0.7, 0.2, 0.07, 0.03])
        bp = BitPlaneRank(syms, 4, block_words=block_words)
        _, length, _, low, high = bp.plane_payload()
        assert length == n and low.shape == high.shape == (n // 64 + 1,)
        # the zero padding past length matches symbol 0, and no rank counts it
        again = BitPlaneRank.from_planes(*bp.plane_payload())
        assert again.rank_many([n, n], [0, 0]).tolist() == [int((syms == 0).sum())] * 2
        idx = np.arange(n + 1)  # every word and sub-block edge
        for c in range(4):
            expect = np.cumsum(np.concatenate([[0], (syms == c).astype(np.int64)]))
            assert np.array_equal(bp.rank_many(idx, c), expect), (block_words, n, c)
            assert [bp.rank(int(i), c) for i in idx] == expect.tolist(), (block_words, n, c)
            pos = ref_positions(syms, c)
            assert bp.symbol_count(c) == pos.size
            if pos.size:
                js = np.arange(1, pos.size + 1)
                assert np.array_equal(bp.select_many(js, c), pos)
                assert [bp.select(int(j), c) for j in js] == pos.tolist(), (block_words, n, c)


def test_backends_agree():
    rng = np.random.default_rng(77)
    syms = random_symbols(rng, 20000, 4, skew=[0.45, 0.3, 0.2, 0.05])
    wt = WaveletTree(syms, 4)
    bp = BitPlaneRank(syms, 4, block_words=4)
    i = rng.integers(0, 20001, size=3000)
    c = rng.integers(0, 4, size=3000)
    assert np.array_equal(wt.rank_many(i, c), bp.rank_many(i, c))
    totals = np.array([wt.symbol_count(cc) for cc in range(4)])
    c2 = rng.integers(0, 4, size=3000)
    j = rng.integers(1, totals[c2] + 1)
    assert np.array_equal(wt.select_many(j, c2), bp.select_many(j, c2))


@pytest.mark.parametrize("make", [
    lambda s: WaveletTree(s, 4),
    lambda s: BitPlaneRank(s, 4, block_words=2),
])
def test_scalar_agrees_with_batch(make):
    rng = np.random.default_rng(13)
    syms = random_symbols(rng, 5000, 4)
    st = make(syms)
    i = rng.integers(0, 5001, size=100)
    c = rng.integers(0, 4, size=100)
    batch = st.rank_many(i, c)
    for ii, cc, want in zip(i, c, batch):
        assert st.rank(int(ii), int(cc)) == want
    totals = np.array([st.symbol_count(cc) for cc in range(4)])
    c = rng.integers(0, 4, size=100)
    j = rng.integers(1, totals[c] + 1)
    batch = st.select_many(j, c)
    for jj, cc, want in zip(j, c, batch):
        assert st.select(int(jj), int(cc)) == want


def test_select_is_right_inverse_of_rank():
    rng = np.random.default_rng(29)
    syms = random_symbols(rng, 4000, 4, skew=[0.9, 0.05, 0.04, 0.01])
    for st in (WaveletTree(syms, 4), BitPlaneRank(syms, 4)):
        for c in range(4):
            total = st.symbol_count(c)
            for j in range(1, total + 1, max(1, total // 40)):
                p = st.select(j, c)
                assert st.access(p) == c
                assert st.rank(p, c) == j - 1


def test_argument_validation():
    syms = np.array([0, 1, 2, 3, 0])
    for st in (WaveletTree(syms, 4), BitPlaneRank(syms, 4)):
        with pytest.raises(IndexError):
            st.rank(6, 0)
        with pytest.raises(IndexError):
            st.rank(2, 4)
        with pytest.raises(IndexError):
            st.rank(2, -1)
        with pytest.raises(ValueError):
            st.select(0, 0)
        with pytest.raises(ValueError):
            st.select(3, 1)
        with pytest.raises(IndexError):
            st.access(5)
    with pytest.raises(ValueError):
        WaveletTree(syms, 0)
    with pytest.raises(ValueError):
        WaveletTree(syms, 3)
    with pytest.raises(ValueError):
        BitPlaneRank(np.array([0, 4, 1]), 4)
    with pytest.raises(ValueError):  # not cut to 0 1 3
        WaveletTree([0.5, 1.7, 3.9], 4)
    with pytest.raises(ValueError):  # not cut to 0 2
        BitPlaneRank([0.5, 2.9], 4)
    with pytest.raises(ValueError):
        BitPlaneRank(syms, 4, block_words=0)
    # packed payloads: checked before any cast, whatever the number of levels
    one = np.zeros(1, np.uint64)
    for bad in (lambda: WaveletTree.from_level_payload(4, -5, [np.zeros(0, np.uint64)] * 2),
                lambda: WaveletTree.from_level_payload(1, -7, []),
                lambda: WaveletTree.from_level_payload(0, 10, [one]),
                lambda: WaveletTree.from_level_payload(2.7, 10, [one]),
                lambda: WaveletTree.from_level_payload(4, 10, [np.array([5.9]), np.array([2.2])]),
                lambda: BitPlaneRank.from_planes(4, 10, 8, np.array([3.7]), np.array([1.2])),
                lambda: BitPlaneRank.from_planes(4, -5, 8, [], [])):
        with pytest.raises(ValueError):
            bad()


def test_single_symbol_alphabet():
    wt = WaveletTree(np.zeros(10, dtype=np.int64), 1)
    assert wt.rank(7, 0) == 7
    assert wt.select(10, 0) == 9
    assert wt.access(3) == 0


def test_block_words_space_tradeoff():
    rng = np.random.default_rng(55)
    syms = random_symbols(rng, 1 << 20, 4)
    n = 1 << 20
    sizes = {}
    for bw in (4, 8, 16, 32):
        bp = BitPlaneRank(syms, 4, block_words=bw)
        sizes[bw] = bp.size_bits()
        assert bp.rank(n, 0) == ref_rank(syms, n, 0)
    # plane payload is 2 bits per symbol; counts shrink as blocks grow
    assert sizes[4] > sizes[8] > sizes[16] > sizes[32]
    assert sizes[8] <= 2.2 * n
    assert sizes[32] >= 2 * n


def test_bitplane_count_tables_have_a_row_per_symbol_of_sigma():
    # over 2**20 symbols a row is 257 uint32 block counts, 2049 uint16
    # sub-block counts and one int64 total: 41,072 bits
    rng = np.random.default_rng(5)
    sizes = {1: 2_139_440, 2: 2_180_512, 3: 2_221_584, 4: 2_262_656}
    for sigma, size in sizes.items():
        bp = BitPlaneRank(rng.integers(0, sigma, size=1 << 20), sigma)
        assert bp._counts.shape == (sigma, 257) and bp._sub.shape == (sigma, 2049)
        assert bp._totals.shape == (sigma,)
        assert len(bp._counts_mv) == len(bp._sub_mv) == sigma
        assert bp.size_bits() == size == sizes[4] - (4 - sigma) * 41_072


def test_wavelet_payload_roundtrip():
    rng = np.random.default_rng(61)
    syms = random_symbols(rng, 1000, 6)
    wt = WaveletTree(syms, 6)
    again = WaveletTree.from_level_payload(*wt.level_payload())
    i = rng.integers(0, 1001, size=200)
    c = rng.integers(0, 6, size=200)
    assert np.array_equal(wt.rank_many(i, c), again.rank_many(i, c))
    # the same levels read as an alphabet of 5 hold symbol 5, past that alphabet
    with pytest.raises(ValueError, match="past the alphabet of size 5"):
        WaveletTree.from_level_payload(5, 1000, wt.level_payload()[2])


@pytest.mark.parametrize("sigma", [3, 5, 6, 7, 300])
def test_wavelet_levels_that_hold_a_symbol_past_sigma_are_refused(sigma):
    # sigma + 1 symbols take as many levels as sigma when sigma is no power of 2
    _, length, levels = WaveletTree(np.arange(sigma + 1), sigma + 1).level_payload()
    assert len(levels) == (sigma - 1).bit_length()
    with pytest.raises(ValueError, match=f"past the alphabet of size {sigma}"):
        WaveletTree.from_level_payload(sigma, length, levels)


def test_bit_planes_that_hold_a_symbol_past_sigma_are_refused():
    syms = np.array([0, 1, 3, 2, 1, 0, 0])
    _, length, bw, low, high = BitPlaneRank(syms, 4).plane_payload()
    for sigma in (1, 2, 3):
        for make in (lambda: BitPlaneRank.from_planes(sigma, length, bw, low, high),
                     lambda: BitPlaneRank(syms, sigma)):
            with pytest.raises(ValueError, match=f"past the alphabet of size {sigma}"):
                make()
    small = BitPlaneRank(syms[syms < 3], 3)
    assert small.sigma == 3 and small.symbol_counts().tolist() == [3, 2, 1]
    with pytest.raises(IndexError):
        small.rank(2, 3)


def test_bitplane_payload_roundtrip():
    rng = np.random.default_rng(67)
    syms = random_symbols(rng, 1000, 4)
    bp = BitPlaneRank(syms, 4, block_words=2)
    sigma, length, bw, low, high = bp.plane_payload()
    again = BitPlaneRank.from_planes(sigma, length, bw, low, high)
    # planes that arrive as strided views, which the scalar kernels cannot read in place
    strided = BitPlaneRank.from_planes(sigma, length, bw, np.repeat(low, 2)[::2],
                                       np.repeat(high, 2)[::2])
    i = rng.integers(0, 1001, size=200)
    c = rng.integers(0, 4, size=200)
    assert np.array_equal(bp.rank_many(i, c), again.rank_many(i, c))
    assert [strided.rank(a, b) for a, b in zip(i, c)] == bp.rank_many(i, c).tolist()
    j = rng.integers(1, bp.symbol_counts()[c] + 1)
    assert [strided.select(a, b) for a, b in zip(j, c)] == bp.select_many(j, c).tolist()


def test_numpy_scalar_arguments():
    # indices often arrive as np.int64 (e.g. loop over an array); the scalar
    # paths must not push Python big ints through numpy shifts
    rng = np.random.default_rng(71)
    syms = random_symbols(rng, 300, 4)
    syms[:64] = 3  # force high bits in the first plane word
    for st in (WaveletTree(syms, 4), BitPlaneRank(syms, 4, block_words=1)):
        p = np.int64(63)
        assert st.access(p) == syms[63]
        i, c = np.int64(300), np.int64(3)
        want = int((syms == 3).sum())
        assert st.rank(i, c) == want
        assert st.select(np.int64(want), c) == int(np.flatnonzero(syms == 3)[-1])


def test_block_words_beyond_the_string():
    # from a container: a block far longer than the string still answers exactly
    zeros = np.zeros(2, dtype=np.uint64)
    bp = BitPlaneRank.from_planes(4, 100, 2**40, zeros, zeros)
    assert bp.rank_many([0, 50, 100], 0).tolist() == [0, 50, 100]
    assert bp.select_many([1, 100], 0).tolist() == [0, 99]
    assert bp.rank(100, 0) == 100 and bp.select(100, 0) == 99
    rng = np.random.default_rng(83)
    syms = random_symbols(rng, 3000, 4)
    ref = BitPlaneRank(syms, 4, block_words=1)
    i = rng.integers(0, 3001, size=500)
    c = rng.integers(0, 4, size=500)
    j = rng.integers(1, ref.symbol_counts()[c] + 1)
    _, length, _, low, high = ref.plane_payload()
    for bw in (2**40, 2**54 - 1):  # 512 * (2**54 - 1) is the largest block int64 holds
        for bp in (BitPlaneRank(syms, 4, block_words=bw),
                   BitPlaneRank.from_planes(4, length, bw, low, high)):
            assert np.array_equal(bp.rank_many(i, c), ref.rank_many(i, c))
            assert np.array_equal(bp.select_many(j, c), ref.select_many(j, c))
            assert bp.rank(int(i[0]), int(c[0])) == ref.rank(int(i[0]), int(c[0]))
            assert bp.select(int(j[0]), int(c[0])) == ref.select(int(j[0]), int(c[0]))


@pytest.mark.parametrize("block_words", [1, 8, 2**40])
def test_bitplane_batch_over_several_chunks_matches_scalar(block_words):
    rng = np.random.default_rng(89)
    syms = random_symbols(rng, 3000, 4)
    bp = BitPlaneRank(syms, 4, block_words=block_words)
    q = 3 * bp._chunk + 17
    i = rng.integers(0, 3001, size=q)
    c = rng.integers(0, 4, size=q)
    j = rng.integers(1, bp.symbol_counts()[c] + 1)
    assert bp.rank_many(i, c).tolist() == [bp.rank(a, b) for a, b in zip(i, c)]
    assert bp.select_many(j, c).tolist() == [bp.select(a, b) for a, b in zip(j, c)]


@pytest.mark.parametrize("block_words", [2**54, 2**60, 2**64 - 1,
                                         0, -1, 2.0])
def test_block_words_whose_block_overflows_int64_are_rejected(block_words):
    zeros = np.zeros(2, dtype=np.uint64)
    with pytest.raises(ValueError, match="block_words"):
        BitPlaneRank.from_planes(4, 100, block_words, zeros, zeros)
    with pytest.raises(ValueError, match="block_words"):
        BitPlaneRank(np.zeros(100, dtype=np.int64), 4, block_words=block_words)


def test_bitplane_matches_one_window_per_query(monkeypatch):
    # every query matches the plane words of one sub-block once, whatever the
    # block size: scalar rank and select through the Python-int match, each
    # chunk of a batch through the array match, on any word or block edge
    calls = []

    def counting(match):
        def counted(*args):
            calls.append(args)
            return match(*args)
        return counted

    for name in ("_match_words", "_match_int"):
        monkeypatch.setattr(strrank, name, counting(getattr(strrank, name)))
    rng = np.random.default_rng(97)
    syms = random_symbols(rng, 3000, 4)

    def count(call, *args):
        calls.clear()
        call(*args)
        return len(calls)

    for block_words in (1, 8, 32, 2**40):
        bp = BitPlaneRank(syms, 4, block_words=block_words)
        assert bp._rows.shape[-1] <= 8, block_words
        for i in (0, 64, 511, 512, 1000, 2048, 3000):
            assert count(bp.rank, i, 2) == 1, (block_words, i)
        for c in range(4):
            assert count(bp.select, int(bp.symbol_counts()[c]), c) == 1, (block_words, c)
            assert count(bp.select, 1, c) == 1, (block_words, c)
        for q in (2, 3 * bp._chunk + 17):
            chunks = -(-q // bp._chunk)
            i = rng.integers(0, 3001, size=q)
            c = rng.integers(0, 4, size=q)
            j = rng.integers(1, bp.symbol_counts()[c] + 1)
            assert count(bp.rank_many, i, c) == chunks, block_words
            assert count(bp.select_many, j, c) == chunks, block_words


@pytest.mark.parametrize("block_words", [128, 129, 2**40])
def test_bitplane_counts_do_not_wrap_on_a_long_run(block_words):
    # a run of one symbol longer than 2**16 fills the relative counts of a
    # block to 512 * (block_words - 1) and the select targets past 2**16
    rng = np.random.default_rng(101)
    syms = random_symbols(rng, 3 * 2**16 + 77, 4)
    syms[:2**16 + 3000] = 1  # from a block start, so a relative count reaches 2**16
    bp = BitPlaneRank(syms, 4, block_words=block_words)
    n = syms.size
    edges = np.arange(0, n + 1, 512)
    idx = np.unique(np.clip(np.concatenate([edges - 1, edges, edges + 1, [n]]), 0, n))
    for c in range(4):
        cum = np.concatenate([[0], np.cumsum(syms == c)])
        assert np.array_equal(bp.rank_many(idx, c), cum[idx]), c
        assert [bp.rank(int(i), c) for i in idx] == cum[idx].tolist(), c
        pos = ref_positions(syms, c)
        # the j whose answer sits at or next to a sub-block edge, and the last one
        js = np.unique(np.clip(np.concatenate([cum[idx], cum[idx] + 1, [pos.size]]),
                               1, pos.size))
        assert np.array_equal(bp.select_many(js, c), pos[js - 1]), c
        assert [bp.select(int(j), c) for j in js] == pos[js - 1].tolist(), c
