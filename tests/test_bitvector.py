import numpy as np
import pytest

from degenrank.bitvector import PlainBitvector, SparseBitvector


def ref_rank(bits, i, b):
    return int((bits[:i] == b).sum())


def ref_positions(bits, b):
    return np.flatnonzero(bits == b)


def random_bits(rng, n, density):
    return (rng.random(n) < density).astype(np.uint8)


# The worked indicator vector used throughout the docs: nine bits, five ones.
KNOWN = "100101101"


def test_known_pattern_rank_select():
    bv = PlainBitvector(KNOWN)
    assert bv.length == 9
    assert bv.ones_count == 5
    assert bv.rank(8, 1) == 4
    assert bv.select(3, 1) == 5
    bits = np.frombuffer(KNOWN.encode(), dtype=np.uint8) - ord("0")
    for i in range(10):
        for b in (0, 1):
            assert bv.rank(i, b) == ref_rank(bits, i, b)
    for b in (0, 1):
        pos = ref_positions(bits, b)
        for j, p in enumerate(pos, start=1):
            assert bv.select(j, b) == p


def skewed_vectors():
    # one lone one after a long zero run: the zero search spans every superblock
    lone = np.zeros(3 * 8192 + 5, dtype=np.uint8)
    lone[-1] = 1
    # runs of 5,000 ones and 3 zeros: most superblocks hold no zero at all
    runs = np.tile(np.concatenate([np.ones(5000, np.uint8), np.zeros(3, np.uint8)]), 6)
    return [lone, runs]


@pytest.mark.parametrize("cls", [PlainBitvector, SparseBitvector])
def test_rank_select_match_linear_scan(cls):
    rng = np.random.default_rng(7)
    lengths = [0, 1, 63, 64, 65, 511, 512, 513, 1000, 4096]
    densities = [0.0, 0.02, 0.5, 0.97, 1.0]
    vectors = [random_bits(rng, n, d) for n in lengths for d in densities] + skewed_vectors()
    for bits in vectors:
        n = bits.size
        bv = cls(bits) if cls is PlainBitvector else SparseBitvector.from_bits(bits)
        idx = np.arange(n + 1)
        for b in (0, 1):
            expect = np.cumsum(np.concatenate([[0], (bits == b).astype(np.int64)]))
            got = bv.rank_many(idx, b)
            assert np.array_equal(got, expect), (cls.__name__, n, b)
            pos = ref_positions(bits, b)
            if pos.size:
                js = np.arange(1, pos.size + 1)
                assert np.array_equal(bv.select_many(js, b), pos)
                assert [bv.select(int(j), b) for j in js] == pos.tolist(), (cls.__name__, n, b)


@pytest.mark.parametrize("cls", [PlainBitvector, SparseBitvector])
def test_scalar_agrees_with_batch(cls):
    rng = np.random.default_rng(11)
    bits = random_bits(rng, 2500, 0.3)
    bv = cls(bits) if cls is PlainBitvector else SparseBitvector.from_bits(bits)
    checks = rng.integers(0, 2501, size=64)
    for b in (0, 1):
        batch = bv.rank_many(checks, b)
        for i, want in zip(checks, batch):
            assert bv.rank(int(i), b) == want
        total = bv.count(b)
        js = rng.integers(1, total + 1, size=64)
        batch = bv.select_many(js, b)
        for j, want in zip(js, batch):
            assert bv.select(int(j), b) == want


def test_select_is_right_inverse_of_rank():
    rng = np.random.default_rng(3)
    bits = random_bits(rng, 3000, 0.4)
    bv = PlainBitvector(bits)
    for b in (0, 1):
        for j in range(1, bv.count(b) + 1, 17):
            p = bv.select(j, b)
            assert bv.bit(p) == b
            assert bv.rank(p, b) == j - 1
            assert bv.rank(p + 1, b) == j


def test_dense_sampling_bracket():
    # enough ones that select crosses several sample strides
    rng = np.random.default_rng(19)
    bits = random_bits(rng, 3 * 8192 * 8, 0.9)
    bv = PlainBitvector(bits)
    pos = ref_positions(bits, 1)
    for j in [1, 8192, 8193, 16384, 16385, pos.size]:
        assert bv.select(j, 1) == pos[j - 1]
    js = rng.integers(1, pos.size + 1, size=500)
    assert np.array_equal(bv.select_many(js, 1), pos[js - 1])


def test_sparse_matches_plain():
    rng = np.random.default_rng(23)
    bits = random_bits(rng, 6000, 0.01)
    plain = PlainBitvector(bits)
    sparse = SparseBitvector.from_bits(bits)
    idx = np.arange(6001)
    for b in (0, 1):
        assert np.array_equal(plain.rank_many(idx, b), sparse.rank_many(idx, b))
        total = plain.count(b)
        if total:
            js = np.arange(1, total + 1)[:2000]
            assert np.array_equal(plain.select_many(js, b), sparse.select_many(js, b))


def test_sparse_select0_two_ones_in_hundred():
    sv = SparseBitvector(100, [7, 42])
    bits = np.zeros(100, dtype=np.uint8)
    bits[[7, 42]] = 1
    assert sv.select(40, 0) == ref_positions(bits, 0)[39] == 40


def test_sparse_select0_prefix_identity():
    # the prefix ending at the k-th one holds (position - k + 1) zeroes
    ones = np.array([2, 3, 10, 11, 12, 40])
    sv = SparseBitvector(64, ones)
    bits = np.zeros(64, dtype=np.uint8)
    bits[ones] = 1
    zeros = ref_positions(bits, 0)
    for j in range(1, zeros.size + 1):
        assert sv.select(j, 0) == zeros[j - 1]
    assert np.array_equal(sv.select_many(np.arange(1, zeros.size + 1), 0), zeros)


def test_argument_validation():
    bv = PlainBitvector("10110")
    sv = SparseBitvector(5, [0, 2, 3])
    for v in (bv, sv):
        with pytest.raises(IndexError):
            v.rank(6, 1)
        with pytest.raises(IndexError):
            v.rank(-1, 1)
        with pytest.raises(ValueError):
            v.select(0, 1)
        with pytest.raises(ValueError):
            v.select(4, 1)
        with pytest.raises(ValueError):
            v.select(3, 0)
        with pytest.raises(ValueError):
            v.rank(2, 2)
        with pytest.raises(IndexError):
            v.bit(5)
    with pytest.raises(ValueError):
        SparseBitvector(5, [3, 3])
    with pytest.raises(ValueError):
        SparseBitvector(5, [5])
    with pytest.raises(ValueError):
        PlainBitvector([0, 2, 1])
    # checked before the casts, which would narrow each of these to bits or ints
    for bad in (lambda: PlainBitvector(np.array([256, 1, 257])),
                lambda: PlainBitvector(np.array([-255, 0])),
                lambda: PlainBitvector([0.5, 1.0]),
                lambda: PlainBitvector([256, 1]),
                lambda: SparseBitvector(10, [1.5, 4.2]),
                lambda: SparseBitvector(10.7, [1]),
                lambda: SparseBitvector(-1, []),
                # packed payloads: a negative, fractional or 2-D length or payload,
                # and a negative word that the uint64 cast would wrap to 64 ones
                lambda: PlainBitvector.from_words(-5, np.zeros(0, np.uint64)),
                lambda: PlainBitvector.from_words(2.5, np.zeros(1, np.uint64)),
                lambda: PlainBitvector.from_words(10, np.array([1.5])),
                lambda: PlainBitvector.from_words(70, np.array([-1, 0])),
                lambda: PlainBitvector.from_words(10, np.array([[1]], dtype=np.uint64))):
        with pytest.raises(ValueError):
            bad()


def test_empty_and_constant_vectors():
    empty = PlainBitvector([])
    assert empty.length == 0
    assert empty.rank(0, 1) == 0
    with pytest.raises(ValueError):
        empty.select(1, 1)
    zeros = PlainBitvector(np.zeros(100, dtype=np.uint8))
    assert zeros.rank(100, 1) == 0
    assert zeros.select(100, 0) == 99
    with pytest.raises(ValueError):
        zeros.select(1, 1)
    ones = PlainBitvector(np.ones(100, dtype=np.uint8))
    assert ones.select(100, 1) == 99
    assert ones.rank(57, 1) == 57


def test_plain_size_within_budget():
    n = 1 << 20
    rng = np.random.default_rng(5)
    bv = PlainBitvector(random_bits(rng, n, 0.5))
    assert n <= bv.size_bits() <= 1.3 * n + 2048
    # empty vector costs only the fixed support words
    assert PlainBitvector([]).size_bits() <= 512
    # the words, one absolute and one packed relative count word per 512 bits,
    # and the length and ones-count scalars: select stores nothing of its own
    for length in (0, 1, 511, 512, 513, 3 * 8192 * 8):
        size = PlainBitvector(np.ones(length, dtype=np.uint8)).size_bits()
        assert size == 64 * (length // 64 + 1) + 128 * (length // 512 + 1) + 128, length


def test_sparse_size_scales_with_ones():
    sv = SparseBitvector(10**6, np.arange(10) * 997)
    # ten positions in a million fit 32-bit entries
    assert sv.size_bits() <= 10 * 32 + 2 * 64
    tiny = SparseBitvector(200, [3, 5])
    assert tiny.size_bits() <= 2 * 8 + 2 * 64
    wide = SparseBitvector(1 << 40, [123, 1 << 39])
    assert wide.positions()[1] == 1 << 39


def test_from_words_roundtrip():
    rng = np.random.default_rng(31)
    bits = random_bits(rng, 777, 0.5)
    bv = PlainBitvector(bits)
    again = PlainBitvector.from_words(bv.length, bv._words)
    assert np.array_equal(again.bits(), bits)
    assert again.rank(777, 1) == bv.rank(777, 1)
    bad = bv._words.copy()
    bad[-1] |= np.uint64(1) << np.uint64(63)
    with pytest.raises(ValueError):
        PlainBitvector.from_words(bv.length, bad)
    with pytest.raises(ValueError):
        PlainBitvector.from_words(100, bv._words)


def test_numpy_scalar_arguments():
    bits = np.ones(130, dtype=np.uint8)
    bits[1] = 0
    pb = PlainBitvector(bits)
    assert pb.rank(np.int64(127), 1) == 126
    assert pb.select(np.int64(100), 1) == 100
    assert pb.bit(np.int64(63)) == 1
    sv = SparseBitvector(100, [7, 42])
    assert sv.rank(np.int64(50), 1) == 2
    assert sv.select(np.int64(2), 1) == 42


@pytest.mark.parametrize("length", [255, 256, 65535, 65536])
def test_sparse_rank_and_bit_at_dtype_edges(length):
    # positions are stored in the narrowest dtype holding the length, and
    # search keys are cast to it: prefix length and position length-1 must fit
    ones = [0, length // 2, length - 1]
    sv = SparseBitvector(length, ones)
    assert sv.rank(length, 1) == 3
    assert sv.rank(length, 0) == length - 3
    assert sv.rank(length - 1, 1) == 2
    assert sv.bit(length - 1) == 1
    assert sv.bit(length - 2) == 0
    i = np.array([0, 1, length - 1, length])
    assert sv.rank_many(i, 1).tolist() == [0, 1, 2, 3]
    assert sv.rank_many(i, 0).tolist() == (i - [0, 1, 2, 3]).tolist()
    with pytest.raises(IndexError):
        sv.rank(length + 1, 1)
    with pytest.raises(IndexError):
        sv.rank_many([length + 1], 1)
    with pytest.raises(IndexError):
        sv.bit(length)
    empty = SparseBitvector(length, [])
    assert empty.rank(length, 1) == 0 and empty.bit(length - 1) == 0
