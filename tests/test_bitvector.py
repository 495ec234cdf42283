import gc
import sys
import tracemalloc

import numpy as np
import pytest

from degenrank import bitvector, build_reduction, dumps, loads
from degenrank._bits import narrow_uint, select_in_word, select_in_words
from degenrank.bitvector import _MSBS9, _ZERO9, PlainBitvector, SparseBitvector
from degenrank.degenerate import DegenerateString


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


def count_calls(fn, *args) -> int:
    """Python and C function calls made by fn(*args), counted by sys.setprofile
    with the collector off, so that no gc callback adds calls of its own."""
    seen = 0

    def profile(frame, event, arg):
        nonlocal seen
        seen += event in ("call", "c_call")

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return seen


def test_select_makes_the_same_calls_for_either_bit():
    # one search over the stored counts of either bit, so a zero select
    # costs no more calls than a one select, scalar or batched, and a batch
    # that mixes the bits makes the same calls whichever bits it holds
    bv = PlainBitvector(random_bits(np.random.default_rng(41), 1 << 16, 0.5))
    zeros, ones = bv.count(0), bv.count(1)
    for j0, j1 in ((1, 1), (zeros // 3, ones // 3), (zeros, ones)):
        for kernel, arg in ((bv._select, int), (bv._select_many, lambda j: np.array([j]))):
            calls = count_calls(kernel, arg(j0), 0), count_calls(kernel, arg(j1), 1)
            assert calls[0] == calls[1], (kernel.__name__, j0, j1, calls)
        # each query's index in range for its own bit: j0 for a zero, j1 for a one
        bits = [np.array(b) for b in ([0, 1], [0, 0], [1, 1])]
        calls = [count_calls(bv._select_many, np.where(b == 0, j0, j1), b) for b in bits]
        assert calls == calls[:1] * 3, (j0, j1, calls)


# The calls of a one-bit batched select, select_in_words aside, as counted
# before the kernel also took one bit per query: that must cost a one-bit
# batch, R's select among them, nothing.
_ONE_BIT_SELECT_CALLS = 6


def test_a_one_bit_batched_select_makes_no_more_calls(monkeypatch):
    # select_in_words is left out: it reads its byte counts through two views
    monkeypatch.setattr(bitvector, "select_in_words", lambda words, ranks: ranks)
    bv = PlainBitvector(random_bits(np.random.default_rng(42), 1 << 16, 0.5))
    for b in (0, 1):
        for j in ([1], [5, 900, bv.count(b)]):
            assert count_calls(bv._select_many, np.array(j), b) <= _ONE_BIT_SELECT_CALLS, (b, j)


def mixed_selects(bv, rng):
    """Every select of both bits of bv, shuffled: (j, b) as int64 arrays."""
    j = np.concatenate([np.arange(1, bv.count(b) + 1) for b in (0, 1)])
    b = np.repeat([0, 1], [bv.count(0), bv.count(1)])
    order = rng.permutation(j.size)
    return j[order], b[order]


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_a_batch_that_mixes_the_bits_answers_as_one_bit_batches(loaded):
    # lengths at word and superblock edges; no ones, one, half, all but one and all
    rng = np.random.default_rng(45)
    for length in (0, 1, 63, 64, 65, 511, 512, 513, 1023, 1025, 4097):
        for ones in sorted({0, min(1, length), length // 2, max(length - 1, 0), length}):
            bits = np.zeros(length, dtype=np.uint8)
            bits[rng.choice(length, ones, replace=False)] = 1
            bv = make_vector(PlainBitvector, bits, loaded)
            j, b = mixed_selects(bv, rng)
            got = bv._select_many(j, b)
            for bit in (0, 1):
                at = np.flatnonzero(b == bit)
                assert np.array_equal(got[at], bv._select_many(j[at], bit)), (length, ones)
                assert got[at].tolist() == [bv._select(v, bit) for v in j[at].tolist()]
                assert np.array_equal(np.sort(got[at]), ref_positions(bits, bit))


def test_one_query_select_allocates_no_per_superblock_array():
    # 2**15 superblocks: a count array built or cast per call would take 128 KiB or more
    n = 1 << 24
    words = np.zeros(n // 64 + 1, dtype=np.uint64)
    words[:-1] = np.random.default_rng(43).integers(0, 2**64, n // 64, dtype=np.uint64)
    bv = PlainBitvector.from_words(n, words)
    for b in (0, 1):
        for j in (1, bv.count(b) // 3, bv.count(b)):
            tracemalloc.start()
            try:
                bv.select(j, b)
                bv.select_many([j], b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (b, j, peak)


def widen(bv):
    """Give bv the int64 counts of a vector of 2**32 bits or more."""
    bv._use_counts(bv._counts.astype(np.int64))
    return bv


def test_wide_counts_answer_the_same():
    # a vector of 2**32 bits or more keeps int64 counts, too big for a
    # test: widen the counts of a small one, which must answer the same
    bits = random_bits(np.random.default_rng(47), 5000, 0.3)
    narrow, wide = PlainBitvector(bits), PlainBitvector(bits)
    widen(wide)
    # every count array and memoryview that a kernel reads is the widened one,
    # and the inventory built over it is the same
    assert wide._counts.dtype == np.int64
    assert wide._after.base is wide._counts and wide._after.dtype == np.int64
    assert wide._counts_mv.itemsize == 8
    assert np.array_equal(wide._inventory, narrow._inventory)
    idx = np.arange(bits.size + 1)
    for b in (0, 1):
        assert np.array_equal(wide.rank_many(idx, b), narrow.rank_many(idx, b))
        assert [wide.rank(int(i), b) for i in idx[::7]] == narrow.rank_many(idx[::7], b).tolist()
        js = np.arange(1, narrow.count(b) + 1)
        assert np.array_equal(wide.select_many(js, b), narrow.select_many(js, b))
        assert [wide.select(int(j), b) for j in js[::7]] == narrow.select_many(js[::7], b).tolist()
    j, b = mixed_selects(narrow, np.random.default_rng(48))
    assert np.array_equal(wide._select_many(j, b), narrow._select_many(j, b))


def bracket_layouts(length):
    """Layouts of length bits that stretch a select inventory bracket, by name."""
    half = length // 2
    layouts = {"zeros": np.zeros(length, np.uint8), "ones": np.ones(length, np.uint8),
                "alternating": np.arange(length, dtype=np.uint8) & 1,
                "random": random_bits(np.random.default_rng(length), length, 0.5)}
    for b in (0, 1):
        # a run of b, then a lone bit of the other value
        layouts[f"run{b}-lone"] = np.array([b] * (length - 1) + [1 - b] * min(length, 1), np.uint8)
        # a run of b, a run of the other value, then a lone b: b's last bracket
        # spans the whole second run
        layouts[f"run{b}-gap-lone"] = np.array(
            [b] * half + [1 - b] * max(length - half - 1, 0) + [b] * (length > half), np.uint8)
    return layouts


def check_selects_against_scan(bv, bits, rng):
    """Every select of bv against a linear scan of bits: scalar, one bit
    per batch, and both bits in one shuffled batch."""
    pos = [ref_positions(bits, b) for b in (0, 1)]
    for b in (0, 1):
        js = np.arange(1, pos[b].size + 1)
        assert np.array_equal(bv._select_many(js, b), pos[b]), b
        assert [bv._select(j, b) for j in js.tolist()] == pos[b].tolist(), b
    j, b = mixed_selects(bv, rng)
    assert bv._select_many(j, b).tolist() == [pos[c][v - 1] for v, c in zip(j, b)]


def test_select_inventory_brackets_match_linear_scan():
    # lengths at superblock edges, around 8 superblocks, and past the
    # small-vector rate; int64 counts as a vector of 2**32 bits keeps them
    rng = np.random.default_rng(49)
    widest = []
    for length in (0, 1, 511, 512, 513, 8 * 512 - 1, 8 * 512 + 1, 128 * 512 + 1):
        for name, bits in bracket_layouts(length).items():
            for bv in (PlainBitvector(bits), widen(PlainBitvector(bits))):
                check_selects_against_scan(bv, bits, rng)
                widest.append(max(bv._widest))
    # the layouts take both the bounded steps and the search past them
    assert any(0 < w <= bitvector._MAX_STEPS for w in widest)
    assert any(w > bitvector._MAX_STEPS for w in widest)


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
                # positions are checked in their own dtype: one past the int64
                # range, and narrow ones that descend, which np.diff would wrap
                lambda: SparseBitvector(1 << 40, np.array([1, 1 << 63], dtype=np.uint64)),
                lambda: SparseBitvector(10, np.array([3, 2**64 - 1], dtype=np.uint64)),
                lambda: SparseBitvector(300, np.array([5, 3], dtype=np.uint16)),
                # packed payloads: a negative, fractional or 2-D length or payload,
                # and a negative word that the uint64 cast would wrap to 64 ones
                lambda: PlainBitvector.from_words(-5, np.zeros(0, np.uint64)),
                lambda: PlainBitvector.from_words(2.5, np.zeros(1, np.uint64)),
                lambda: PlainBitvector.from_words(10, np.array([1.5])),
                lambda: PlainBitvector.from_words(70, np.array([-1, 0])),
                lambda: PlainBitvector.from_words(10, np.array([[1]], dtype=np.uint64))):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("v", [PlainBitvector("10110"), SparseBitvector(5, [0, 2, 3])],
                         ids=["plain", "sparse"])
def test_a_bit_value_is_an_integer_0_or_1(v):
    calls = {"rank": lambda b: v.rank(2, b), "rank_many": lambda b: v.rank_many([2], b),
             "select": lambda b: v.select(1, b), "select_many": lambda b: v.select_many([1], b),
             "count": v.count}
    for name, call in calls.items():
        for bad in (1.0, 0.0, np.float64(1.0), "1", 2, -1, True):
            with pytest.raises(ValueError):
                call(bad)
        for good, same in ((np.int8(1), 1), (np.array(0), 0)):
            assert np.array_equal(call(good), call(same)), name


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
    # the words; per 512-bit superblock two 32-bit counts and one packed
    # relative count word, and one count more; the select inventory; and the
    # length and ones-count scalars
    for length in (0, 1, 511, 512, 513, 128 * 512, 3 * 8192 * 8):
        for ones in (length, length // 3):
            bits = np.zeros(length, dtype=np.uint8)
            bits[:ones] = 1
            bv = PlainBitvector(bits)
            n_super = length // 512 + 1
            counts = 32 * (2 * n_super + 1) + 64 * n_super
            inventory = 8 * np.dtype(narrow_uint(2 * n_super)).itemsize * sum(
                inventory_entries(count, n_super) for count in (length - ones, ones))
            assert bv.size_bits() == 64 * (length // 64 + 1) + counts + inventory + 128, length
            # and size_bits counts every array the vector holds, each once
            held = {}
            for value in vars(bv).values():
                if isinstance(value, np.ndarray):
                    while isinstance(value.base, np.ndarray):
                        value = value.base
                    held[id(value)] = value
            assert bv.size_bits() == 8 * sum(a.nbytes for a in held.values()) + 128, length


def inventory_entries(count: int, n_super: int) -> int:
    """The inventory entries of a bit with count occurrences: its 1st, every
    (2**s)-th and its last, 2**s about gap times its occurrences per superblock."""
    if not count:
        return 0
    gap = bitvector._GAP if n_super >= bitvector._SMALL_SUPERS else bitvector._SMALL_GAP
    s = max(int(gap * count / n_super).bit_length() - 1, 0)
    return (count >> s) + 2


def test_sparse_vector_copies_its_positions_once():
    # positions as loads hands them over, in their stored dtype: checked in it
    # and cast once, not widened to int64 first
    ones = np.arange(0, 1 << 20, 3, dtype=np.uint32)
    tracemalloc.start()
    try:
        sv = SparseBitvector(1 << 20, ones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sv._ones.dtype == np.uint32 and not np.shares_memory(sv._ones, ones)
    assert peak < 1.5 * ones.nbytes, (peak, ones.nbytes)


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


def test_select_in_word_matches_bit_by_bit_scan():
    rng = np.random.default_rng(53)
    words = [int(w) for w in rng.integers(0, 2**63, 40, dtype=np.uint64)]
    words += [int(np.uint64(w) | np.uint64(1 << 63)) for w in words[:10]]
    words += [1, 1 << 63, 2**64 - 1, 0xFF00FF00FF00FF00, 0x8000000100000001]
    for word in words:
        ones = [p for p in range(64) if word >> p & 1]
        assert [select_in_word(word, r) for r in range(len(ones))] == ones, hex(word)


def test_select_in_words_matches_select_in_word():
    rng = np.random.default_rng(59)
    words = [2**64 - 1, 1, 1 << 63, 0x8000000000000001]
    words += [int(w) for w in rng.integers(0, 2**64, 200, dtype=np.uint64)]
    for density in (0.05, 0.95):
        words += [int(w) for w in np.packbits(random_bits(rng, 64 * 50, density),
                                              bitorder="little").view("<u8")]
    word, rank = zip(*[(w, r) for w in words for r in range(w.bit_count())])
    got = select_in_words(np.array(word, dtype=np.uint64), np.array(rank, dtype=np.int64))
    assert got.tolist() == [select_in_word(w, r) for w, r in zip(word, rank)]


@pytest.mark.parametrize("length", [511, 512, 513, 4097])
def test_select_of_either_bit_across_word_counts_past_255(length):
    # select9 compares 9-bit word counts; a count past 255 sets the top bit
    # of its field, the case the broadword comparison must get right
    rng = np.random.default_rng(length)
    top_bit_seen = [False, False]
    for density in (0.0, 0.02, 0.5, 0.98, 1.0):
        bits = random_bits(rng, length, density)
        bv = PlainBitvector(bits)
        top_bit_seen[0] |= bool(((_ZERO9 - bv._block9) & _MSBS9).any())
        top_bit_seen[1] |= bool((bv._block9 & _MSBS9).any())
        for b in (0, 1):
            pos = ref_positions(bits, b).tolist()
            js = list(range(1, len(pos) + 1))
            assert bv.select_many(js, b).tolist() == pos, (density, b)
            assert [bv.select(j, b) for j in js] == pos, (density, b)
    assert top_bit_seen == [True, True]


def loaded_vector(cls, bits):
    """A vector of these bits as container.loads rebuilds it inside a
    structure: a wavelet level of one-symbol sets, whose words are read-only
    views of the blob, or E of sets that are empty where a bit is set."""
    if cls is PlainBitvector:
        x = DegenerateString.from_sets(2, [[b] for b in bits.tolist()])
        return loads(dumps(build_reduction(x, "reduction-i", "wavelet")))._S._levels[0]
    x = DegenerateString.from_sets(1, [[] if b else [0] for b in bits.tolist()])
    return loads(dumps(build_reduction(x, "reduction-iii", "wavelet")))._E


def make_vector(cls, bits, loaded):
    if loaded:
        return loaded_vector(cls, bits)
    return cls(bits) if cls is PlainBitvector else SparseBitvector.from_bits(bits)


def check_scalar_kernels(bv, bits):
    """Every scalar _rank, _select and _bit of bv against the batched
    kernels, which must match a scan of bits."""
    idx = np.arange(bits.size + 1)
    assert [bv._bit(p) for p in range(bits.size)] == bits.tolist()
    for b in (0, 1):
        ranks = bv._rank_many(idx, b)
        assert ranks.tolist() == np.cumsum(np.concatenate([[0], bits == b])).tolist()
        assert [bv._rank(i, b) for i in range(bits.size + 1)] == ranks.tolist(), b
        js = np.arange(1, bv.count(b) + 1)
        selects = bv._select_many(js, b)
        assert selects.tolist() == ref_positions(bits, b).tolist()
        assert [bv._select(j, b) for j in range(1, js.size + 1)] == selects.tolist(), b


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("cls", [PlainBitvector, SparseBitvector])
def test_scalar_kernels_match_batched_kernels(cls, loaded):
    # lengths at word and superblock edges; 0, 1, half, all but one and all ones
    rng = np.random.default_rng(61)
    for length in (0, 1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 1537):
        for ones in sorted({0, min(1, length), length // 2, max(length - 1, 0), length}):
            bits = np.zeros(length, dtype=np.uint8)
            bits[rng.choice(length, ones, replace=False)] = 1
            bv = make_vector(cls, bits, loaded)
            assert isinstance(bv, cls) and len(bv) == length
            check_scalar_kernels(bv, bits)


def select0_layouts():
    """(length, one positions): ones at the front, at the back, alternating,
    one run in the middle, and m = 0, 1 and length - 1, at several lengths."""
    for u in (1, 2, 3, 10, 64, 100, 513, 1000):
        half = u // 2
        yield u, range(half)
        yield u, range(u - half, u)
        yield u, range(0, u, 2)
        yield u, range(1, u, 2)
        yield u, range(u // 4, u // 4 + half)
        yield u, ()
        yield u, (u // 3,)
        yield u, (0,)
        yield u, (u - 1,)
        yield u, [p for p in range(u) if p != u // 3]
        yield u, range(1, u)
        yield u, range(u - 1)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_sparse_select0_on_every_layout(loaded):
    for u, ones in select0_layouts():
        bits = np.zeros(u, dtype=np.uint8)
        bits[list(ones)] = 1
        check_scalar_kernels(make_vector(SparseBitvector, bits, loaded), bits)


def test_sparse_select0_is_not_settled_by_the_guess():
    # d(k) = ones[k] - k is 5 for k = 0: rank1(j + x) = x holds at x = 0
    # and at x = 1, and the answer is the first, position 4
    sv = SparseBitvector(10, [5])
    assert sv._select(5, 0) == 4
    assert [sv._select(j, 0) for j in range(1, 10)] == [0, 1, 2, 3, 4, 6, 7, 8, 9]


class CountingSequence(list):
    """A list that counts its item reads, the C bisect's included."""

    reads = 0

    def __getitem__(self, k):
        CountingSequence.reads += 1
        return super().__getitem__(k)


def test_sparse_select0_probes_are_logarithmic():
    # one bisect of the positions, then a gallop and a bisection of the
    # bracket: each reads at most bit_length(m) positions
    layouts = list(select0_layouts())
    rng = np.random.default_rng(67)
    clustered = np.sort(rng.choice(1 << 16, 4096, replace=False) // 64 * 16)
    layouts += [(1 << 16, np.unique(clustered)), (1 << 16, range(0, 1 << 16, 3))]
    for u, ones in layouts:
        sv = SparseBitvector(u, list(ones))
        want = sv._select_many(np.arange(1, sv.zeros_count + 1), 0).tolist()
        m = sv.ones_count
        sv._ones_mv = CountingSequence(sv._ones_mv.tolist())
        for j in range(1, sv.zeros_count + 1):
            CountingSequence.reads = 0
            assert sv._select(j, 0) == want[j - 1]
            assert CountingSequence.reads <= 3 * m.bit_length(), (u, m, j)
