"""The checked boundary of every query: integer coercion, ranges, shapes, and
that each argument is checked once, not again in every layer below."""

import sys

import numpy as np
import pytest

from degenrank.bitvector import PlainBitvector, SparseBitvector
from degenrank.degenerate import DegenerateString
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import build_reduction
from degenrank.strrank import BitPlaneRank, WaveletTree

# sigma 3, so that every structure also builds on the bitplane base
WITH_EMPTIES = DegenerateString.from_sets(3, [[0], [], [2], [0, 1], [], [1, 2], [0, 1, 2]])
NO_EMPTIES = DegenerateString.from_sets(3, [[0], [2], [0, 1], [1, 2], [1], [0, 1, 2], [2]])
PAIRS = [(s, b) for s in ("reduction-i", "reduction-ii", "reduction-iii", "dsd")
         for b in ("wavelet", "bitplane")]
U64_MAX = np.array([2**64 - 1], dtype=np.uint64)


def build(structure, base):
    x = NO_EMPTIES if structure == "reduction-i" else WITH_EMPTIES
    if structure == "dsd":
        return x, build_dsd(x, base, block_words=1)
    return x, build_reduction(x, structure, base, block_words=1)


@pytest.mark.parametrize("structure,base", PAIRS)
def test_non_integer_arguments(structure, base):
    x, st = build(structure, base)
    for query in (lambda: st.subset_rank(2.7, 0), lambda: st.subset_rank(6, 1.5),
                  lambda: st.subset_rank(6, 0.5), lambda: st.subset_select(1.9, 0),
                  lambda: st.subset_select(1, np.float64(0)),
                  lambda: st.subset_rank_many([2.7], 0), lambda: st.subset_rank_many([2], [1.0]),
                  lambda: st.subset_select_many(np.array([1.0]), [0]),
                  lambda: st.subset_select_many([1], 0.5), lambda: st.containing_count(0.5)):
        with pytest.raises(ValueError):
            query()
    # an empty list is float64 to numpy but holds no non-integer
    assert st.subset_rank_many([], []).size == 0
    assert st.subset_rank_many([], 0).size == 0
    assert st.subset_select_many([], []).size == 0
    # a uint64 past the int64 range must not wrap into range
    for query in (lambda: st.subset_rank_many(U64_MAX, 0),
                  lambda: st.subset_rank_many([0], U64_MAX),
                  lambda: st.subset_select_many([1], U64_MAX),
                  lambda: st.subset_rank(np.uint64(2**64 - 1), 0)):
        with pytest.raises(IndexError):
            query()
    with pytest.raises(ValueError):
        st.subset_select_many(U64_MAX, 0)
    # numpy integer scalars are integers
    assert st.subset_rank(np.int64(x.n), np.uint8(1)) == positions_of(x, 1).size


@pytest.mark.parametrize("structure,base", PAIRS)
def test_answers_take_the_shape_of_the_arguments(structure, base):
    x, st = build(structure, base)
    table = rank_table(x)
    i = np.array([[0, 3, 7], [7, 1, 2]])
    c = np.array([[0, 1, 2], [2, 2, 0]])
    assert np.array_equal(st.subset_rank_many(i, c), table[i, c])
    assert np.array_equal(st.subset_rank_many(i, 1), table[i, 1])
    assert np.array_equal(st.subset_rank_many(i[..., None], c[..., None]),
                          table[i, c][..., None])
    got = st.subset_rank_many(np.int64(4), 2)
    assert got.shape == () and got == table[4, 2]
    pos = positions_of(x, 1)
    j = np.array([[1, 2], [pos.size, 1]])
    assert np.array_equal(st.subset_select_many(j, 1), pos[j - 1])
    assert np.array_equal(st.subset_select_many(j, np.ones((2, 2), dtype=np.int64)), pos[j - 1])
    for query in (lambda: st.subset_rank_many(i, [0, 1]),
                  lambda: st.subset_rank_many([1, 2], [0, 1, 2]),
                  lambda: st.subset_select_many([1, 1], [0, 1, 2]),
                  lambda: st.subset_select_many(j, [[1], [1], [1]])):
        with pytest.raises(ValueError):
            query()


def count_reductions(fn, *args) -> int:
    """min, max and any calls, numpy or builtin, made by fn(*args)."""
    names = {"min", "max", "any"}
    seen = 0

    def profile(frame, event, arg):
        nonlocal seen
        if event == "c_call" and getattr(arg, "__name__", None) in names:
            seen += 1
        elif event == "call" and frame.f_code.co_name in names:
            seen += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("structure,base", PAIRS)
def test_each_argument_is_checked_once(structure, base):
    # one step of a k-mer backward search: two prefixes, two symbols
    _, st = build(structure, base)
    assert count_reductions(st.subset_rank_many, np.array([1, 6]), np.array([0, 2])) <= 4
    assert count_reductions(st.subset_select_many, np.array([1, 2]), np.array([0, 2])) <= 4


def count_c_calls(fn, *args) -> int:
    """Every C function call made by fn(*args), as sys.setprofile sees them,
    but the setprofile call that ends the count."""
    seen = 0

    def profile(frame, event, arg):
        nonlocal seen
        seen += event == "c_call" and arg is not sys.setprofile

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("structure,base", PAIRS)
def test_a_two_query_batch_costs_a_fixed_number_of_calls(structure, base):
    # one k-mer search step with the kernels stubbed out: what is left is the
    # boundary, one asarray and tolist per argument, one operator.index per
    # value, len(counts) for a select, and one array out
    _, st = build(structure, base)
    st._rank = st._select = lambda a, c: 0
    assert count_c_calls(st.subset_rank_many, np.array([1, 6]), np.array([0, 2])) <= 9
    assert count_c_calls(st.subset_select_many, np.array([1, 2]), np.array([0, 2])) <= 10


def test_a_chain_step_makes_a_fixed_number_of_calls():
    # the whole step on reduction-iii/wavelet: the boundary, then per query two
    # bisect searches over stored counts (E rank and R select, or two level
    # selects) and the bit_count calls of the in-word rank and select
    _, st = build("reduction-iii", "wavelet")
    assert count_c_calls(st.subset_rank_many, np.array([1, 6]), np.array([0, 2])) <= 25
    assert count_c_calls(st.subset_select_many, np.array([1, 2]), np.array([0, 2])) <= 34


def test_components_reject_non_integers():
    syms = np.array([0, 1, 2, 3, 0, 1])
    for st in (WaveletTree(syms, 4), BitPlaneRank(syms)):
        for query in (lambda: st.rank(2.5, 0), lambda: st.rank(2, 1.0),
                      lambda: st.select(1.5, 0), lambda: st.access(0.0),
                      lambda: st.symbol_count(0.5), lambda: st.rank_many([2.5], 0),
                      lambda: st.select_many([1], [0.0])):
            with pytest.raises(ValueError):
                query()
        assert st.rank_many([[6], [2]], 0).tolist() == [[2], [1]]
        with pytest.raises(IndexError):
            st.rank_many(U64_MAX, 0)
    for bv in (PlainBitvector("10110"), SparseBitvector(5, [0, 2, 3])):
        for query in (lambda: bv.rank(2.5), lambda: bv.select(1.5), lambda: bv.bit(1.0),
                      lambda: bv.rank_many([2.5]), lambda: bv.select_many([1.0])):
            with pytest.raises(ValueError):
                query()
        assert bv.rank_many([[5], [2]]).tolist() == [[3], [1]]
        assert bv.select_many([[2, 1]], 0).tolist() == [[4, 1]]
        with pytest.raises(IndexError):
            bv.rank_many(U64_MAX)


def test_a_scalar_select0_makes_one_c_call():
    # E's select0 reads the positions as Python ints: one C bisect for the
    # density guess, then a gallop and a bisection over memoryview subscripts
    rng = np.random.default_rng(71)
    for u, ones in ((1000, []), (1000, [999]), (1000, range(0, 1000, 2)),
                    (1000, range(500)), (1000, range(500, 1000)),
                    (1 << 16, np.sort(rng.choice(1 << 16, 300, replace=False)))):
        sv = SparseBitvector(u, ones)
        for j in (1, sv.zeros_count // 3, sv.zeros_count):
            assert count_c_calls(sv._select, j, 0) <= 1, (u, j)
