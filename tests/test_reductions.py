import numpy as np
import pytest

from degenrank.bitvector import PlainBitvector, SparseBitvector
from degenrank.degenerate import DegenerateString, generate, parse_degenerate
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import (
    ReductionI,
    ReductionII,
    ReductionIII,
    build_reduction,
    normalize_variant,
)
from degenrank.strrank import WaveletTree

WORKED = parse_degenerate("4 4\n0 1 2\n0 3\n1\n2 3\n")


def all_structures(x, with_dsd=False):
    out = []
    variants = ["reduction-ii", "reduction-iii"] + ([] if x.n0 else ["reduction-i"])
    for v in variants:
        out.append(build_reduction(x, v, "wavelet"))
        eff = x.sigma + 1 if v == "reduction-ii" else x.sigma
        if eff <= 4:
            out.append(build_reduction(x, v, "bitplane", block_words=1))
    return out


def check_against_oracle(x, st):
    table = rank_table(x)
    idx = np.arange(x.n + 1)
    for c in range(x.sigma):
        got = st.subset_rank_many(idx, np.full(idx.size, c))
        assert np.array_equal(got, table[:, c]), (st, c)
        pos = positions_of(x, c)
        assert st.containing_count(c) == pos.size
        if pos.size:
            js = np.arange(1, pos.size + 1)
            assert np.array_equal(st.subset_select_many(js, np.full(js.size, c)), pos)


def test_worked_example_structure():
    red = build_reduction(WORKED, "reduction-i", "wavelet")
    assert red._R.bits().tolist() == [1, 0, 0, 1, 0, 1, 1, 0, 1]
    assert red._R.ones_count == WORKED.n + 1
    assert red._R.length == WORKED.N + 1
    # canonical ascending concatenation of the sets
    assert [red._S.access(p) for p in range(8)] == [0, 1, 2, 0, 3, 1, 2, 3]
    # intermediate hops of the two worked queries, 0-indexed
    assert red._R.select(3, 1) == 5
    assert red._S.rank(5, 0) == 2
    assert red._R.rank(8, 1) == 4
    assert red.subset_rank(2, 0) == 2
    assert red.subset_select(2, 2) == 3
    assert red.decompose() == WORKED


def test_within_set_order_is_immaterial():
    # concatenating {2,3} as "32" instead of "23" changes S but no
    # subset-level answer; the mapping through R absorbs the permutation
    reordered = WaveletTree([0, 1, 2, 0, 3, 1, 3, 2], 4)
    canonical = build_reduction(WORKED, "reduction-i", "wavelet")
    r = PlainBitvector("100101101")
    assert reordered.rank(5, 0) == 2
    assert reordered.select(2, 2) == 7
    for c in range(4):
        for i in range(WORKED.n + 1):
            k = r.select(i + 1, 1)
            assert reordered.rank(k, c) == canonical.subset_rank(i, c)
        for j in range(1, canonical.containing_count(c) + 1):
            k = reordered.select(j, c)
            assert r.rank(k + 1, 1) - 1 == canonical.subset_select(j, c)


def test_single_set_reduction():
    x = DegenerateString.from_sets(1, [[0]])
    red = build_reduction(x, "reduction-i")
    assert red._R.bits().tolist() == [1, 1]
    assert red.subset_rank(1, 0) == 1
    assert red.subset_select(1, 0) == 0


@pytest.mark.parametrize("variant", ["reduction-i", "reduction-ii", "reduction-iii"])
@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_worked_example_all_variants(variant, base):
    if variant == "reduction-ii" and base == "bitplane":
        with pytest.raises(ValueError, match="bitplane"):
            build_reduction(WORKED, variant, base)
        return
    st = build_reduction(WORKED, variant, base)
    check_against_oracle(WORKED, st)
    assert st.decompose() == WORKED


def test_variant_i_rejects_empty_sets():
    x = DegenerateString.from_sets(4, [[0], [], [1]])
    with pytest.raises(ValueError, match="empty"):
        build_reduction(x, "reduction-i")
    # ii and iii handle it
    check_against_oracle(x, build_reduction(x, "reduction-ii"))
    check_against_oracle(x, build_reduction(x, "reduction-iii"))


def test_random_instances_match_oracle():
    rng = np.random.default_rng(303)
    for sigma in (2, 4, 8):
        for p0 in (0.0, 0.2, 0.6):
            for _ in range(4):
                n = int(rng.integers(1, 120))
                probs = np.full(sigma + 1, (1 - p0) / sigma)
                probs[0] = p0
                x = generate(int(rng.integers(1 << 30)), n, sigma, size_probs=probs)
                for st in all_structures(x):
                    check_against_oracle(x, st)
                    assert st.decompose() == x


def test_variants_ii_and_iii_agree():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(1, 100))
        x = generate(int(rng.integers(1 << 30)), n, 4,
                     size_probs=[0.4, 0.3, 0.15, 0.1, 0.05])
        a = build_reduction(x, "reduction-ii")
        b = build_reduction(x, "reduction-iii")
        idx = np.arange(x.n + 1)
        for c in range(4):
            assert np.array_equal(a.subset_rank_many(idx, np.full(idx.size, c)),
                                  b.subset_rank_many(idx, np.full(idx.size, c)))
            total = a.containing_count(c)
            assert total == b.containing_count(c)
            if total:
                js = np.arange(1, total + 1)
                assert np.array_equal(a.subset_select_many(js, np.full(js.size, c)),
                                      b.subset_select_many(js, np.full(js.size, c)))


def test_sentinel_not_queryable():
    # Symbol 3 is the reduction-ii sentinel, and on the bitplane base a symbol
    # the string could hold; neither is in the public alphabet.
    x = DegenerateString.from_sets(3, [[0], [], [2], [0, 1], [], [1, 2]])
    full = DegenerateString.from_sets(3, [[0], [2], [0, 1], [1, 2], [1], [0, 2]])
    structures = [build_reduction(full, "reduction-i", "bitplane")]
    structures += [build_reduction(x, v, b) for v in ("reduction-ii", "reduction-iii")
                   for b in ("wavelet", "bitplane")]
    for st in structures:
        assert st.sigma == 3
        for query in (lambda: st.subset_rank(1, 3), lambda: st.subset_select(1, 3),
                      lambda: st.subset_rank_many([6], [3]),
                      lambda: st.subset_select_many([1], [3]),
                      lambda: st.containing_count(3)):
            with pytest.raises(IndexError):
                query()


def test_component_accounting():
    x = generate(7, 500, 4, size_probs=[0.3, 0.4, 0.15, 0.1, 0.05])
    ii = build_reduction(x, "reduction-ii")
    iii = build_reduction(x, "reduction-iii")
    assert set(ii.size_breakdown()) == {"S", "R"}
    assert set(iii.size_breakdown()) == {"S", "R", "E"}
    for st in (ii, iii):
        assert st.size_bits() == sum(st.size_breakdown().values())
    # variant II concatenates sentinels, variant III drops empties
    assert ii._S.length == x.N + x.n0
    assert iii._inner._S.length == x.N
    assert ii._R.length == x.N + x.n0 + 1
    assert iii._inner._R.ones_count == x.n - x.n0 + 1


def test_scalar_agrees_with_batch():
    x = generate(15, 400, 4, size_probs=[0.2, 0.4, 0.2, 0.1, 0.1])
    rng = np.random.default_rng(5)
    for st in all_structures(x):
        i = rng.integers(0, x.n + 1, size=50)
        c = rng.integers(0, 4, size=50)
        batch = st.subset_rank_many(i, c)
        for ii, cc, want in zip(i, c, batch):
            assert st.subset_rank(int(ii), int(cc)) == want
        totals = np.array([st.containing_count(cc) for cc in range(4)])
        live = totals[c] > 0
        j = rng.integers(1, np.maximum(totals[c], 1) + 1)[live]
        batch = st.subset_select_many(j, c[live])
        for jj, cc, want in zip(j, c[live], batch):
            assert st.subset_select(int(jj), int(cc)) == want


def test_rank_select_identities():
    x = generate(77, 300, 4, profile="genomic-like")
    for st in all_structures(x):
        for c in range(4):
            total = st.containing_count(c)
            for j in range(1, total + 1, 7):
                i = st.subset_select(j, c)
                assert st.subset_rank(i + 1, c) == j
                assert st.subset_rank(i, c) == j - 1
            with pytest.raises(ValueError):
                st.subset_select(total + 1, c)
            with pytest.raises(IndexError):
                st.subset_rank(x.n + 1, c)


def test_empty_and_all_empty_instances():
    empty = parse_degenerate("4 0\n")
    for v in ("reduction-i", "reduction-ii", "reduction-iii"):
        st = build_reduction(empty, v)
        assert st.subset_rank(0, 2) == 0
        with pytest.raises(ValueError):
            st.subset_select(1, 0)
    hollow = DegenerateString.from_sets(4, [[], [], []])
    for v in ("reduction-ii", "reduction-iii"):
        st = build_reduction(hollow, v)
        assert st.subset_rank(3, 1) == 0
        assert st.decompose() == hollow
        with pytest.raises(ValueError):
            st.subset_select(1, 1)


def test_variant_parsing():
    assert normalize_variant("II") == "reduction-ii"
    assert normalize_variant("reduction-iii") == "reduction-iii"
    assert normalize_variant("1") == "reduction-i"
    with pytest.raises(ValueError):
        normalize_variant("reduction-iv")
    with pytest.raises(ValueError):
        build_reduction(WORKED, "reduction-i", base="rrr")


def test_space_genomic_variant_iii_bitplane():
    x = generate(2, 10**6, 4, profile="genomic-like")
    st = build_reduction(x, "reduction-iii", "bitplane", block_words=8)
    bits_per_symbol = st.size_bits() / x.N
    assert bits_per_symbol <= 3.7
    parts = st.size_breakdown()
    # planes and counters dominate; E stays tiny because n0 is ~1% of n
    assert parts["E"] / x.N < 0.5
    assert parts["S"] / x.N < 2.2


def test_constructors_reject_parts_that_do_not_fit():
    x = generate(5, 200, 4, size_probs=[0.2] * 5)
    iii = build_reduction(x, "reduction-iii")
    S, R, E = iii._inner._S, iii._inner._R, iii._E
    assert ReductionIII(4, S, R, E).decompose() == x
    bits = R.bits()
    for bad_R in (PlainBitvector(bits[:-1]),                  # one bit short of S
                  PlainBitvector(np.r_[bits[:-1], 0]),        # no closing 1
                  PlainBitvector(np.r_[0, bits[1:]])):        # set 0 does not start at 0
        with pytest.raises(ValueError, match="R must"):
            ReductionI(4, S, bad_R)
    for sigma in (3, 5):  # symbol 3 occurs; the wavelet tree is over 4 symbols
        with pytest.raises(ValueError, match="alphabet"):
            ReductionI(sigma, S, R)
    with pytest.raises(ValueError):
        ReductionIII(4, S, R, SparseBitvector(E.length + 1, E.positions()))
    # reduction-ii: S must hold the sentinel symbol sigma on top of the alphabet
    ii = build_reduction(x, "reduction-ii")
    assert ReductionII(4, ii._S, ii._R).n0 == x.n0
    with pytest.raises(ValueError):
        ReductionI(4, ii._S, ii._R)
