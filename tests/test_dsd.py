import numpy as np
import pytest

from degenrank.bitvector import SparseBitvector
from degenrank.degenerate import DegenerateString, generate, parse_degenerate
from degenrank.dsd import DsdStructure, build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import build_reduction

WORKED = parse_degenerate("4 4\n0 1 2\n0 3\n1\n2 3\n")


def check_against_oracle(x, d):
    table = rank_table(x)
    idx = np.arange(x.n + 1)
    for c in range(x.sigma):
        got = d.subset_rank_many(idx, np.full(idx.size, c))
        assert np.array_equal(got, table[:, c]), c
        pos = positions_of(x, c)
        assert d.containing_count(c) == pos.size
        if pos.size:
            js = np.arange(1, pos.size + 1)
            assert np.array_equal(d.subset_select_many(js, np.full(js.size, c)), pos)
            assert [d.subset_select(int(j), c) for j in js] == pos.tolist()


def test_worked_example_layout():
    d = build_dsd(WORKED, "wavelet")
    E, base, overflow = d.components()
    assert E.ones_count == 0
    # minima of {A,C,G} {A,T} {C} {G,T} are A A C G
    assert [base.access(p) for p in range(4)] == [0, 0, 1, 2]
    assert overflow[0].positions().tolist() == []
    assert overflow[1].positions().tolist() == [0]
    assert overflow[2].positions().tolist() == [0]
    assert overflow[3].positions().tolist() == [1, 3]
    assert d.subset_rank(2, 0) == 2
    assert d.subset_select(2, 2) == 3
    check_against_oracle(WORKED, d)


def test_count_identity():
    x = generate(31, 600, 4, profile="genomic-like")
    d = build_dsd(x)
    _, base, overflow = d.components()
    table = rank_table(x)
    for c in range(4):
        assert base.symbol_count(c) + overflow[c].ones_count == table[-1, c]
    assert d.overflow_counts().sum() == x.N - (x.n - x.n0)


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_random_instances_match_oracle(base):
    rng = np.random.default_rng(61)
    for p0 in (0.0, 0.3, 1.0):
        for _ in range(4):
            n = int(rng.integers(1, 140))
            probs = np.array([p0, 0.5, 0.25, 0.15, 0.1])
            probs[1:] *= (1 - p0) / probs[1:].sum()
            x = generate(int(rng.integers(1 << 30)), n, 4, size_probs=probs)
            d = build_dsd(x, base, block_words=1)
            check_against_oracle(x, d)
            assert d.decompose() == x


def test_wider_alphabet_wavelet_base():
    x = generate(13, 200, 9)
    d = build_dsd(x)
    check_against_oracle(x, d)
    assert d.decompose() == x
    with pytest.raises(ValueError, match="bitplane"):
        build_dsd(x, "bitplane")


def test_all_singletons_degenerate_to_plain_string():
    x = generate(5, 500, 4, size_probs=[0, 1, 0, 0, 0])
    d = build_dsd(x, "bitplane")
    assert d.overflow_counts().sum() == 0
    assert d.n0 == 0
    check_against_oracle(x, d)


def test_agrees_with_reduction():
    x = generate(8, 300, 4, profile="genomic-like")
    d = build_dsd(x)
    r = build_reduction(x, "reduction-iii")
    idx = np.arange(x.n + 1)
    for c in range(4):
        assert np.array_equal(d.subset_rank_many(idx, np.full(idx.size, c)),
                              r.subset_rank_many(idx, np.full(idx.size, c)))


def test_scalar_agrees_with_batch():
    x = generate(21, 350, 4, profile="genomic-like")
    d = build_dsd(x, "bitplane", block_words=2)
    rng = np.random.default_rng(3)
    i = rng.integers(0, x.n + 1, size=60)
    c = rng.integers(0, 4, size=60)
    batch = d.subset_rank_many(i, c)
    for ii, cc, want in zip(i, c, batch):
        assert d.subset_rank(int(ii), int(cc)) == want
    totals = np.array([d.containing_count(cc) for cc in range(4)])
    j = rng.integers(1, totals[c] + 1)
    batch = d.subset_select_many(j, c)
    for jj, cc, want in zip(j, c, batch):
        assert d.subset_select(int(jj), int(cc)) == want


def test_select_identities_and_errors():
    x = generate(71, 260, 4, profile="genomic-like")
    d = build_dsd(x)
    for c in range(4):
        total = d.containing_count(c)
        for j in range(1, total + 1, 5):
            i = d.subset_select(j, c)
            assert d.subset_rank(i + 1, c) == j
            assert d.subset_rank(i, c) == j - 1
        for bad in (0, total + 1):
            with pytest.raises(ValueError):
                d.subset_select(bad, c)
            with pytest.raises(ValueError):
                d.subset_select_many([1, bad], [c, c])
    with pytest.raises(IndexError):
        d.subset_rank(x.n + 1, 0)
    for bad in (-1, 4):
        with pytest.raises(IndexError):
            d.subset_rank(0, bad)
        with pytest.raises(IndexError):
            d.subset_select(1, bad)
        with pytest.raises(IndexError):
            d.subset_select_many([1], [bad])
        with pytest.raises(IndexError):
            d.containing_count(bad)


def test_empty_and_all_empty():
    for x in (parse_degenerate("4 0\n"), DegenerateString.from_sets(4, [[], []])):
        d = build_dsd(x)
        assert d.subset_rank(x.n, 3) == 0
        assert d.decompose() == x
        with pytest.raises(ValueError):
            d.subset_select(1, 0)
        with pytest.raises(ValueError):
            d.subset_select_many([1], [0])
        assert d.subset_select_many([], []).size == 0


def test_space_accounting():
    x = generate(2, 10**5, 4, profile="genomic-like")
    d = build_dsd(x, "bitplane", block_words=8)
    parts = d.size_breakdown()
    assert d.size_bits() == sum(parts.values())
    assert set(parts) == {"E", "base"} | {f"overflow[{c}]" for c in range(4)}
    # the all-singleton case needs little more than the two planes
    y = generate(3, 10**6, 4, size_probs=[0, 1, 0, 0, 0])
    dy = build_dsd(y, "bitplane", block_words=8)
    assert dy.size_bits() / y.N <= 2.4


def test_block_words_shrink_size_not_answers():
    x = generate(19, 10**5, 4, profile="genomic-like")
    sizes = []
    answers = None
    idx = np.arange(0, x.n + 1, 37)
    for bw in (4, 8, 16, 32):
        d = build_dsd(x, "bitplane", block_words=bw)
        sizes.append(d.size_bits())
        got = np.concatenate([d.subset_rank_many(idx, np.full(idx.size, c))
                              for c in range(4)])
        if answers is None:
            answers = got
        else:
            assert np.array_equal(answers, got)
    assert sizes[0] > sizes[1] > sizes[2] > sizes[3]


def test_select_when_a_list_is_empty():
    # Select merges the sets that keep c with overflow[c]. Symbol 0 is
    # always kept, so overflow[0] is empty; in the second instance no set
    # keeps symbol 3; the third is a single set.
    instances = (
        DegenerateString.from_sets(4, [[0, 3], [], [1, 3], [0, 2, 3], [3], [1, 2]]),
        DegenerateString.from_sets(4, [[0, 3], [1, 3], [], [0, 2, 3]]),
        DegenerateString.from_sets(4, [[0, 1, 3]]),
    )
    for x in instances:
        check_against_oracle(x, build_dsd(x))
    _, base, overflow = build_dsd(instances[0]).components()
    assert overflow[0].ones_count == 0 and base.symbol_count(0) == 2
    assert build_dsd(instances[1]).components()[1].symbol_count(3) == 0


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_select_batches_against_oracle(base):
    x = generate(83, 400, 4, profile="genomic-like")
    d = build_dsd(x, base, block_words=1)
    check_against_oracle(x, d)
    pos = [positions_of(x, c) for c in range(4)]
    # a batch of one, then a shuffled batch mixing every symbol
    assert d.subset_select_many([2], [1]).tolist() == [pos[1][1]]
    rng = np.random.default_rng(5)
    c = rng.integers(0, 4, size=300)
    j = rng.integers(1, np.array([p.size for p in pos])[c] + 1)
    want = np.array([pos[cc][jj - 1] for cc, jj in zip(c, j)])
    assert np.array_equal(d.subset_select_many(j, c), want)
    assert np.array_equal(d.subset_select_many(j.reshape(20, 15), c.reshape(20, 15)),
                          want.reshape(20, 15))
    assert np.array_equal(d.subset_select_many(j[c == 2], 2), want[c == 2])


def test_constructor_rejects_parts_that_do_not_fit():
    x = generate(5, 200, 4, size_probs=[0.2] * 5)
    E, base, overflow = build_dsd(x).components()
    assert DsdStructure(E, base, overflow).decompose() == x
    with pytest.raises(ValueError):  # base length is not the nonempty count
        DsdStructure(SparseBitvector(E.length, []), base, overflow)
    with pytest.raises(ValueError):  # overflow vector of another length
        DsdStructure(E, base, overflow[:3] + [SparseBitvector(E.length + 1, [])])
    with pytest.raises(ValueError):  # the base is over 4 symbols, not 3
        DsdStructure(E, base, overflow[:3])
    # overflow vectors span the nonempty sets, not all n of them
    assert E.ones_count > 0
    spanning_n = [SparseBitvector(E.length, E.select_many(ov.positions() + 1, 0))
                  for ov in overflow]
    with pytest.raises(ValueError, match="overflow"):
        DsdStructure(E, base, spanning_n)


def test_only_one_select_on_E_per_query():
    # A select search step is one base rank and one overflow lookup; E maps
    # the answer to a set position once, at the end, and is never ranked.
    x = generate(5, 2000, 6, "uniform")
    d = build_dsd(x)
    assert d.n0 == 301
    E = d.components()[0]
    calls = {}
    for name in ("_rank", "_select", "_rank_many", "_select_many"):
        def counted(*args, name=name, kernel=getattr(E, name)):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)
        setattr(E, name, counted)
    for c in range(x.sigma):
        pos = positions_of(x, c)
        for j in (1, pos.size // 2, pos.size):
            calls.clear()
            assert d.subset_select(j, c) == pos[j - 1]
            assert calls == {"_select": 1}
        calls.clear()
        assert np.array_equal(d.subset_select_many(np.arange(1, pos.size + 1), c), pos)
        assert calls == {"_select_many": 1}
