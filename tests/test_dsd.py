import tracemalloc

import numpy as np
import pytest

from degenrank import container
from degenrank.bitvector import SparseBitvector
from degenrank.degenerate import GENOMIC_SIZE_PROBS, DegenerateString, generate, parse_degenerate
from degenrank.dsd import DsdStructure, _Decomposition, build_dsd
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
    assert sum(ov.ones_count for ov in overflow) == x.N - (x.n - x.n0)


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
    assert not any(ov.ones_count for ov in d.components()[2])
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
    # no overflow counts at all would be sigma 0, where the base has sigma 1
    E, base, _ = build_dsd(DegenerateString.from_sets(1, [[], []])).components()
    with pytest.raises(ValueError, match="one overflow count per symbol of its base"):
        DsdStructure(E, base, [], [])


def test_space_accounting():
    x = generate(2, 10**5, 4, profile="genomic-like")
    d = build_dsd(x, "bitplane", block_words=8)
    parts = d.size_breakdown()
    assert d.size_bits() == sum(parts.values())
    assert set(parts) == {"E", "base", "overflow"}
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


@pytest.mark.parametrize("seed, n, sigma, base, symbols, rows", [
    pytest.param(83, 400, 4, "wavelet", None, np.uint16, id="wavelet"),
    pytest.param(83, 400, 4, "bitplane", None, np.uint16, id="bitplane"),
    pytest.param(30, 200, 1, "wavelet", None, np.uint8, id="sigma1-uint8"),
    pytest.param(35, 200, 6, "wavelet", [0, 3, 5], np.uint8, id="absent-uint8"),
    pytest.param(329, 200, 300, "wavelet", None, np.uint8, id="sigma300-uint8"),
    pytest.param(30, 90_000, 1, "wavelet", None, np.uint32, id="sigma1-uint32"),
    pytest.param(35, 90_000, 6, "wavelet", [0, 3, 5], np.uint32, id="absent-uint32"),
    pytest.param(329, 90_000, 300, "wavelet", None, np.uint32, id="sigma300-uint32"),
])
def test_select_batches_against_oracle(seed, n, sigma, base, symbols, rows):
    # The select kernel takes queries in whatever order they come, and the
    # public path hands it key order, so a shuffled batch goes through both,
    # at the narrowest and the widest row dtype. Set sizes follow the
    # genomic-like profile, cut or padded to sigma; in the absent cases the
    # batch leaves symbols 1, 2 and 4 out.
    x = generate(seed, n, sigma, size_probs=(list(GENOMIC_SIZE_PROBS) + [0] * sigma)[:sigma + 1])
    d = build_dsd(x, base, block_words=1)
    assert d._inner._rows.dtype == rows
    if x.n * sigma <= 10**6:  # the full sweep, where its rank table is small
        check_against_oracle(x, d)
    pos = [positions_of(x, c) for c in range(sigma)]
    counts = np.array([p.size for p in pos])
    live = np.flatnonzero(counts) if symbols is None else np.array(symbols)
    # a batch of one, then a shuffled batch mixing every symbol drawn
    c1 = live[min(1, live.size - 1)]
    j1 = min(2, counts[c1])
    assert d.subset_select_many([j1], [c1]).tolist() == [pos[c1][j1 - 1]]
    rng = np.random.default_rng(5)
    c = rng.choice(live, size=300)
    j = rng.integers(1, counts[c] + 1)
    want = np.array([pos[cc][jj - 1] for cc, jj in zip(c, j)])
    assert np.array_equal(d.subset_select_many(j, c), want)
    assert np.array_equal(d._select_many(j, c), want)
    assert np.array_equal(d.subset_select_many(j.reshape(20, 15), c.reshape(20, 15)),
                          want.reshape(20, 15))
    assert np.array_equal(d.subset_select_many(j[c == c1], c1), want[c == c1])


def select_batches(x, rng):
    """(name, j, c): selects that x answers, in the orders and mixes that the
    first round's shared probes see differently."""
    counts = np.array([positions_of(x, c).size for c in range(x.sigma)])
    live = np.flatnonzero(counts)
    c = rng.choice(live, 2000)
    j = rng.integers(1, counts[c] + 1)
    order = np.lexsort((j, c))
    yield "sorted", j[order], c[order]
    yield "shuffled", j, c
    top = live[counts[live].argmax()]
    one = rng.integers(1, counts[top] + 1, 500)
    yield "one symbol", one, np.full(one.size, top)
    repeats = rng.integers(0, 5, 600)
    yield "repeated", j[repeats], c[repeats]
    # every set of each symbol in turn, so the probe of one query often
    # lands on the set that its neighbour wants
    every = np.repeat(live, counts[live])
    yield "neighbouring", np.concatenate([np.arange(1, k + 1) for k in counts[live]]), every


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_select_batches_in_every_order_match_the_oracle(base):
    rng = np.random.default_rng(23)
    for x in (generate(23, 3000, 4, "genomic-like"), generate(24, 2000, 4, "uniform")):
        d = build_dsd(x, base)
        pos = [positions_of(x, c) for c in range(x.sigma)]
        for name, j, c in select_batches(x, rng):
            want = np.array([pos[cc][jj - 1] for cc, jj in zip(c.tolist(), j.tolist())])
            assert np.array_equal(d.subset_select_many(j, c), want), name
            shuffle = rng.permutation(j.size)
            assert np.array_equal(d._select_many(j[shuffle], c[shuffle]), want[shuffle]), name
        # Asked for every set of each symbol, nearly every query finds its
        # answer, or both ends of its bracket, among the first round's
        # probes: one or two base-rank rounds, where a search of its own
        # makes 10 to 13 on these instances.
        rounds = _count_calls(d._inner._base, "_rank_many")
        name, j, c = list(select_batches(x, rng))[-1]
        assert name == "neighbouring" and d._select_many(j, c).size == j.size
        assert len(rounds) <= 2, len(rounds)


@pytest.mark.parametrize("n1", [2**63 - 1000, 2**63 // 3 + 7, 2**62 + 1])
def test_a_select_batch_whose_probe_keys_wrap_stays_exact(n1, monkeypatch):
    # The shared round keys a probe as c * (n + 1) + g, which wraps int64
    # only past sigma * (n + 1) = 2**63. An n put near there, for the one
    # search that reads it, wraps the keys inside a symbol's stretch, so the
    # probes beside a query's key may lie on its other side or belong to
    # another symbol: each must be checked before it is used.
    x = generate(31, 3000, 4, "uniform")
    d = build_dsd(x)
    pos = [positions_of(x, c) for c in range(x.sigma)]
    c = np.repeat(np.arange(x.sigma), [p.size for p in pos])
    j = np.concatenate([np.arange(1, p.size + 1) for p in pos])
    want = np.concatenate(pos)
    monkeypatch.setattr(d._inner, "n", n1 - 1)
    assert np.array_equal(d._select_many(j, c), want)
    shuffle = np.random.default_rng(n1 % 1000).permutation(j.size)
    assert np.array_equal(d._select_many(j[shuffle], c[shuffle]), want[shuffle])


@pytest.mark.parametrize("sigma, base, symbols", [
    (6, "wavelet", [0, 3, 5]),  # symbols 1, 2 and 4 absent from the batch
    (4, "bitplane", [2]),  # one symbol only
    (1, "wavelet", [0]),
    (300, "wavelet", None),  # c sorts as uint16
])
def test_rank_batches_against_oracle(sigma, base, symbols):
    # the overflow ranks are grouped by symbol: shuffled batches larger than
    # the scalar path takes, through the public path and the unsorted kernel
    x = generate(17 + sigma, 500, sigma)
    d = build_dsd(x, base)
    table = rank_table(x)
    rng = np.random.default_rng(sigma)
    for q in (9, 300):
        i = rng.integers(0, x.n + 1, size=q)
        c = rng.integers(0, sigma, size=q) if symbols is None else rng.choice(symbols, size=q)
        assert np.array_equal(d.subset_rank_many(i, c), table[i, c]), q
        assert np.array_equal(d._rank_many(i, c), table[i, c]), q


def parts(d):
    """E, the base, and the overflow rows and counts, as DsdStructure takes them."""
    E, base, overflow = d.components()
    return (E, base, np.concatenate([ov.positions() for ov in overflow]),
            [ov.ones_count for ov in overflow])


def test_constructor_rejects_parts_that_do_not_fit():
    x = generate(5, 200, 4, size_probs=[0.2] * 5)
    E, base, rows, counts = parts(build_dsd(x))
    assert DsdStructure(E, base, rows, counts).decompose() == x
    assert counts[0] == 0 and min(counts[1:]) >= 2
    with pytest.raises(ValueError):  # base length is not the nonempty count
        DsdStructure(SparseBitvector(E.length, []), base, rows, counts)
    with pytest.raises(ValueError, match="overflow rows"):  # a row past the nonempty sets
        DsdStructure(E, base, np.append(rows, base.length), counts[:3] + [counts[3] + 1])
    with pytest.raises(ValueError):  # the base is over 4 symbols, not 3
        DsdStructure(E, base, rows[:sum(counts[:3])], counts[:3])
    # overflow rows span the nonempty sets, not all n of them
    assert E.ones_count > 0
    spanning_n = E.select_many(rows + 1, 0)
    assert spanning_n.max() >= base.length
    with pytest.raises(ValueError, match="overflow"):
        DsdStructure(E, base, spanning_n, counts)
    past_int64 = rows.astype(np.uint64)
    past_int64[-1] = 1 << 63
    bad = {
        "counts that sum short": (rows, counts[:3] + [counts[3] - 1]),
        "counts that sum long": (rows, counts[:3] + [counts[3] + 1]),
        "a negative count": (rows, [-1, counts[1] + 1] + counts[2:]),
        "2-D counts": (rows, [counts]),
        "float rows": (rows.astype(np.float64), counts),
        "2-D rows": (rows.reshape(1, -1), counts),
        "rows that descend inside a run": (np.r_[rows[1], rows[0], rows[2:]], counts),
        # in the stored dtype, where a difference of two rows would wrap
        "narrow rows that descend inside a run": (
            np.r_[rows[1], rows[0], rows[2:]].astype(np.uint8), counts),
        "a negative row": (np.r_[-1, rows[1:]], counts),
        "a uint64 row past the int64 range": (past_int64, counts),
        "a row repeated inside a run": (np.r_[rows[0], rows[0], rows[2:]], counts),
    }
    for case, (r, k) in bad.items():
        with pytest.raises(ValueError):
            DsdStructure(E, base, r, k)
            pytest.fail(case)  # reached only when the constructor takes the case
    # a run may start at or below the last row of the run before it
    assert (np.diff(rows) <= 0).any()


def test_the_constructor_copies_the_overflow_rows_once():
    # rows as loads hands them over, in their stored dtype: checked in it and
    # cast once, not widened to int64 first
    E, base, rows, counts = parts(build_dsd(generate(3, 1 << 17, 4, "genomic-like")))
    rows = rows.astype(np.uint32)
    tracemalloc.start()
    try:
        inner = _Decomposition(base, rows, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inner._rows.dtype == np.uint32 and not np.shares_memory(inner._rows, rows)
    assert peak < 1.5 * rows.nbytes, (peak, rows.nbytes)


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


def _count_calls(obj, name):
    """Wrap the kernel obj.name to record the first argument of every call;
    returns the record."""
    seen = []
    kernel = getattr(obj, name)

    def counted(*args):
        seen.append(args[0])
        return kernel(*args)
    setattr(obj, name, counted)
    return seen


def _layout(labels):
    # symbol 1 is kept by an 'A' set, {1}, and overflows in a 'B' set, {0, 1}
    return DegenerateString.from_sets(4, [[1] if s == "A" else [0, 1] for s in labels])


ADVERSARIAL = {
    "B-before-A": "B" * 600 + "A" * 600,
    "A-before-B": "A" * 600 + "B" * 600,
    "alternating-300": ("A" * 300 + "B" * 300) * 3,
    "lone-B": "A" * 600 + "B" + "A" * 600,
    "B-at-powers-of-two": "".join("B" if p & (p - 1) == 0 and p else "A"
                                  for p in range(2048)),
}


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
@pytest.mark.parametrize("layout", sorted(ADVERSARIAL))
def test_select_rounds_bounded_on_adversarial_layouts(base, layout):
    # The interpolation search bisects after any probe that fails to halve its
    # bracket, so it makes at most 2 * ceil(log2(range + 1)) probes, where range
    # is the width of the bracket of t it starts from.
    x = _layout(ADVERSARIAL[layout])
    d = build_dsd(x, base)
    check_against_oracle(x, d)
    inner = d._inner
    n_a, n_b = inner._base.symbol_count(1), d.components()[2][1].ones_count
    pos = positions_of(x, 1)
    js = np.arange(1, pos.size + 1)
    bounds = [2 * (min(j, n_b) - max(0, j - 1 - n_a)).bit_length() + 1 for j in js.tolist()]
    ranks = _count_calls(inner._base, "_rank")
    for j, bound in zip(js.tolist(), bounds):
        ranks.clear()
        assert d.subset_select(j, 1) == pos[j - 1]
        assert len(ranks) <= bound, (j, len(ranks), bound)
    rounds = _count_calls(inner._base, "_rank_many")
    assert np.array_equal(d.subset_select_many(js, np.ones_like(js)), pos)
    assert len(rounds) <= max(bounds)
    rounds.clear()
    assert np.array_equal(d.subset_select_many(js[::-1], np.ones_like(js)), pos[::-1])
    assert len(rounds) <= max(bounds)


def test_select_probes_few_ranks_and_stops_at_a_hit():
    # On a uniform instance g(t) is close to linear in t, so the secant guess
    # lands within a few probes of the answer: about 2.5 here, where a
    # bisection makes about 5.5.
    x = generate(3, 2**12, 16, "uniform")
    d = build_dsd(x)
    E, inner = d._E, d._inner
    overflow = d.components()[2]
    probes = _count_calls(inner._base, "_rank")
    base_selects = _count_calls(inner._base, "_select")
    total = queries = hits = 0
    for c in range(x.sigma):
        pos = positions_of(x, c)
        for j in range(1, pos.size + 1):
            probes.clear()
            base_selects.clear()
            assert d.subset_select(j, c) == pos[j - 1]
            total += len(probes)
            queries += 1
            k = int(pos[j - 1]) - E.rank(int(pos[j - 1]))  # the answer among nonempty sets
            if overflow[c].bit(k):
                # the probe that lands on the answer is the last one, and no
                # base select follows it
                hits += 1
                assert probes[-1] == k and base_selects == []
            else:
                assert len(base_selects) == 1
    assert hits > 0
    assert total / queries <= 4.5, total / queries


def inconsistent_dsd(base):
    """The 4 sets {0,1}, {1}, {2}, {0,2} as DSD parts in which symbol 1's run
    also marks row 1, whose set keeps symbol 1: (E, base, rows, counts)."""
    x = DegenerateString.from_sets(3, [[0, 1], [1], [2], [0, 2]])
    E, kept, rows, counts = parts(build_dsd(x, base))
    assert rows.tolist() == [0, 3] and counts == [0, 1, 1]
    return E, kept, [0, 1, 3], [0, 2, 1]


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_the_inconsistent_dsd_is_refused_by_the_constructor_and_by_loads(base):
    # it would answer subset_rank(2, 1) = 3, where set 0 and set 1 hold symbol 1
    E, kept, rows, counts = inconsistent_dsd(base)
    match = r"^overflow row 1 of symbol 1 marks a set that keeps symbol 1, not a smaller one$"
    with pytest.raises(ValueError, match=match):
        DsdStructure(E, kept, rows, counts)
    blob = container.dumps(DsdStructure._trusted(E, kept, rows, counts))
    with pytest.raises(ValueError, match=match):
        container.loads(blob)


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_a_container_with_an_overflow_row_on_a_set_that_keeps_its_symbol_is_refused(base):
    x = generate(7, 300, 4, "genomic-like")
    d = build_dsd(x, base)
    E, kept, rows, counts = parts(d)
    assert container.loads(container.dumps(d)).decompose() == x
    symbols = kept._decode()
    bounds = np.cumsum([0] + counts)
    refused = 0
    for c in (1, 2, 3):
        run = rows[bounds[c]:bounds[c + 1]]
        # move the run's first row onto a set that keeps c itself, then onto
        # one that keeps 3: each set would list a member twice or out of order
        for target in sorted({c, 3}):
            onto = np.setdiff1d(np.flatnonzero(symbols == target), run)
            moved = rows.copy()
            moved[bounds[c]:bounds[c + 1]] = np.sort(np.r_[onto[0], run[1:]])
            blob = container.dumps(DsdStructure._trusted(E, kept, moved, counts))
            with pytest.raises(ValueError, match=f"^overflow row {onto[0]} of symbol {c} "):
                container.loads(blob)
            refused += 1
    assert refused == 5


@pytest.mark.parametrize("base", ["wavelet", "bitplane"])
def test_decompose_refuses_an_overflow_row_that_repeats_the_kept_symbol(base):
    # built past the constructor's check, set 1 would read back as (1, 1)
    d = DsdStructure._trusted(*inconsistent_dsd(base))
    # it came from no file, so the message names the set and no sets-text line
    with pytest.raises(ValueError, match=r"distinct members .*: member 1 of set 1 is a "
                                         r"duplicate or descends$"):
        d.decompose()
