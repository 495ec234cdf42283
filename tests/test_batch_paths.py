"""The two ways a batch is answered: a batch of at most _SCALAR_RANKS ranks
or _scalar_selects selects, a limit of each structure class, is checked on
Python ints and answered by the
scalar kernels, one query at a time, a larger one is checked as arrays and
answered by the batched kernels, in key order. Both must raise the same
errors and give the same answers, dtype and shape, in the caller's order,
and the batched kernels keep their own coverage at every small size."""

import numpy as np
import pytest

from degenrank import reductions
from degenrank.degenerate import DegenerateString, generate
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import _SCALAR_RANKS, build_reduction

KERNELS = ("_rank", "_select", "_rank_many", "_select_many")
CASES = [(s, b, empties) for s in ("reduction-i", "reduction-ii", "reduction-iii", "dsd")
         for b in ("wavelet", "bitplane") for empties in (False, True)
         if not (s == "reduction-i" and empties)]


def instance(empties: bool) -> DegenerateString:
    # sigma 3, so that reduction-ii, with its sentinel, also builds on the bitplane base
    probs = [0.15, 0.4, 0.3, 0.15] if empties else [0, 0.5, 0.3, 0.2]
    return generate(11, 700, 3, size_probs=probs)


def build(structure, base, x):
    if structure == "dsd":
        return build_dsd(x, base, block_words=1)
    return build_reduction(x, structure, base, block_words=1)


def past(st) -> int:
    """The smallest batch that st answers with the batched kernels, of ranks and of selects."""
    return max(_SCALAR_RANKS, st._scalar_selects) + 1


def set_limits(monkeypatch, st, limit) -> None:
    """Answer batches of up to limit ranks and selects one query at a time on st."""
    monkeypatch.setattr(reductions, "_SCALAR_RANKS", limit)
    monkeypatch.setattr(st, "_scalar_selects", limit)


def queries(x, k, rng):
    """k random rank and k random select queries that x answers."""
    i = rng.integers(0, x.n + 1, k)
    rc = rng.integers(0, x.sigma, k)
    counts = np.array([positions_of(x, c).size for c in range(x.sigma)])
    sc = rng.choice(np.flatnonzero(counts), k)
    j = rng.integers(1, counts[sc] + 1)
    return i, rc, j, sc


def count_kernels(st) -> dict:
    """Wrap the four kernels of st in place; the dict counts their calls."""
    calls = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        def counted(*args, _name=name, _fn=getattr(st, name)):
            calls[_name] += 1
            return _fn(*args)
        setattr(st, name, counted)
    return calls


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_batch_size_picks_the_kernels(structure, base, empties):
    assert _SCALAR_RANKS >= 2  # a k-mer search step ranks the two ends of an interval
    x = instance(empties)
    st = build(structure, base, x)
    table = rank_table(x)
    rng = np.random.default_rng(5)
    calls = count_kernels(st)
    for k in range(1, past(st) + 1):
        i, rc, j, sc = queries(x, k, rng)
        calls.update(dict.fromkeys(KERNELS, 0))
        assert np.array_equal(st.subset_rank_many(i, rc), table[i, rc])
        assert np.array_equal(st.subset_select_many(j, sc),
                              [positions_of(x, c)[jj - 1] for jj, c in zip(j, sc)])
        ranks = ({"_rank": k, "_rank_many": 0} if k <= _SCALAR_RANKS
                 else {"_rank": 0, "_rank_many": 1})
        selects = ({"_select": k, "_select_many": 0} if k <= st._scalar_selects
                   else {"_select": 0, "_select_many": 1})
        assert calls == {**ranks, **selects}, k


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_batched_kernels_answer_every_small_size(structure, base, empties):
    x = instance(empties)
    st = build(structure, base, x)
    table = rank_table(x)
    rng = np.random.default_rng(7)
    for k in range(1, past(st) + 1):
        i, rc, j, sc = queries(x, k, rng)
        want = table[i, rc]
        assert np.array_equal(st._rank_many(i, rc), want), k
        assert [st._rank(a, c) for a, c in zip(i.tolist(), rc.tolist())] == want.tolist()
        want = [int(positions_of(x, c)[jj - 1]) for jj, c in zip(j, sc)]
        assert st._select_many(j, sc).tolist() == want, k
        assert [st._select(a, c) for a, c in zip(j.tolist(), sc.tolist())] == want


@pytest.mark.parametrize("structure,base", [("reduction-ii", "wavelet"),
                                            ("reduction-iii", "bitplane"), ("dsd", "wavelet")])
def test_both_paths_give_the_same_arrays(structure, base, monkeypatch):
    x = instance(True)
    st = build(structure, base, x)
    top = int(st._containing.min())
    empty = np.zeros(0, dtype=np.int64)
    shaped = np.zeros((2, 0), dtype=np.int64)
    c = np.array([[0, 1, 2, 1]])
    args = [(st.subset_rank_many, np.int64(5), 2), (st.subset_select_many, 1, np.int64(2)),
            (st.subset_rank_many, empty, empty), (st.subset_select_many, [], 0),
            (st.subset_rank_many, shaped, 1), (st.subset_select_many, shaped, shaped),
            (st.subset_rank_many, np.array([[0], [350], [700]]), c),
            (st.subset_select_many, np.array([[1], [top // 2], [top]]), c)]
    answers = {}
    for limit in (-1, None, 10**9):  # always batched, as shipped, always scalar
        if limit is not None:
            set_limits(monkeypatch, st, limit)
        answers[limit] = [fn(a, c) for fn, a, c in args]
    shapes = [(), (), (0,), (0,), (2, 0), (2, 0), (3, 4), (3, 4)]
    for got in answers.values():
        assert [a.shape for a in got] == shapes
        assert all(a.dtype == np.int64 for a in got)
        assert all(np.array_equal(a, b) for a, b in zip(got, answers[-1]))


def faulty_batches(st, k):
    """(query, first argument, second argument, error) for batches of k
    queries with one fault each, mostly at the last query."""
    ok = np.ones(k, dtype=np.int64)  # prefix 1, select index 1, symbol 1

    def last(v, dtype=np.int64):
        a = ok.astype(dtype)
        a[-1] = v
        return a

    u64 = 2**64 - 1
    top = int(st._containing[1])
    rank, select = st.subset_rank_many, st.subset_select_many
    first_bad = ok.copy()
    first_bad[0] = top + 1
    return [(rank, ok.astype(float), ok, ValueError), (rank, ok, ok.astype(float), ValueError),
            (select, ok.astype(float), ok, ValueError), (select, ok, ok.astype(float), ValueError),
            (rank, last(u64, np.uint64), ok, IndexError),
            (rank, ok, last(u64, np.uint64), IndexError),
            (select, last(u64, np.uint64), ok, ValueError),
            (select, ok, last(u64, np.uint64), IndexError),
            (rank, last(st.n + 1), ok, IndexError), (rank, last(-1), ok, IndexError),
            (rank, ok, last(st.sigma), IndexError), (rank, ok, last(-1), IndexError),
            (select, last(top + 1), ok, ValueError), (select, last(0), ok, ValueError),
            (select, ok, last(st.sigma), IndexError),
            # a bad index and a bad symbol: the symbol's IndexError wins, even
            # when the bad index comes at an earlier query
            (select, last(top + 1), last(-1), IndexError),
            (select, first_bad, last(st.sigma), IndexError),
            (rank, np.ones((2, k), dtype=np.int64), np.ones((3, k), dtype=np.int64), ValueError),
            (select, np.ones((2, k), dtype=np.int64), np.ones((3, k), dtype=np.int64), ValueError)]


@pytest.mark.parametrize("structure,base", [("reduction-iii", "wavelet"), ("dsd", "bitplane")])
def test_both_paths_raise_the_same_errors(structure, base, monkeypatch):
    st = build(structure, base, instance(True))
    sizes = (1, 2, 4, past(st))
    for limit in (-1, None, 10**9):  # always batched, as shipped, always scalar
        if limit is not None:
            set_limits(monkeypatch, st, limit)
        for k in sizes:
            for n, (fn, a, c, error) in enumerate(faulty_batches(st, k)):
                with pytest.raises(error):
                    fn(a, c)
                    pytest.fail(f"case {n} raised nothing (k={k}, limit={limit})")


def arrangements(a, c, rng):
    """The batch (a, c) shuffled, reversed, full of duplicates and stacked
    with its reverse into two rows."""
    shuffle = rng.permutation(a.size)
    repeats = rng.integers(0, min(a.size, 4), a.size)
    yield a[shuffle], c[shuffle]
    yield a[::-1], c[::-1]
    yield a[repeats], c[repeats]
    yield np.stack([a, a[::-1]]), np.stack([c, c[::-1]])


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_large_batches_come_back_in_the_callers_order(structure, base, empties):
    x = instance(empties)
    st = build(structure, base, x)
    table = rank_table(x)
    positions = [positions_of(x, c) for c in range(x.sigma)]
    rng = np.random.default_rng(13)
    for k in (_SCALAR_RANKS + 1, past(st), 8192):
        i, rc, j, sc = queries(x, k, rng)
        for a, c in arrangements(i, rc, rng):
            got = st.subset_rank_many(a, c)
            assert got.shape == a.shape and np.array_equal(got, table[a, c]), k
        for a, c in arrangements(j, sc, rng):
            want = [positions[cc][jj - 1] for jj, cc in zip(a.ravel(), c.ravel())]
            got = st.subset_select_many(a, c)
            assert got.shape == a.shape and np.array_equal(got.ravel(), want), k


def record_batched_kernels(st) -> dict:
    """Wrap the batched kernels of st in place; the dict lists the arguments
    of every call."""
    seen = {"_rank_many": [], "_select_many": []}
    for name, calls in seen.items():
        def recorded(a, c, _calls=calls, _fn=getattr(st, name)):
            _calls.append((a.copy(), c.copy()))
            return _fn(a, c)
        setattr(st, name, recorded)
    return seen


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_batched_kernels_see_the_queries_in_key_order(structure, base, empties):
    x = instance(empties)
    st = build(structure, base, x)
    seen = record_batched_kernels(st)
    rng = np.random.default_rng(17)
    for k in (past(st), 8192):  # the smallest batched batch, and a large one
        i, rc, j, sc = queries(x, k, rng)
        st.subset_rank_many(i[::-1], rc[::-1])
        st.subset_select_many(j[::-1], sc[::-1])
    assert len(seen["_rank_many"]) == len(seen["_select_many"]) == 2
    for i, c in seen["_rank_many"]:
        # the DSD searches one symbol's overflow run at a time, the R select
        # of the reductions sweeps i once
        if structure == "dsd":
            assert in_symbol_order(i, c)
        else:
            assert np.all(np.diff(i) >= 0)
    for j, c in seen["_select_many"]:
        assert in_symbol_order(j, c)


def in_symbol_order(a, c) -> bool:
    """Whether the queries (a, c) come with c nondecreasing, and a
    nondecreasing within each c."""
    dc, da = np.diff(c), np.diff(a)
    return bool(np.all((dc > 0) | ((dc == 0) & (da >= 0))))


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_a_large_batch_is_sorted_once(structure, base, empties, monkeypatch):
    x = instance(empties)
    st = build(structure, base, x)
    i, rc, j, sc = queries(x, 8192, np.random.default_rng(19))
    table = rank_table(x)
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(args[0].size)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    assert np.array_equal(st.subset_rank_many(i, rc), table[i, rc])
    assert sorts == [8192]
    want = [positions_of(x, c)[jj - 1] for jj, c in zip(j, sc)]
    assert np.array_equal(st.subset_select_many(j, sc), want)
    assert sorts == [8192, 8192]
