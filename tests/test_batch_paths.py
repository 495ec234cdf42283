"""The two ways a batch is answered: a batch of at most _SCALAR_BATCH
queries by the scalar kernels, one query at a time, a larger one by the
batched kernels. Both must give the same answers, dtype and shape, and the
batched kernels keep their own coverage at every small size."""

import numpy as np
import pytest

from degenrank import reductions
from degenrank.degenerate import DegenerateString, generate
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import _SCALAR_BATCH, build_reduction

KERNELS = ("_rank", "_select", "_rank_many", "_select_many")
SIZES = range(1, _SCALAR_BATCH + 2)
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
    assert _SCALAR_BATCH >= 2  # a k-mer search step ranks the two ends of an interval
    x = instance(empties)
    st = build(structure, base, x)
    table = rank_table(x)
    rng = np.random.default_rng(5)
    calls = count_kernels(st)
    for k in SIZES:
        i, rc, j, sc = queries(x, k, rng)
        calls.update(dict.fromkeys(KERNELS, 0))
        assert np.array_equal(st.subset_rank_many(i, rc), table[i, rc])
        assert np.array_equal(st.subset_select_many(j, sc),
                              [positions_of(x, c)[jj - 1] for jj, c in zip(j, sc)])
        if k <= _SCALAR_BATCH:
            assert calls == {"_rank": k, "_select": k, "_rank_many": 0, "_select_many": 0}, k
        else:
            assert calls["_rank_many"] == calls["_select_many"] == 1, calls


@pytest.mark.parametrize("structure,base,empties", CASES)
def test_batched_kernels_answer_every_small_size(structure, base, empties):
    x = instance(empties)
    st = build(structure, base, x)
    table = rank_table(x)
    rng = np.random.default_rng(7)
    for k in SIZES:
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
    for limit in (-1, _SCALAR_BATCH, 10**9):  # always batched, as shipped, always scalar
        monkeypatch.setattr(reductions, "_SCALAR_BATCH", limit)
        answers[limit] = [fn(a, c) for fn, a, c in args]
    shapes = [(), (), (0,), (0,), (2, 0), (2, 0), (3, 4), (3, 4)]
    for got in answers.values():
        assert [a.shape for a in got] == shapes
        assert all(a.dtype == np.int64 for a in got)
        assert all(np.array_equal(a, b) for a, b in zip(got, answers[-1]))
