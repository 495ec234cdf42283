import numpy as np
import pytest

from degenrank.degenerate import DegenerateString, generate, parse_degenerate, stats
from degenrank.oracle import (oracle_rank, oracle_select, positions_of, rank_table,
                              symbol_positions)

WORKED = parse_degenerate("4 4\n0 1 2\n0 3\n1\n2 3\n")


def test_worked_example():
    assert oracle_rank(WORKED, 2, 0) == 2
    assert oracle_select(WORKED, 2, 2) == 3
    for c in range(4):
        assert oracle_rank(WORKED, 0, c) == 0


def test_totals_match_histogram():
    x = generate(3, 400, 8)
    per_symbol = [oracle_rank(x, x.n, c) for c in range(8)]
    recount = np.zeros(8, dtype=int)
    for s in x.sets():
        for c in set(s):
            recount[c] += 1
    assert per_symbol == list(recount)


def test_rank_select_identities():
    x = generate(11, 120, 4, profile="genomic-like")
    for c in range(4):
        total = oracle_rank(x, x.n, c)
        for j in range(1, total + 1):
            i = oracle_select(x, j, c)
            assert oracle_rank(x, i + 1, c) == j
            assert oracle_rank(x, i, c) == j - 1
        with pytest.raises(ValueError):
            oracle_select(x, total + 1, c)


def test_tables_agree_with_scalar():
    x = generate(23, 90, 5, size_probs=[0.3, 0.3, 0.2, 0.1, 0.05, 0.05])
    table = rank_table(x)
    assert table.shape == (91, 5)
    for i in range(0, 91, 7):
        for c in range(5):
            assert table[i, c] == oracle_rank(x, i, c)
    for c in range(5):
        pos = positions_of(x, c)
        assert pos.size == table[-1, c]
        for j, p in enumerate(pos, start=1):
            assert oracle_select(x, j, c) == p


def test_empty_sets_do_not_count():
    x = DegenerateString.from_sets(2, [[], [0], [], [0, 1]])
    assert oracle_rank(x, 4, 0) == 2
    assert oracle_rank(x, 4, 1) == 1
    assert oracle_select(x, 1, 0) == 1
    assert oracle_select(x, 2, 0) == 3
    assert rank_table(x)[4, 0] == 2


def test_bounds():
    with pytest.raises(IndexError):
        oracle_rank(WORKED, 5, 0)
    with pytest.raises(IndexError):
        oracle_rank(WORKED, 2, 4)
    with pytest.raises(IndexError):
        oracle_select(WORKED, 1, 9)
    with pytest.raises(ValueError):
        oracle_select(WORKED, 0, 1)


def test_all_empty_instance():
    x = DegenerateString.from_sets(4, [[], [], []])
    assert stats(x).n0 == 3
    assert oracle_rank(x, 3, 2) == 0
    assert rank_table(x).sum() == 0
    assert positions_of(x, 1).size == 0
    with pytest.raises(ValueError):
        oracle_select(x, 1, 0)


@pytest.mark.parametrize("x", [
    WORKED,
    DegenerateString.from_sets(1, [[0], [], [0], [0]]),  # sigma 1
    DegenerateString.from_sets(5, [[], [], [1, 4], [0, 1], [], [4], [], []]),  # empties at both ends
    DegenerateString.from_sets(3, [[], [], []]),  # all empty
    generate(6, 500, 9),
], ids=["worked", "sigma-1", "empty-ends", "all-empty", "sigma-9"])
def test_symbol_positions_slices_are_positions_of(x):
    pos, bounds = symbol_positions(x)
    assert (bounds[0], bounds[-1]) == (0, x.N)
    for c in range(x.sigma):
        assert np.array_equal(pos[bounds[c]:bounds[c + 1]], positions_of(x, c)), c
