import math
from collections import Counter

import numpy as np
import pytest

from degenrank.degenerate import (
    DegenerateString,
    GENOMIC_SIZE_PROBS,
    generate,
    parse_degenerate,
    serialize_degenerate,
    stats,
)

FIG_TEXT = "4 4\n0 1 2\n0 3\n1\n2 3\n"


def test_parse_sets_text_worked_example():
    x = parse_degenerate(FIG_TEXT)
    assert (x.sigma, x.n, x.N, x.n0) == (4, 4, 8, 0)
    assert list(x.sets()) == [(0, 1, 2), (0, 3), (1,), (2, 3)]
    assert serialize_degenerate(x) == FIG_TEXT.encode()


def test_parse_empty_and_empty_sets():
    x = parse_degenerate("4 0\n")
    assert (x.n, x.N, x.n0) == (0, 0, 0)
    assert serialize_degenerate(x) == b"4 0\n"
    y = parse_degenerate("3 3\n\n0 2\n\n")
    assert (y.n, y.N, y.n0) == (3, 2, 2)
    assert y.set_at(0).size == 0
    assert list(y.set_at(1)) == [0, 2]


def test_parse_dna_text():
    x = parse_degenerate("ACGT\n", fmt="dna-text")
    assert x.sigma == 4
    assert list(x.sets()) == [(0,), (1,), (2,), (3,)]
    assert serialize_degenerate(x, fmt="dna-text") == b"ACGT\n"
    # trailing newline optional on parse
    assert parse_degenerate("GATTACA", fmt="dna-text").n == 7


def test_round_trip_random():
    rng = np.random.default_rng(101)
    for sigma in (2, 4, 9):
        for _ in range(5):
            x = generate(int(rng.integers(1 << 30)), 200, sigma)
            blob = serialize_degenerate(x)
            assert parse_degenerate(blob) == x
    y = generate(5, 300, 4, profile="uniform", size_probs=[0, 1, 0, 0, 0])
    blob = serialize_degenerate(y, fmt="dna-text")
    assert parse_degenerate(blob, fmt="dna-text") == y


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("4\n", "header"),
    ("4 x\n", "two integers"),
    ("0 1\n\n", "out of range"),
    ("4 2\n0\n", "expected 2 set lines"),
    ("4 1\n0 4\n", "outside"),
    ("4 1\n1 1\n", "ascending"),
    ("4 1\n2 1\n", "ascending"),
    ("4 1\n0 q\n", "bad symbol"),
])
def test_parse_sets_text_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_degenerate(text)


def test_parse_dna_errors():
    with pytest.raises(ValueError, match="ACGT"):
        parse_degenerate("ACGX\n", fmt="dna-text")
    with pytest.raises(ValueError, match="single line"):
        parse_degenerate("AC\nGT\n", fmt="dna-text")
    with pytest.raises(ValueError, match="format"):
        parse_degenerate("A\n", fmt="fasta")


def test_serialize_dna_errors():
    with pytest.raises(ValueError, match="sigma 4"):
        serialize_degenerate(generate(1, 10, 3), fmt="dna-text")
    x = parse_degenerate("4 2\n0 1\n2\n")
    with pytest.raises(ValueError, match="singleton"):
        serialize_degenerate(x, fmt="dna-text")


def test_from_sets_validation():
    x = DegenerateString.from_sets(4, [[2, 0], [], [3]])
    assert list(x.sets()) == [(0, 2), (), (3,)]
    with pytest.raises(ValueError, match="duplicate"):
        DegenerateString.from_sets(4, [[1, 1]])
    with pytest.raises(ValueError, match="lie in"):
        DegenerateString.from_sets(2, [[0, 3]])
    with pytest.raises(ValueError, match="lie in"):
        DegenerateString.from_sets(4, [[256]])
    with pytest.raises(ValueError, match="integers"):
        DegenerateString.from_sets(4, [[2.7]])


@pytest.mark.parametrize("symbols,offsets,msg", [
    (np.array([256]), [0, 1], "lie in"),
    (np.array([-256]), [0, 1], "lie in"),
    ([256], [0, 1], "lie in"),
    ([2.7], [0, 1], "integers"),
    ([1], [0, 1.5], "integers"),
], ids=["uint-256", "int-minus-256", "list-256", "member-2.7", "offset-1.5"])
def test_rejects_values_a_narrowing_cast_would_change(symbols, offsets, msg):
    with pytest.raises(ValueError, match=msg):
        DegenerateString(4, symbols, offsets)


def test_stats_worked_example():
    st = stats(parse_degenerate(FIG_TEXT))
    assert (st.sigma, st.n, st.N, st.n0) == (4, 4, 8, 0)
    assert list(st.size_histogram) == [0, 1, 2, 1, 0]
    assert st.distinct_sets == 4
    assert st.set_entropy_bits == pytest.approx(2.0)


def test_stats_entropy_cases():
    same = DegenerateString.from_sets(4, [[1]] * 9)
    assert stats(same).set_entropy_bits == 0.0
    ac = DegenerateString.from_sets(4, [[0], [1], [0], [1]])
    assert stats(ac).set_entropy_bits == pytest.approx(1.0)


def test_stats_matches_recount():
    for sigma in (4, 70):  # second case exercises the wide-alphabet path
        x = generate(17, 500, sigma)
        st = stats(x)
        assert st.N == sum(len(s) for s in x.sets())
        assert st.n0 == sum(1 for s in x.sets() if not s)
        assert int(st.size_histogram.sum()) == x.n
        counts = Counter(x.sets())
        h = -sum((v / x.n) * math.log2(v / x.n) for v in counts.values())
        assert st.distinct_sets == len(counts)
        assert st.set_entropy_bits == pytest.approx(h)


def test_generate_deterministic():
    a = generate(42, 1000, 4, profile="genomic-like")
    b = generate(42, 1000, 4, profile="genomic-like")
    assert a == b
    c = generate(43, 1000, 4, profile="genomic-like")
    assert c != a
    assert generate(1, 0, 4).n == 0


def test_generate_genomic_profile_shape():
    x = generate(1, 10**5, 4, profile="genomic-like")
    st = stats(x)
    assert 1.15 <= st.N / st.n <= 1.35
    frac = st.size_histogram / st.n
    for size, p in enumerate(GENOMIC_SIZE_PROBS):
        assert abs(frac[size] - p) < 0.01, (size, frac[size], p)


def test_generate_valid_and_uniform_sizes():
    x = generate(9, 2000, 5, profile="uniform")
    # construct-time validation is skipped for generated data; re-validate
    DegenerateString(x.sigma, x.symbols, x.offsets)
    sizes = np.bincount(x.set_sizes(), minlength=6) / x.n
    assert np.all(np.abs(sizes - 1 / 6) < 0.05)
    y = generate(9, 2000, 3, size_probs=[0.5, 0, 0, 0.5])
    assert set(np.unique(y.set_sizes())) == {0, 3}


def test_generate_errors():
    with pytest.raises(ValueError, match="sigma 4"):
        generate(1, 10, 3, profile="genomic-like")
    with pytest.raises(ValueError, match="fixes"):
        generate(1, 10, 4, profile="genomic-like", size_probs=[1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="length"):
        generate(1, 10, 4, size_probs=[1, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        generate(1, 10, 2, size_probs=[0.5, 0.7, -0.2])
    with pytest.raises(ValueError, match="profile"):
        generate(1, 10, 4, profile="zipf")


def test_element_rows():
    x = parse_degenerate(FIG_TEXT)
    assert list(x.element_rows()) == [0, 0, 0, 1, 1, 2, 3, 3]
