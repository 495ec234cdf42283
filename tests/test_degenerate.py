import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenrank.degenerate import (
    DegenerateString,
    GENOMIC_SIZE_PROBS,
    generate,
    parse_degenerate,
    serialize_degenerate,
    stats,
)
from degenrank.oracle import oracle_rank

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
    # a member must fit the uint64 member array, whatever sigma allows
    ("99999999999999999999999 1\n18446744073709551616\n", "outside"),
    (b"4 1\n0 \xc3\xa9\n", "not ASCII"),
    # only what serialize_degenerate writes: numbers 0|[1-9][0-9]*, one
    # space apart, LF line ends; the error names the line
    ("30 1\n1_0\n", "line 2: bad symbol '_'"),
    ("4 1\n+1\n", r"line 2: bad symbol '\+'"),
    ("4 1\n01\n", "line 2: bad symbol '0'"),
    ("10 2\n3\n0 01\n", "line 3: bad symbol '0'"),
    ("4 2\n0\n\u0661\n", "line 3: input is not ASCII"),
    ("4 1\n0 \u00e9", r"line 2: input is not ASCII text in '0 \\\\xc3\\\\xa9'$"),
    ("4_0 1\n0\n", "line 1: header must be two integers"),
    ("04 1\n0\n", "line 1: header must be two integers"),
    ("4 1\r\n0\r\n", "line 1: header must be two integers"),
    ("4 2\n0\r\n\r\n", r"line 2: bad symbol '\\r'"),
    ("4 2\n0\n\r\n", r"line 3: bad symbol '\\r'"),
    ("4 1\n0  1\n", "line 2: bad symbol ' '"),
    ("4 1\n 1\n", "line 2: bad symbol ' '"),
    ("4 1\n1 \n", "line 2: bad symbol ' '"),
    ("4 2\n1\n \n", "line 3: bad symbol ' '"),
    ("4 1\n0\t1\n", r"line 2: bad symbol '\\t'"),
    ("4 1\t1\n0\n", "line 1: header must be two integers"),
    ("4  1\n0\n", "line 1: header must be two integers"),
    ("20000000000000000000 2\n1\n2 99999999999999999999\n", "line 3: symbol 99999999999999999999 outside"),
])
def test_parse_sets_text_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_degenerate(text)


def test_validation_names_the_first_offending_set():
    # set k is line k + 2 of a sets-text file, which only the parser names
    at_set_2, in_file = r"set 2", r"set 2 \(sets-text line 4\)"
    for make, where in ((lambda: DegenerateString(4, np.array([0, 1, 9], dtype=np.uint8),
                                                  [0, 1, 1, 3]), at_set_2),
                        (lambda: DegenerateString.from_sets(4, [[0], [], [1, 4]]), at_set_2),
                        (lambda: parse_degenerate("4 4\n0\n\n1 4\n5\n"), in_file)):
        with pytest.raises(ValueError, match=f"lie in.*member [49] of {where} is outside"):
            make()
    for make, where in ((lambda: DegenerateString(4, [0, 1, 2, 2], [0, 2, 2, 4]), at_set_2),
                        (lambda: DegenerateString.from_sets(4, [[0, 1], [], [3, 3]]), at_set_2),
                        (lambda: parse_degenerate("4 4\n0 1\n\n3 2\n1 0\n"), in_file)):
        with pytest.raises(ValueError, match=f"ascending.*member [23] of {where} is a duplicate"):
            make()


_MUTATIONS = st.one_of(st.sampled_from(b"0123456789 \n\r\t+-_"), st.integers(0, 255))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sigma=st.one_of(st.integers(1, 40), st.integers(1, 2**64)),
       data=st.data())
def test_a_text_that_parses_is_the_text_serialize_writes(sigma, data):
    # change one byte of a serialized instance: what the parser accepts
    # re-serializes to exactly that text, up to the optional final LF
    sets = [sorted(s) for s in data.draw(st.lists(st.sets(st.integers(0, sigma - 1), max_size=4),
                                                  max_size=6))]
    members = np.array([v for s in sets for v in s], dtype=np.uint64)
    x = DegenerateString(sigma, members, np.cumsum([0, *map(len, sets)]))
    text = bytearray(serialize_degenerate(x))
    text[data.draw(st.integers(0, len(text) - 1))] = data.draw(_MUTATIONS)
    text = bytes(text)
    try:
        x = parse_degenerate(text)
    except ValueError:
        return
    assert serialize_degenerate(x) == (text if text.endswith(b"\n") else text + b"\n")


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


@pytest.mark.parametrize("sigma,symbols,offsets,msg", [
    (0, [], [0], "sigma 0 out of range"),
    (4, [[0, 1]], [0, 2], "one-dimensional"),
    (4, [0, 1], [1, 2], "from 0 to len"),
    (4, [0, 1], [0, 1], "from 0 to len"),
    (4, [0, 1, 2], [0, 2, 1, 3], "nondecreasing"),
], ids=["sigma-0", "members-2d", "offsets-from-1", "offsets-short", "offsets-decrease"])
def test_rejects_malformed_arrays(sigma, symbols, offsets, msg):
    with pytest.raises(ValueError, match=msg):
        DegenerateString(sigma, symbols, offsets)


def test_members_past_uint32_keep_their_value():
    big = 2**32 + 7
    x = DegenerateString(2**33, [7, big], [0, 1, 2])
    assert list(x.sets()) == [(7,), (big,)]
    y = parse_degenerate(f"5000000000 2\n{big}\n7\n")
    assert list(y.sets()) == [(big,), (7,)]
    assert oracle_rank(y, 2, big) == 1
    # past int64 too: the parser builds its member array as uint64
    z = parse_degenerate("18446744073709551615 1\n9223372036854775808\n")
    assert list(z.sets()) == [(2**63,)]


def test_uint64_members_past_int64_are_checked_in_their_own_dtype():
    big = 2**63 + 1
    x = DegenerateString(2**64, np.array([1, big], dtype=np.uint64), [0, 2])
    assert x == parse_degenerate(f"{2**64} 1\n1 {big}\n")
    assert list(x.sets()) == [(1, big)]
    with pytest.raises(ValueError, match="ascending"):
        DegenerateString(2**64, np.array([2**63 + 5, big], dtype=np.uint64), [0, 2])


def test_lists_that_mix_members_below_and_past_2_63_are_read_as_uint64():
    # numpy infers float64 for such a list; the members are built as uint64
    x = DegenerateString.from_sets(2**64, [[1, 2**63], [], [2**64 - 1]])
    assert list(x.sets()) == [(1, 2**63), (), (2**64 - 1,)]
    assert x == parse_degenerate(f"{2**64} 3\n1 {2**63}\n\n{2**64 - 1}\n")
    assert DegenerateString(2**64, [1, 2**63], [0, 2]) == DegenerateString.from_sets(
        2**64, [[2**63, 1]])
    for members, msg in [([-1, 2**63], "integers"), ([1.5, 2**63], "integers"),
                         ([np.float64(1.0), 2**63], "integers"), ([1, 2**64], "integers"),
                         ([2**63, 2**63], "duplicate")]:
        with pytest.raises(ValueError, match=msg):
            DegenerateString.from_sets(2**64, [members])
        with pytest.raises(ValueError, match=msg):
            DegenerateString(2**64, members, [0, 2])


def test_stats_worked_example():
    st = stats(parse_degenerate(FIG_TEXT))
    assert (st.sigma, st.n, st.N, st.n0) == (4, 4, 8, 0)
    assert list(st.size_histogram) == [0, 1, 2, 1, 0]
    assert st.distinct_sets == 4
    assert st.set_entropy_bits == pytest.approx(2.0)


def test_stats_histogram_stops_at_the_largest_possible_set():
    # no set holds more than min(sigma, N) members, whatever sigma says
    x = parse_degenerate(f"{2**62} 3\n5\n\n1 {2**62 - 1}\n")
    assert list(stats(x).size_histogram) == [1, 1, 1, 0]
    assert list(stats(parse_degenerate("4 0\n")).size_histogram) == [0]


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


def test_generate_draws_the_same_stream_at_any_chunk_size():
    # generate draws its keys in chunks of at most 2**22; at sigma 300 a chunk
    # is 13,981 sets, so n = 20,000 crosses a chunk edge. Row chunks take the
    # same stream as one draw, and the digests are those of one 2**16-set chunk.
    whole = np.random.default_rng(4).random((700, 37))
    rng = np.random.default_rng(4)
    assert np.array_equal(whole, np.vstack([rng.random((k, 37)) for k in (123, 1, 576)]))
    x = generate(5, 20_000, 300, size_probs=[1, 1, 1, 1] + [0] * 297)
    assert x.symbols.dtype == np.uint16 and x.N == 29_887
    assert hashlib.sha256(x.symbols.tobytes()).hexdigest() == (
        "a5724e5062582638384e952e4c7522f97e3de6afb8b1fe6ccb627641becf9afc")
    assert hashlib.sha256(x.offsets.tobytes()).hexdigest() == (
        "19854e593767d9c0199107cb42a4c24b4ba8a06d8e4bde86fd0cfdbc97015b40")


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
