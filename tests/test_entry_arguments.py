"""One table of bad arguments to the public entry points that are not
queries: each integer argument refuses a float, a numeric string and a value
below its range with ValueError, as index_arg does, a builder refuses an
alphabet that its base cannot take, and a builder takes its variant and base
names only as VARIANTS and BASES spell them."""

import numpy as np
import pytest

from degenrank.bench import BenchConfig, run_bench
from degenrank.bounds import lower_bound
from degenrank.degenerate import DegenerateString, generate
from degenrank.dsd import build_dsd
from degenrank.reductions import build_reduction

X = DegenerateString.from_sets(3, [[0, 1], [], [2]])
ST = build_reduction(X, "reduction-iii")

# entry point and argument -> a call taking that argument
ENTRY_POINTS = {
    "DegenerateString-sigma": lambda v: DegenerateString(v, [0, 1], [0, 2]),
    "from_sets-sigma": lambda v: DegenerateString.from_sets(v, [[0, 1]]),
    "generate-n": lambda v: generate(1, v, 4),
    "generate-sigma": lambda v: generate(1, 5, v),
    "lower_bound-N": lambda v: lower_bound(v, 40),
    "lower_bound-sigma": lambda v: lower_bound(100, v),
    "BenchConfig-query_count": lambda v: run_bench(ST, BenchConfig(query_count=v, repeats=1)),
    "BenchConfig-repeats": lambda v: run_bench(ST, BenchConfig(query_count=10, repeats=v)),
    "build_reduction-wavelet-block_words":
        lambda v: build_reduction(X, "reduction-iii", "wavelet", block_words=v),
    "build_reduction-bitplane-block_words":
        lambda v: build_reduction(X, "reduction-iii", "bitplane", block_words=v),
    "build_dsd-wavelet-block_words": lambda v: build_dsd(X, "wavelet", block_words=v),
    "build_dsd-bitplane-block_words": lambda v: build_dsd(X, "bitplane", block_words=v),
    # reduction ii's sentinel sigma must fit the base as well as the members' uint64
    "build_reduction-ii-wavelet-sigma":
        lambda v: build_reduction(DegenerateString(v, [5], [0, 1, 1]), "reduction-ii", "wavelet"),
    "build_reduction-ii-bitplane-sigma":
        lambda v: build_reduction(DegenerateString(v, [5], [0, 1, 1]), "reduction-ii", "bitplane"),
}
# a float, a numeric string and a value below the range, for each of them,
# or an alphabet too large for the base
BAD_VALUES = {
    "DegenerateString-sigma": (2.9, "3", 0, -1),
    "from_sets-sigma": (2.5, "3", 0),
    "generate-n": (5.0, "5", -1),
    "generate-sigma": (2.5, "4", 0),
    "lower_bound-N": (2.5, "100", 0),
    "lower_bound-sigma": (40.0, "40", -1),
    "BenchConfig-query_count": (2.5, "10", 0),
    "BenchConfig-repeats": (1.0, "1", 0),
    "build_reduction-wavelet-block_words": (8.0, "8", -5, 0),
    "build_reduction-bitplane-block_words": (8.0, "8", -5, 0),
    "build_dsd-wavelet-block_words": (8.0, "8", -5),
    "build_dsd-bitplane-block_words": (8.0, "8", 0),
    "build_reduction-ii-wavelet-sigma": (2**64, 2**65),
    "build_reduction-ii-bitplane-sigma": (2**64, 2**65),
}
ROWS = [pytest.param(ENTRY_POINTS[name], value, id=f"{name}-{type(value).__name__}-{value}")
        for name, values in BAD_VALUES.items() for value in values]
# the builders' names: no alias, no case or space folding, nothing unknown
NAMES = {"build_reduction-variant": (lambda v: build_reduction(X, v),
                                     ("iii", "3", "III", "Reduction-III", " reduction-iii",
                                      "reduction-iv")),
         "build_reduction-base": (lambda v: build_reduction(X, "reduction-i", v),
                                  ("rrr", "Wavelet")),
         "build_dsd-base": (lambda v: build_dsd(X, v), ("rrr", " bitplane"))}
ROWS += [pytest.param(call, value, id=f"{name}-{value.replace(' ', 'space-')}")
         for name, (call, values) in NAMES.items() for value in values]


@pytest.mark.parametrize("call,value", ROWS)
def test_a_bad_argument_is_a_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


def test_the_same_calls_take_integers_of_any_type():
    assert DegenerateString(np.int64(3), [0, 1], [0, 2]) == DegenerateString.from_sets(3, [[0, 1]])
    assert generate(1, np.uint8(5), np.int32(4)) == generate(1, 5, 4)
    assert lower_bound(np.int64(100), np.uint16(40)) == lower_bound(100, 40)
    cfg = BenchConfig(query_count=np.int64(10), repeats=np.uint8(1)).validated()
    assert (type(cfg.query_count), type(cfg.repeats)) == (int, int)
    assert build_reduction(X, "reduction-iii", "bitplane", block_words=np.int8(2)).block_words == 2
    # sigma has no upper bound but the members' uint64
    assert DegenerateString(2**64, [2**64 - 1], [0, 1]).sigma == 2**64
