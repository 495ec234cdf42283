import numpy as np
import pytest

from degenrank.bench import CSV_HEADER, BenchConfig, BenchResult, run_bench
from degenrank.degenerate import DegenerateString, generate
from degenrank.dsd import build_dsd
from degenrank.oracle import rank_table
from degenrank.reductions import build_reduction


def test_config_validation():
    with pytest.raises(ValueError, match="query_kind"):
        BenchConfig(query_kind="access").validated()
    with pytest.raises(ValueError, match="query_count"):
        BenchConfig(query_count=0).validated()
    with pytest.raises(ValueError, match="repeats"):
        BenchConfig(repeats=0).validated()


def test_rank_checksum_matches_reference():
    x = generate(seed=2, n=150, sigma=5, profile="uniform")
    st = build_reduction(x, "reduction-iii")
    cfg = BenchConfig(query_count=3000, repeats=2, seed=4)
    res = run_bench(st, cfg)
    # recompute the fold from the oracle with the same query stream
    rng = np.random.default_rng(4)
    i = rng.integers(0, x.n + 1, 3000)
    c = rng.integers(0, x.sigma, 3000)
    table = rank_table(x)
    want = 0
    for k in range(3000):
        want = (want + (int(table[i[k], c[k]]) ^ k)) % (1 << 64)
    assert res.checksum == want
    assert res.ns_per_query > 0
    assert res.query_kind == "rank"


def test_checksum_is_structure_independent():
    x = generate(seed=6, n=220, sigma=4, profile="genomic-like")
    cfg = BenchConfig(query_count=5000, repeats=1, seed=9)
    sums = set()
    for st in (build_reduction(x, "reduction-ii", "wavelet"),
               build_reduction(x, "reduction-iii", "bitplane"),
               build_dsd(x, "bitplane", block_words=2)):
        sums.add(run_bench(st, cfg).checksum)
    assert len(sums) == 1
    sel = BenchConfig(query_count=5000, repeats=1, seed=9, query_kind="select")
    sums = {run_bench(st, sel).checksum
            for st in (build_reduction(x, "reduction-ii"), build_dsd(x))}
    assert len(sums) == 1


@pytest.mark.parametrize("structure", ["reduction-iii", "dsd"])
def test_a_wide_alphabet_run_keeps_its_checksums(structure):
    # sigma 4096 over 100 sets of up to 3 members, the DSD's regime
    rng = np.random.default_rng(3)
    x = DegenerateString.from_sets(4096, [rng.choice(4096, rng.integers(0, 4), replace=False)
                                          for _ in range(100)])
    st = build_dsd(x) if structure == "dsd" else build_reduction(x, structure)
    sums = [run_bench(st, BenchConfig(query_count=1000, repeats=1, seed=5, query_kind=kind))
            .checksum for kind in ("rank", "select")]
    assert sums == [0x79F32, 0x7A1FD]


def test_select_needs_an_occupied_symbol():
    x = DegenerateString.from_sets(3, [[], []])
    st = build_reduction(x, "reduction-iii")
    with pytest.raises(ValueError, match="select"):
        run_bench(st, BenchConfig(query_count=10, repeats=1, query_kind="select"))


def test_csv_row_shape():
    res = BenchResult("dsd", "wavelet", 4, 8, 0, 4, "rank", 12.5, 3.25,
                      0xDEAD_BEEF)
    row = res.csv_row()
    assert row.split(",")[0] == "dsd"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.endswith("00000000deadbeef")
