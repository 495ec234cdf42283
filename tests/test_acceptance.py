"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line
(visible with -rA or -s). The corpus sweeps compare every in-range query
against a linear-scan oracle, so a pass means the structures are exact,
not just plausible.
"""

import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from degenrank import container
from degenrank.bench import BenchConfig, run_bench
from degenrank.bounds import lower_bound
from degenrank.cli import main
from degenrank.degenerate import DegenerateString, generate, parse_degenerate
from degenrank.dsd import build_dsd
from degenrank.oracle import positions_of, rank_table
from degenrank.reductions import build_reduction
from degenrank.strrank import BitPlaneRank, WaveletTree

A, C, G, T = 0, 1, 2, 3
WORKED = DegenerateString.from_sets(4, [[A, C, G], [A, T], [C], [T, G]])


def rank_grid(st, n: int, sigma: int) -> np.ndarray:
    idx = np.arange(n + 1)
    return np.column_stack(
        [st.subset_rank_many(idx, np.full(idx.size, c)) for c in range(sigma)])


def select_rows(st, totals) -> dict:
    out = {}
    for c, m in enumerate(totals):
        m = int(m)
        js = np.arange(1, m + 1)
        out[c] = (st.subset_select_many(js, np.full(m, c)) if m
                  else np.zeros(0, dtype=np.int64))
    return out


def assert_matches_oracle(x, st, label=""):
    table = rank_table(x)
    assert np.array_equal(rank_grid(st, x.n, x.sigma), table), label
    got = select_rows(st, table[-1])
    for c in range(x.sigma):
        assert np.array_equal(got[c], positions_of(x, c)), (label, c)


def empties_probs(sigma: int, frac: float):
    probs = np.zeros(sigma + 1)
    probs[0] = frac
    if frac < 1.0:
        probs[1:] = (1.0 - frac) / sigma
    return tuple(probs)


def supported_structures(x):
    out = []
    variants = ["reduction-ii", "reduction-iii"]
    if x.n0 == 0:
        variants.append("reduction-i")
    for v in variants:
        eff = x.sigma + 1 if v == "reduction-ii" else x.sigma
        out.append((f"{v}/wavelet", build_reduction(x, v, "wavelet")))
        if eff <= 4:
            out.append((f"{v}/bitplane",
                        build_reduction(x, v, "bitplane", block_words=1)))
    out.append(("dsd/wavelet", build_dsd(x, "wavelet")))
    if x.sigma <= 4:
        out.append(("dsd/bitplane", build_dsd(x, "bitplane", block_words=1)))
    return out


def test_criterion_1_worked_example():
    red = build_reduction(WORKED, "reduction-i", "wavelet")
    # indicator bitvector R is exactly 100101101
    assert red._R.bits().tolist() == [1, 0, 0, 1, 0, 1, 1, 0, 1]
    # end-to-end answers, exact integers
    assert red.subset_rank(2, A) == 2
    assert red.subset_select(2, G) == 3  # 0-indexed: the 4th set, 1-indexed
    # intermediate hops (0-indexed counterparts of the documented walk)
    assert red._R.select(3, 1) == 5
    assert red._S.rank(5, A) == 2
    assert red._R.rank(8, 1) == 4
    # within-set order is immaterial: concatenating set 4 as "TG" instead of
    # the canonical "GT" gives S = ACGATCTG, where the 2nd G sits at index 7
    # (the 8th symbol), and the composed answer is the same 4th set
    reordered = WaveletTree(np.array([A, C, G, A, T, C, T, G]), 4)
    assert reordered.rank(5, A) == 2
    assert reordered.select(2, G) == 7
    assert red._R.rank(7 + 1, 1) - 1 == 3
    for st in (red, build_reduction(WORKED, "reduction-i", "bitplane")):
        assert st.subset_rank(2, A) == 2 and st.subset_select(2, G) == 3
    reps = 2000
    t0 = time.perf_counter()
    for _ in range(reps):
        red.subset_rank(2, A)
        red.subset_select(2, G)
    per_query = (time.perf_counter() - t0) / (2 * reps)
    assert per_query < 1e-3
    print(f"PASS criterion-1: worked example exact, "
          f"{per_query * 1e6:.1f} us/query (< 1 ms)")


def corpus(seeds_per_cell=50):
    cell = 0
    for sigma in (2, 4, 8, 16, 64):
        for frac in (0.0, 0.1, 0.5, 1.0):
            for rep in range(seeds_per_cell):
                seed = 10_000 + cell * 1_000 + rep
                n = int(np.random.default_rng(seed).integers(1, 257))
                yield generate(seed=seed, n=n, sigma=sigma, profile="uniform",
                               size_probs=empties_probs(sigma, frac))
            cell += 1


def test_criterion_2_corpus_equivalence():
    t0 = time.monotonic()
    count = 0
    structures = 0
    for x in corpus():
        count += 1
        for label, st in supported_structures(x):
            structures += 1
            assert_matches_oracle(x, st, label)
    elapsed = time.monotonic() - t0
    assert count == 1000
    assert elapsed < 300
    print(f"PASS criterion-2: {count} instances, {structures} structures, "
          f"every in-range query matches the oracle ({elapsed:.1f}s)")


def test_criterion_3_structure_agreement():
    # (a) the sentinel and empty-bitvector constructions agree wherever both
    # apply (any instance with empty sets)
    checked = 0
    for x in corpus():
        if x.n0 == 0:
            continue
        ii = build_reduction(x, "reduction-ii", "wavelet")
        iii = build_reduction(x, "reduction-iii", "wavelet")
        assert np.array_equal(rank_grid(ii, x.n, x.sigma),
                              rank_grid(iii, x.n, x.sigma))
        totals = [ii.containing_count(c) for c in range(x.sigma)]
        a = select_rows(ii, totals)
        b = select_rows(iii, totals)
        assert all(np.array_equal(a[c], b[c]) for c in range(x.sigma))
        checked += 1
    assert checked > 300

    # (b) the two base structures agree: exhaustively on every short string,
    # then on seeded and structured strings up to length 2048 with every
    # in-range query
    import itertools
    strings = 0
    for sigma in (1, 2, 3, 4):
        for length in range(6):
            for tup in itertools.product(range(sigma), repeat=length):
                syms = np.array(tup, dtype=np.int64)
                _assert_bases_agree(syms, sigma)
                strings += 1
    rng = np.random.default_rng(3333)
    long_strings = [np.zeros(2048, dtype=np.int64),
                    np.arange(2048, dtype=np.int64) % 4,
                    np.repeat(np.arange(4, dtype=np.int64), 512)]
    long_strings += [rng.integers(0, 4, ln) for ln in (511, 512, 1024, 2047, 2048)]
    for syms in long_strings:
        _assert_bases_agree(syms, 4)
    print(f"PASS criterion-3: sentinel == empty-bitvector on {checked} "
          f"instances; bitplane == wavelet on {strings} exhaustive + "
          f"{len(long_strings)} long strings")


def _assert_bases_agree(syms: np.ndarray, sigma: int):
    wt = WaveletTree(syms, sigma)
    bp = BitPlaneRank(syms, sigma, block_words=1)
    n = syms.size
    idx = np.arange(n + 1)
    for c in range(sigma):
        cs = np.full(idx.size, c)
        want = wt.rank_many(idx, cs)
        assert np.array_equal(bp.rank_many(idx, cs), want)
        m = int(want[-1])
        if m:
            js = np.arange(1, m + 1)
            cs = np.full(m, c)
            assert np.array_equal(bp.select_many(js, cs),
                                  wt.select_many(js, cs))
    if n:
        pos = np.arange(n)
        assert np.array_equal(np.array([bp.access(p) for p in pos[:64]]),
                              np.array([wt.access(p) for p in pos[:64]]))


def test_criterion_4_space_budget():
    # ten-million-symbol instance, no empty sets, four-symbol alphabet
    x = generate(seed=1234, n=4_100_000, sigma=4, profile="uniform",
                 size_probs=(0.0, 0.25, 0.25, 0.25, 0.25))
    assert x.n0 == 0 and x.N >= 10_000_000
    st = build_reduction(x, "reduction-i", "bitplane", block_words=8)
    budget = 1.25 * (x.N * math.log2(4) + x.N)  # 3.75 bits per symbol
    measured = st.size_bits()
    assert measured <= budget
    print(f"PASS criterion-4: N={x.N}, {measured / x.N:.3f} bits/symbol "
          f"<= 3.75 budget")


def test_criterion_5_lower_bound_exactness():
    getcontext().prec = 60
    N, sigma = 1 << 16, 1024
    k = 16
    want = (Decimal(N // k)
            * (Decimal(math.comb(sigma, k)).ln() / Decimal(2).ln()))
    rep = lower_bound(N, sigma)
    rel = abs(Decimal(repr(rep.exact_bits)) - want) / want
    assert rel < Decimal("1e-6")
    assert rep.exact_bits >= rep.relaxed_bits
    assert not rep.relaxed_vacuous
    print(f"PASS criterion-5: exact bound {rep.exact_bits:.6f} bits matches "
          f"big-integer value within {float(rel):.2e} (<= 1e-6)")


def test_criterion_6_bound_ratio_monotone():
    N = 1 << 16
    ratios = []
    for e in (6, 8, 10, 12, 14):
        sigma = 1 << e
        ratios.append(lower_bound(N, sigma).exact_bits / (N * math.log2(sigma)))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    print("PASS criterion-6: exact/(N log2 sigma) strictly increasing: "
          + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_7_block_size_tradeoff():
    x = generate(seed=777, n=1_000_000, sigma=4, profile="genomic-like")
    cfg = BenchConfig(query_count=200_000, repeats=1, seed=99)
    bits = []
    checksums = set()
    for bw in (4, 8, 16, 32):
        st = build_dsd(x, "bitplane", block_words=bw)
        bits.append(st.size_bits() / x.N)
        checksums.add(run_bench(st, cfg).checksum)
    assert all(a > b for a, b in zip(bits, bits[1:]))
    assert len(checksums) == 1
    print("PASS criterion-7: bits/symbol strictly decreasing over block sizes "
          + ", ".join(f"{b:.3f}" for b in bits) + "; identical checksums")


def test_criterion_8_persistence_equivalence():
    rng = np.random.default_rng(2024)
    kinds = ["reduction-ii", "reduction-iii", "dsd", "reduction-i"]
    count = 0
    for rep in range(100):
        sigma = int(rng.choice([2, 3, 4, 6, 16]))
        frac = float(rng.choice([0.0, 0.2, 0.6]))
        n = int(rng.integers(1, 129))
        x = generate(seed=50_000 + rep, n=n, sigma=sigma, profile="uniform",
                     size_probs=empties_probs(sigma, frac))
        kind = kinds[rep % len(kinds)]
        if kind == "reduction-i" and x.n0:
            kind = "reduction-iii"
        eff = sigma + 1 if kind == "reduction-ii" else sigma
        base = "bitplane" if (eff <= 4 and rep % 2) else "wavelet"
        st = (build_dsd(x, base) if kind == "dsd"
              else build_reduction(x, kind, base))
        loaded = container.loads(container.dumps(st))
        table = rank_table(x)
        assert np.array_equal(rank_grid(loaded, x.n, x.sigma), table)
        assert np.array_equal(rank_grid(st, x.n, x.sigma), table)
        fresh_sel = select_rows(st, table[-1])
        load_sel = select_rows(loaded, table[-1])
        for c in range(x.sigma):
            want = positions_of(x, c)
            assert np.array_equal(load_sel[c], want)
            assert np.array_equal(fresh_sel[c], want)
        assert loaded.decompose() == x
        count += 1
    assert count == 100
    print(f"PASS criterion-8: {count} save/load round trips answer "
          f"identically to fresh builds and the oracle")


def test_criterion_9_bench_reproducibility(tmp_path, capsys):
    x = generate(seed=31, n=5000, sigma=8, profile="uniform")
    cont = tmp_path / "inst.dgrs"
    container.save(build_reduction(x, "reduction-iii", "wavelet"), cont)
    argv = ["bench", str(cont), "--queries", "100000", "--repeats", "2",
            "--seed", "5", "--csv"]
    rows = []
    for _ in range(2):
        assert main(list(argv)) == 0
        rows.append(capsys.readouterr().out.strip().split("\n")[-1])
    first, second = (r.split(",") for r in rows)
    assert first[-1] == second[-1]  # identical checksums
    assert main(argv[:-1] + ["--seed", "6", "--csv"]) == 0
    other = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert other[-1] != first[-1]
    with capsys.disabled():
        print(f"\nPASS criterion-9: repeated bench runs reproduce checksum "
              f"{first[-1]}")
