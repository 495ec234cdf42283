"""Throughput benchmark for built structures.

Queries are drawn from a seeded generator in fixed-size batches and run
through the vectorized query path; only the query calls are timed, not the
generation. Every answer is folded into a checksum (sum of answer XOR
global query index, mod 2**64), so two runs with the same seed and
configuration over the same structure must report identical checksums —
and a corrupt or non-equivalent structure cannot go unnoticed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ._bits import INT64_MAX, index_arg

CSV_HEADER = "structure,base,n,N,n0,sigma,query_kind,ns_per_query,bits_per_symbol,checksum"

QUERY_KINDS = ("rank", "select")

_CHUNK = 1 << 20
_U64 = np.uint64


@dataclass
class BenchConfig:
    query_count: int = 20_000_000
    repeats: int = 5
    seed: int = 0
    query_kind: str = "rank"

    def validated(self) -> "BenchConfig":
        if self.query_kind not in QUERY_KINDS:
            raise ValueError(f"query_kind must be one of {QUERY_KINDS}, "
                             f"got {self.query_kind!r}")
        count = index_arg(self.query_count, 1, INT64_MAX, "query_count", ValueError)
        repeats = index_arg(self.repeats, 1, INT64_MAX, "repeats", ValueError)
        return replace(self, query_count=count, repeats=repeats)


@dataclass
class BenchResult:
    structure: str
    base: str
    n: int
    N: int
    n0: int
    sigma: int
    query_kind: str
    ns_per_query: float
    bits_per_symbol: float
    checksum: int

    def csv_row(self) -> str:
        return (f"{self.structure},{self.base},{self.n},{self.N},{self.n0},"
                f"{self.sigma},{self.query_kind},{self.ns_per_query:.3f},"
                f"{self.bits_per_symbol:.4f},{self.checksum:016x}")

    def lines(self):
        return [
            f"structure        {self.structure} ({self.base})",
            f"instance         n={self.n} N={self.N} n0={self.n0} sigma={self.sigma}",
            f"query kind       {self.query_kind}",
            f"ns per query     {self.ns_per_query:.3f}",
            f"bits per symbol  {self.bits_per_symbol:.4f}",
            f"checksum         {self.checksum:016x}",
        ]


def run_bench(st, config: BenchConfig) -> BenchResult:
    """Time batched queries against st; returns the best repeat."""
    cfg = config.validated()
    if cfg.query_kind == "select":
        totals = st._containing  # containing_count of every symbol, without sigma calls
        eligible = np.flatnonzero(totals)
        if eligible.size == 0:
            raise ValueError("select benchmark needs at least one symbol "
                             "that occurs in some set")
    query = st.subset_rank_many if cfg.query_kind == "rank" else st.subset_select_many
    best = float("inf")
    for rep in range(cfg.repeats):
        rng = np.random.default_rng(cfg.seed)
        elapsed = 0.0
        fold = _U64(0)
        for at in range(0, cfg.query_count, _CHUNK):
            take = min(_CHUNK, cfg.query_count - at)
            if cfg.query_kind == "rank":  # prefixes i, then symbols c
                a = rng.integers(0, st.n + 1, take)
                c = rng.integers(0, st.sigma, take)
            else:  # symbols c, then select indexes j
                c = eligible[rng.integers(0, eligible.size, take)]
                a = rng.integers(1, totals[c] + 1)
            t0 = time.perf_counter()
            ans = query(a, c)
            elapsed += time.perf_counter() - t0
            if rep == 0:
                idx = np.arange(at, at + take, dtype=_U64)
                fold = fold + (ans.astype(_U64) ^ idx).sum(dtype=_U64)
        if rep == 0:
            checksum = int(fold)  # the uint64 sum wraps mod 2**64
        best = min(best, elapsed)
    return BenchResult(
        structure=st.structure_name,
        base=st.base_name,
        n=st.n, N=st.N, n0=st.n0, sigma=st.sigma,
        query_kind=cfg.query_kind,
        ns_per_query=best * 1e9 / cfg.query_count,
        bits_per_symbol=st.size_bits() / st.N if st.N else float("nan"),
        checksum=checksum,
    )
