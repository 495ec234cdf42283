"""Workloads, timed phases and oracle checks of the degenrank benchmark.

One run builds one structure for one workload and seed, then measures:

(a) set-up: build from the in-memory instance (repeated), dumps, and loads
    (repeated); every later phase queries the loaded copy;
(b) batched subset_rank_many / subset_select_many over streams drawn exactly
    as ``degenrank.bench.run_bench`` draws them, timed per batch;
(c) scalar subset_rank / subset_select, timed per call;
(d) k-mer chains: walks of CHAIN_STEPS dependent subset_rank_many calls on a
    two-element interval, as in backward search over the spectral BWT.

Every answer of (b)-(d) is compared with the oracle outside the timed
region; a query that raises counts as failed and the run goes on. The
trace mode adds the per-layer figures described in tracing.py.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from degenrank import BenchConfig, build_dsd, build_reduction, dumps, generate, loads, run_bench
from degenrank.bench import _CHUNK as RUN_BENCH_CHUNK
from degenrank.oracle import positions_of

import tracing

STREAM_QUERIES = 1 << 17  # one pass over a batched stream; the checksum covers it
BATCH = 1 << 13
SCALAR_QUERIES = 1 << 14
CHAIN_STEPS = 31
CHAIN_WALKS = 1 << 12
COUNTED_CALLS = 200  # scalar ranks and chain steps under sys.setprofile

# The host alternates between quiet spells and spells of a few seconds in
# which the same code runs up to twice as slow. Each query phase therefore
# runs in short slices, interleaved with the other phases, and a probe of
# fixed work (PROBE_CALLS trivial numpy calls) runs between slices; a slice
# is as slow as the slower of its two probes. The statistics pool the quiet
# slices: those whose probe is within QUIET_RATIO of the run's
# second-fastest probe, and at least enough slices for the minimum samples,
# less outlier slices (see Phase.kept). Set-up keeps the tenth of its
# repetitions with the fastest probes.
ROUND_SECONDS = 0.1  # one slice of every phase
MIN_ROUNDS = 4
QUIET_RATIO = 1.2
PROBE_CALLS = 200
MIN_LATENCY_SAMPLES = 1000  # so that p99 has ten samples beyond it
MIN_BATCH_SAMPLES = 16
SLICE_OUTLIER = 1.1

# Share of --seconds given to each query phase.
PHASE_SHARE = {"rank_many": 0.2, "select_many": 0.2, "rank": 0.15,
               "select": 0.15, "chain": 0.3}

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 1000
SETUP_QUIET_SHARE = 0.1
SETUP_MIN_KEPT = 3

assert STREAM_QUERIES <= RUN_BENCH_CHUNK and STREAM_QUERIES % BATCH == 0


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    sigma: int
    log2_n: int
    structure: str
    base: str
    why: str

    def instance(self, seed: int, log2_n: int | None = None):
        n = 1 << (self.log2_n if log2_n is None else log2_n)
        return generate(seed, n, self.sigma, self.profile)

    def build(self, x):
        if self.structure == "dsd":
            return build_dsd(x, self.base)
        return build_reduction(x, self.structure, self.base, block_words=8)


WORKLOADS = {w.name: w for w in (
    Workload("dna-r3-wavelet", "genomic-like", 4, 23, "reduction-iii", "wavelet",
             "the paper's motivating data shape: rank runs E, R select and two "
             "wavelet levels, so R select and the word kernels show here"),
    Workload("dna-r3-bitplane", "genomic-like", 4, 23, "reduction-iii", "bitplane",
             "same instance and streams with the bitplane base: a bitvector change "
             "moves both dna workloads, a bitplane change only this one"),
    Workload("wide-dsd-wavelet", "uniform", 16, 16, "dsd", "wavelet",
             "sigma 16, about 8 members per set: sparse overflow vectors and the "
             "binary-search select dominate, and the working set fits in L2"),
)}

END_TO_END = {
    "rank_ns_per_q": "ns/q", "select_ns_per_q": "ns/q", "rank_us_p50": "us",
    "select_us_p50": "us", "chain_step_us_p50": "us", "setup_s": "s",
    "bits_per_symbol": "bits/sym",
}
# Printed by every timed run but not in its result: on a shared host these
# spread over ten seeds by about as much as the largest bound allowed.
REPORTED = {"rank_us_p99": "us", "select_us_p99": "us", "chain_step_us_p99": "us",
            "load_s": "s"}

# Per-layer query metrics: (name, phase, span, self or total time).
# A batched figure is per subset query of its phase, a scalar one per call.
SPAN_METRICS = (
    ("reductions.rank_many.self_ns_per_q", "rank_many", "reductions.rank_many", "self"),
    ("reductions.select_many.self_ns_per_q", "select_many", "reductions.select_many", "self"),
    ("reductions.rank.self_us", "rank", "reductions.rank", "self"),
    ("dsd.rank_many.self_ns_per_q", "rank_many", "dsd.rank_many", "self"),
    ("dsd.select_many.self_ns_per_q", "select_many", "dsd.select_many", "self"),
    ("dsd.rank.self_us", "rank", "dsd.rank", "self"),
    ("strrank.wavelet.rank_many.self_ns_per_q", "rank_many", "strrank.wavelet.rank_many", "self"),
    ("strrank.wavelet.select_many.self_ns_per_q", "select_many",
     "strrank.wavelet.select_many", "self"),
    ("strrank.bitplane.rank_many.ns_per_q", "rank_many", "strrank.bitplane.rank_many", "total"),
    ("strrank.bitplane.select_many.ns_per_q", "select_many",
     "strrank.bitplane.select_many", "total"),
    ("bitvector.R.select_many.self_ns_per_q", "rank_many", "bitvector.R.select_many", "self"),
    ("bitvector.R.rank_many.ns_per_q", "select_many", "bitvector.R.rank_many", "total"),
    ("bitvector.levels.rank_many.self_ns_per_q", "rank_many", "bitvector.levels.rank_many", "self"),
    ("bitvector.levels.select_many.self_ns_per_q", "select_many",
     "bitvector.levels.select_many", "self"),
    ("bitvector.E.rank_many.ns_per_q", "rank_many", "bitvector.E.rank_many", "total"),
    ("bitvector.E.select_many.ns_per_q", "select_many", "bitvector.E.select_many", "total"),
    ("bitvector.overflow.rank_many.ns_per_q", "rank_many", "bitvector.overflow.rank_many", "total"),
    ("bitvector.overflow.rank_many.in_select.ns_per_q", "select_many",
     "bitvector.overflow.rank_many", "total"),
    ("bits.select_in_words.ns_per_q", "rank_many", "bits.select_in_words", "total"),
)
SUMMARY_METRICS = ("rank_ns_per_q", "select_ns_per_q", "rank_us_p50", "rank_us_p99",
                   "select_us_p50", "select_us_p99", "chain_step_us_p50", "chain_step_us_p99")
SPACE_COMPONENTS = ("S", "R", "E", "base", "overflow")
COMPONENT_KINDS = ("wavelet", "bitplane", "plain", "sparse")


def _unit(name: str) -> str:
    if name.endswith("ns_per_q"):
        return "ns/q"
    if name.endswith("_us") or name.endswith(".us") or "_us_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_per_symbol"):
        return "bits/sym"
    if name.endswith("bytes_per_symbol"):
        return "bytes/sym"
    if name.endswith("numpy_call_ns"):
        return "ns"
    return "count"


PER_LAYER = [name for name, *_ in SPAN_METRICS] + [
    "calls.dsd.select_many.rank_rounds", "calls.rank1", "calls.chain_step",
    *(f"build.{k}_s" for k in COMPONENT_KINDS), *(f"load.{k}_s" for k in COMPONENT_KINDS),
    "container.dumps_s", "container.loads_s", "container.bytes_per_symbol",
    *(f"space.{c}.bits_per_symbol" for c in SPACE_COMPONENTS),
    "floor.gather_ns_per_q", "env.numpy_call_ns",
    *(f"traced.{m}" for m in SUMMARY_METRICS), *(f"untraced.{m}" for m in SUMMARY_METRICS),
    "residual.rank_many.ns_per_q", "residual.select_many.ns_per_q", "residual.rank.us",
    "residual.select.us", "residual.chain_step.us",
]
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


class Oracle:
    """Subset rank and select from the sorted positions of each symbol."""

    def __init__(self, x):
        self.n = x.n
        self.pos = [positions_of(x, c) for c in range(x.sigma)]
        self.totals = np.array([p.size for p in self.pos], dtype=np.int64)

    def rank(self, i: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = np.empty(i.size, dtype=np.int64)
        for cc, p in enumerate(self.pos):
            m = c == cc
            out[m] = np.searchsorted(p, i[m], side="left")
        return out

    def select(self, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = np.empty(j.size, dtype=np.int64)
        for cc, p in enumerate(self.pos):
            m = c == cc
            out[m] = p[j[m] - 1]
        return out


@dataclass
class Streams:
    rank_i: np.ndarray
    rank_c: np.ndarray
    rank_want: np.ndarray
    select_j: np.ndarray
    select_c: np.ndarray
    select_want: np.ndarray
    scalar_rank: list
    scalar_select: list
    chain_start: list
    chain_symbols: list
    chain_offset: list


def make_streams(oracle: Oracle, sigma: int, seed: int) -> Streams:
    n = oracle.n
    totals = oracle.totals
    eligible = np.flatnonzero(totals)
    # Batched streams: the first STREAM_QUERIES draws of run_bench's generator.
    rng = np.random.default_rng(seed)
    ri = rng.integers(0, n + 1, STREAM_QUERIES)
    rc = rng.integers(0, sigma, STREAM_QUERIES)
    rng = np.random.default_rng(seed)
    sc = eligible[rng.integers(0, eligible.size, STREAM_QUERIES)]
    sj = rng.integers(1, totals[sc] + 1)

    rng = np.random.default_rng([seed, 1])
    qi = rng.integers(0, n + 1, SCALAR_QUERIES)
    qc = rng.integers(0, sigma, SCALAR_QUERIES)
    qsc = eligible[rng.integers(0, eligible.size, SCALAR_QUERIES)]
    qsj = rng.integers(1, totals[qsc] + 1)

    rng = np.random.default_rng([seed, 2])
    starts = np.sort(rng.integers(0, n + 1, (CHAIN_WALKS, 2)), axis=1)
    symbols = rng.integers(0, sigma, (CHAIN_WALKS, CHAIN_STEPS))
    offset = np.zeros(sigma, dtype=np.int64)
    np.cumsum(totals[:-1], out=offset[1:])
    return Streams(
        ri, rc, oracle.rank(ri, rc), sj, sc, oracle.select(sj, sc),
        list(zip(qi.tolist(), qc.tolist(), oracle.rank(qi, qc).tolist())),
        list(zip(qsj.tolist(), qsc.tolist(), oracle.select(qsj, qsc).tolist())),
        starts.tolist(), symbols.tolist(), offset.tolist())


def checksum(answers: np.ndarray) -> int:
    """run_bench's fold: sum of answer XOR query index, mod 2**64."""
    idx = np.arange(answers.size, dtype=np.uint64)
    return int((answers.astype(np.uint64) ^ idx).sum(dtype=np.uint64))


class Tally:
    """Operations attempted and failed, plus the first error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def add(self, attempted: int, failed: int, error: Exception | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error is not None and self.first_error is None:
            self.first_error = f"{type(error).__name__}: {error}"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def probe_ns(calls: int = PROBE_CALLS) -> float:
    """ns per trivial numpy call over `calls` calls: how fast the host runs now."""
    one = np.ones(1)
    out = np.empty(1)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        np.add(one, one, out=out)
    return (time.perf_counter_ns() - t0) / calls


def quiet(noise, sizes, minimum: int) -> list[int]:
    """Indices of the quiet entries, in order.

    Entries are taken in order of their probe while it stays within
    QUIET_RATIO of the second-fastest probe, and until their sizes add up to
    `minimum`, whichever takes more.
    """
    order = np.argsort(noise, kind="stable").tolist()
    ref = sorted(noise)[min(1, len(noise) - 1)]
    kept, total = [], 0
    for k in order:
        if noise[k] > QUIET_RATIO * ref and total >= minimum:
            break
        kept.append(k)
        total += sizes[k]
    return sorted(kept)


class Phase:
    """A query phase run in slices; each slice's samples sit between two probes."""

    per_sample = 1  # queries per sample
    min_samples = MIN_LATENCY_SAMPLES

    def __init__(self, tally: Tally):
        self.tally = tally
        self.slices = []  # per slice: ns per call, or per query of each batch
        self.noise = []  # per slice: the slower of the probes around it
        self.wall_ns = 0  # all time spent in slices, for the budget

    def run(self, seconds: float) -> None:
        t0 = time.perf_counter_ns()
        self.slices.append(self._slice(t0 + int(seconds * 1e9)))
        self.wall_ns += time.perf_counter_ns() - t0

    def kept(self) -> list[int]:
        """The quiet slices, less those whose median exceeds SLICE_OUTLIER
        times the median of the quiet slices' medians: every slice runs the
        same query mix, so such a slice met interference the probes missed."""
        medians = {k: _median(self.slices[k]) for k in quiet(
            self.noise, [len(x) for x in self.slices], self.min_samples) if self.slices[k]}
        typical = _median(medians.values())
        return [k for k, m in medians.items() if m <= SLICE_OUTLIER * typical]

    def samples(self) -> list:
        return [s for k in self.kept() for s in self.slices[k]]

    def timed(self) -> tuple[float, int]:
        """(timed ns, queries or calls) over the kept slices."""
        samples = self.samples()
        return sum(samples) * self.per_sample, len(samples) * self.per_sample


class BatchedPhase(Phase):
    """Batches of BATCH queries from one stream, cycled; the first pass is checksummed."""

    per_sample = BATCH
    min_samples = MIN_BATCH_SAMPLES

    def __init__(self, call, a, b, want, tally: Tally):
        super().__init__(tally)
        self.call, self.a, self.b, self.want = call, a, b, want
        self.batches = a.size // BATCH
        self.first = np.empty(a.size, dtype=np.int64)
        self.first_ok = True
        self.k = 0

    def _slice(self, deadline: int) -> list:
        per_q = []
        k0 = self.k
        clock = time.perf_counter_ns
        while self.k == k0 or clock() < deadline:
            dt = self._batch()
            if dt is not None:
                per_q.append(dt / BATCH)
        return per_q

    def _batch(self):
        """One batch, checked against the oracle; its ns, or None if it raised."""
        at = self.k % self.batches
        sl = slice(at * BATCH, (at + 1) * BATCH)
        first_pass = self.k < self.batches
        self.k += 1
        x, y = self.a[sl], self.b[sl]
        t0 = time.perf_counter_ns()
        try:
            ans = self.call(x, y)
        except Exception as exc:  # a failed query is counted, not fatal
            self.tally.add(BATCH, BATCH, exc)
            self.first_ok = self.first_ok and not first_pass
            return None
        dt = time.perf_counter_ns() - t0
        self.tally.add(BATCH, int((np.asarray(ans) != self.want[sl]).sum()))
        if first_pass:
            self.first[sl] = ans
        return dt

    def finish_first_pass(self) -> None:
        """Run the rest of the checksummed first pass, outside the statistics."""
        while self.k < self.batches:
            self._batch()

    def checksum(self):
        return checksum(self.first) if self.first_ok else None


class ScalarPhase(Phase):
    """One query per call, cycling a fixed list of (argument, symbol, answer)."""

    def __init__(self, call, queries, tally: Tally):
        super().__init__(tally)
        self.call, self.queries_ = call, queries
        self.k = 0

    def _slice(self, deadline: int) -> list:
        lat = []
        failed = 0
        k0 = self.k
        clock = time.perf_counter_ns
        while self.k == k0 or clock() < deadline:
            q0, q1, want = self.queries_[self.k % len(self.queries_)]
            self.k += 1
            t0 = clock()
            try:
                got = self.call(q0, q1)
            except Exception as exc:  # a failed query is counted, not fatal
                self.tally.add(0, 0, exc)
                failed += 1
                continue
            lat.append(clock() - t0)
            failed += got != want
        self.tally.add(self.k - k0, failed)
        return lat


class ChainPhase(Phase):
    """Walks of CHAIN_STEPS dependent two-element subset_rank_many calls.

    Each step ranks the interval ends [s, e] for the walk's next symbol c and
    maps them with (C[c] + rank) mod (n + 1), as backward search over the
    spectral BWT does. Only the call is timed; answers are checked at the end.
    """

    def __init__(self, st, streams: Streams, oracle: Oracle, tally: Tally):
        super().__init__(tally)
        self.call, self.streams, self.oracle = st.subset_rank_many, streams, oracle
        self.walk = 0
        self.steps = []  # (s, e, c, answer at s, answer at e)
        self.inputs = []  # the first COUNTED_CALLS step arguments
        self.raised = 0  # queries in steps that raised

    def _slice(self, deadline: int) -> list:
        lat = []
        offset, n1 = self.streams.chain_offset, self.oracle.n + 1
        clock = time.perf_counter_ns
        w0 = self.walk
        while self.walk == w0 or clock() < deadline:
            s, e = self.streams.chain_start[self.walk % CHAIN_WALKS]
            for c in self.streams.chain_symbols[self.walk % CHAIN_WALKS]:
                iv = np.array([s, e], dtype=np.int64)
                cv = np.array([c, c], dtype=np.int64)
                t0 = clock()
                try:
                    ans = self.call(iv, cv)
                except Exception as exc:  # a failed step ends its walk
                    self.tally.add(0, 0, exc)
                    self.raised += 2
                    break
                lat.append(clock() - t0)
                if len(self.inputs) < COUNTED_CALLS:
                    self.inputs.append((iv, cv))
                a0, a1 = ans.tolist()
                self.steps.append((s, e, c, a0, a1))
                s = (offset[c] + a0) % n1
                e = (offset[c] + a1) % n1
            self.walk += 1
        return lat

    def check(self) -> None:
        rec = np.array(self.steps, dtype=np.int64).reshape(-1, 5)
        i = np.concatenate([rec[:, 0], rec[:, 1]])
        c = np.concatenate([rec[:, 2], rec[:, 2]])
        got = np.concatenate([rec[:, 3], rec[:, 4]])
        wrong = int((got != self.oracle.rank(i, c)).sum())
        self.tally.add(got.size + self.raised, self.raised + wrong)


def query_phases(st, streams: Streams, oracle: Oracle, seconds: float, tally: Tally,
                 rec: tracing.SpanRecorder | None = None) -> dict:
    """Phases (b)-(d) on st, interleaved in rounds of about ROUND_SECONDS.

    Each round runs one slice of every phase, with a probe between
    consecutive slices. A phase that is ahead of its share of the time so
    far (its batches can be longer than a slice) sits the round out.
    Statistics pool the samples of each phase's quiet slices. Returns the
    figures and the phase objects.
    """
    phases = {
        "rank_many": BatchedPhase(st.subset_rank_many, streams.rank_i, streams.rank_c,
                                  streams.rank_want, tally),
        "select_many": BatchedPhase(st.subset_select_many, streams.select_j, streams.select_c,
                                    streams.select_want, tally),
        "rank": ScalarPhase(st.subset_rank, streams.scalar_rank, tally),
        "select": ScalarPhase(st.subset_select, streams.scalar_select, tally),
        "chain": ChainPhase(st, streams, oracle, tally),
    }
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))
    span_phase = rec.phase if rec is not None else (lambda name: nullcontext())
    gc.collect()
    gc.disable()
    try:
        before = probe_ns()
        for r in range(rounds):
            for name, ph in phases.items():
                budget = seconds * PHASE_SHARE[name] / rounds
                if ph.wall_ns > budget * (r + 1) * 1e9:
                    continue
                with span_phase(name):
                    ph.run(budget)
                after = probe_ns()
                ph.noise.append(max(before, after))
                before = after
        phases["rank_many"].finish_first_pass()
        phases["select_many"].finish_first_pass()
    finally:
        gc.enable()
    phases["chain"].check()
    out = {"phases": phases, "timed": {name: ph.timed() for name, ph in phases.items()},
           "rank_ns_per_q": _median(phases["rank_many"].samples()),
           "select_ns_per_q": _median(phases["select_many"].samples())}
    for name, metric in (("rank", "rank_us"), ("select", "select_us"),
                         ("chain", "chain_step_us")):
        lat = phases[name].samples() or [0]  # every call raised: counted as failed
        out[f"{metric}_p50"] = float(np.percentile(lat, 50)) / 1e3
        out[f"{metric}_p99"] = float(np.percentile(lat, 99)) / 1e3
    return out


def repeat_timed(fn, timer: tracing.ComponentTimer | None = None):
    """Run fn SETUP_MIN_REPS times or more, until SETUP_MIN_SECONDS have passed.

    A probe runs between runs. Returns the last result, the median seconds
    of the SETUP_QUIET_SHARE of runs with the fastest probes (at least
    SETUP_MIN_KEPT), and the per-component seconds of those runs.
    """
    times, noise, parts = [], [], []
    gc.collect()
    gc.disable()
    try:
        before = probe_ns()
        while len(times) < SETUP_MIN_REPS or (
                sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
            if timer is not None:
                timer.seconds = {}
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            after = probe_ns()
            noise.append(max(before, after))
            before = after
            if timer is not None:
                parts.append(timer.seconds)
    finally:
        gc.enable()
    keep = max(SETUP_MIN_KEPT, round(SETUP_QUIET_SHARE * len(times)))
    kept = np.argsort(noise, kind="stable")[:keep].tolist()
    return result, _median([times[k] for k in kept]), [parts[k] for k in kept if parts]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size", encoding="utf-8") as fh:
            l2 = fh.read().strip()
    except OSError:
        l2 = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "l2": l2,
            "threads": threading.active_count()}


def numpy_call_ns() -> float:
    """Median cost of one trivial numpy call, over 21 loops of 1000 calls."""
    return _median([probe_ns(1000) for _ in range(21)])


def gather_floor_ns(n: int, streams: Streams) -> float:
    """One numpy gather per batch from an (n+1)-entry table: median ns/q."""
    table = np.arange(n + 1, dtype=np.int64)
    per = []
    for k in range(STREAM_QUERIES // BATCH):
        idx = streams.rank_i[k * BATCH:(k + 1) * BATCH]
        t0 = time.perf_counter_ns()
        table[idx]
        per.append((time.perf_counter_ns() - t0) / BATCH)
    return _median(per)


def space_breakdown(st) -> dict:
    out = dict.fromkeys(SPACE_COMPONENTS, 0)
    for key, bits in st.size_breakdown().items():
        out[key.split("[")[0]] += bits
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 log2_n: int | None = None) -> tuple[dict, list[str], dict]:
    """One benchmark run; returns (result object, report lines, checksums).

    log2_n overrides the workload's instance size, for quick checks.
    """
    wl = WORKLOADS[name]
    x = wl.instance(seed, log2_n)
    oracle = Oracle(x)
    streams = make_streams(oracle, x.sigma, seed)
    env = environment()
    env.update(numpy_call_ns=round(numpy_call_ns(), 1),
               gather_ns_per_q=round(gather_floor_ns(x.n, streams), 2))
    tally = Tally()
    lines = [f"workload      {wl.name}: {wl.structure}/{wl.base}, profile {wl.profile}",
             f"why           {wl.why}",
             f"instance      seed={seed} n={x.n} N={x.N} n0={x.n0} sigma={x.sigma}",
             "env           " + " ".join(f"{k}={v}" for k, v in env.items())]

    timer = tracing.ComponentTimer() if trace else None
    if trace:
        with tracing.timing_builds(timer):
            built, setup_s, build_parts = repeat_timed(lambda: wl.build(x), timer)
    else:
        built, setup_s, build_parts = repeat_timed(lambda: wl.build(x))
    if trace:
        blob, dumps_s, _ = repeat_timed(lambda: dumps(built))
    else:
        blob = dumps(built)  # dumps_s is a per-layer figure
    del built
    if trace:
        with tracing.timing_loads(timer):
            st, load_s, load_parts = repeat_timed(lambda: loads(blob), timer)
    else:
        st, load_s, load_parts = repeat_timed(lambda: loads(blob))
    size_bits = st.size_bits()
    space = space_breakdown(st)

    query_seconds = seconds / 2 if trace else seconds
    plain = query_phases(st, streams, oracle, query_seconds, tally)
    sums = {"rank": plain["phases"]["rank_many"].checksum(),
            "select": plain["phases"]["select_many"].checksum()}

    bench_sums = {}
    for kind in ("rank", "select"):
        try:
            res = run_bench(st, BenchConfig(query_count=STREAM_QUERIES, repeats=1,
                                            seed=seed, query_kind=kind))
            bench_sums[kind] = res.checksum
        except Exception as exc:  # reported through `correct`, not fatal
            tally.add(0, 0, exc)
            bench_sums[kind] = None
    ties = all(sums[k] is not None and sums[k] == bench_sums[k] for k in sums)
    counts = {name: ph.timed()[1] for name, ph in plain["phases"].items()}
    slices = {name: f"{len(ph.kept())}/{len(ph.slices)}" for name, ph in plain["phases"].items()}

    lines += [
        f"set-up        build {setup_s:.4f} s, loads {load_s:.4f} s "
        f"(medians of the quietest repetitions), {len(blob)} bytes",
        f"samples       kept slices {slices}; {counts['rank_many'] // BATCH} + "
        f"{counts['select_many'] // BATCH} batches of {BATCH}, {counts['rank']} scalar ranks, "
        f"{counts['select']} scalar selects, {counts['chain']} chain steps",
        f"checksums     rank {_hex(sums['rank'])} select {_hex(sums['select'])}"
        f" | run_bench rank {_hex(bench_sums['rank'])} select {_hex(bench_sums['select'])}"
        f" ({STREAM_QUERIES} queries, seed {seed}) -> {'tie' if ties else 'MISMATCH'}",
        f"error_rate    {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} operations)",
    ]
    if tally.first_error:
        lines.append(f"first error   {tally.first_error}")

    if not trace:
        values = {m: plain[m] for m in [*END_TO_END, *REPORTED] if m in plain}
        values.update(setup_s=setup_s, load_s=load_s, bits_per_symbol=size_bits / x.N)
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    else:
        values = traced_metrics(st, streams, oracle, query_seconds, tally, plain, x.N,
                                out_dir / f"spans-{name}-seed{seed}.npz", lines)
        values.update({f"build.{k}_s": _median([p.get(k, 0.0) for p in build_parts])
                       for k in COMPONENT_KINDS})
        values.update({f"load.{k}_s": _median([p.get(k, 0.0) for p in load_parts])
                       for k in COMPONENT_KINDS})
        values["container.dumps_s"] = dumps_s
        values["container.loads_s"] = load_s
        values["container.bytes_per_symbol"] = len(blob) / x.N
        values.update({f"space.{c}.bits_per_symbol": b / x.N for c, b in space.items()})
        values["floor.gather_ns_per_q"] = env["gather_ns_per_q"]
        values["env.numpy_call_ns"] = env["numpy_call_ns"]
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
    lines += [f"{m:<48} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    if not trace:
        lines += [f"{m:<48} {values[m]:.6g} {u} (reported, not bounded)"
                  for m, u in REPORTED.items()]
    result = {"correct": tally.failed == 0 and ties, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    sums.update({f"run_bench.{k}": v for k, v in bench_sums.items()})
    return result, lines, sums


def _hex(value) -> str:
    return "none" if value is None else f"{value:016x}"


def traced_metrics(st, streams: Streams, oracle: Oracle, seconds: float, tally: Tally,
                   plain: dict, N: int, span_path: Path, lines: list) -> dict:
    """Call counts, then the traced phases; per-layer figures from the spans."""
    values = {}
    rank_args = [(q0, q1) for q0, q1, _ in streams.scalar_rank[:COUNTED_CALLS]]
    st.subset_rank(*rank_args[0])
    values["calls.rank1"] = float(np.mean(tracing.count_calls(st.subset_rank, rank_args)))
    values["calls.chain_step"] = float(np.mean(
        tracing.count_calls(st.subset_rank_many, plain["phases"]["chain"].inputs)))

    rec = tracing.SpanRecorder()
    with tracing.instrumented(rec, st):
        with rec.phase("count"):
            st.subset_select_many(streams.select_j[:BATCH], streams.select_c[:BATCH])
        traced = query_phases(st, streams, oracle, seconds, tally, rec)
    arrays = rec.arrays()
    kept = {name: ph.kept() for name, ph in traced["phases"].items()}
    totals = rec.phase_totals(arrays, kept)
    rec.write(span_path, arrays)

    for m in SUMMARY_METRICS:
        values[f"traced.{m}"] = traced[m]
        values[f"untraced.{m}"] = plain[m]
    for name, phase, span, kind in SPAN_METRICS:
        calls, total, own = totals[phase].get(span, (0, 0.0, 0.0))
        per = (own if kind == "self" else total) / traced["timed"][phase][1]
        values[name] = per / 1e3 if name.endswith("_us") else per
    values["calls.dsd.select_many.rank_rounds"] = float(
        rec.child_count(arrays, "count", "dsd.select_many", "dsd.rank_many"))
    for phase, name, scale in (("rank_many", "residual.rank_many.ns_per_q", 1),
                               ("select_many", "residual.select_many.ns_per_q", 1),
                               ("rank", "residual.rank.us", 1e-3),
                               ("select", "residual.select.us", 1e-3),
                               ("chain", "residual.chain_step.us", 1e-3)):
        timed_ns, count = traced["timed"][phase]
        own = sum(v[2] for v in totals[phase].values())
        values[name] = (timed_ns - own) / count * scale

    lines.append(f"spans         {len(rec.nid)} written to {span_path}")
    lines.append("self time by phase and span (per query or call, ns):")
    for phase, spans in totals.items():
        count = traced["timed"][phase][1]
        for span, (calls, total, own) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {phase:<12} {span:<36} calls/q {calls / count:10.4g} "
                         f"total {total / count:12.1f} self {own / count:12.1f}")
    return values
