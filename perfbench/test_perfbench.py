"""Smoke tests of the benchmark at tiny instance sizes.

    python3 -m pytest -q perfbench

They check the metric names against BENCHMARK.json, that every answer
agrees with the oracle, the checksum ties with run_bench and between the
two dna workloads, and that failing queries are counted, not fatal.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from degenrank import BenchConfig, run_bench  # noqa: E402

LOG2_N = 10
SEED = 5
SECONDS = 0.2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.05)


def _run(name, tmp_path, trace=False, seed=SEED):
    return harness.run_workload(name, seed, SECONDS, trace, tmp_path, log2_n=LOG2_N)


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert _names("end_to_end") == harness.END_TO_END
    assert _names("per_layer") == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_timed_run_is_correct_and_ties_with_run_bench(name, tmp_path):
    result, lines, sums = _run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    st = harness.WORKLOADS[name].build(harness.WORKLOADS[name].instance(SEED, LOG2_N))
    for kind in ("rank", "select"):
        cfg = BenchConfig(query_count=harness.STREAM_QUERIES, repeats=1, seed=SEED,
                          query_kind=kind)
        assert sums[kind] == run_bench(st, cfg).checksum
    assert any(line.startswith("error_rate    0 ") for line in lines)
    assert all(any(line.startswith(m + " ") for line in lines) for m in harness.REPORTED)


def test_dna_workloads_share_checksums(tmp_path):
    _, _, wavelet = _run("dna-r3-wavelet", tmp_path)
    _, _, bitplane = _run("dna-r3-bitplane", tmp_path)
    assert wavelet == bitplane


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_reports_layers_and_repeats_counts(name, tmp_path):
    first, _, _ = _run(name, tmp_path, trace=True)
    again, _, _ = _run(name, tmp_path, trace=True)
    assert first["correct"] and first["failed"] == 0
    assert {m: v["unit"] for m, v in first["metrics"].items()} == harness.PER_LAYER_UNITS
    for m in first["metrics"]:
        if m.startswith("calls."):
            assert first["metrics"][m] == again["metrics"][m], m
    assert (tmp_path / f"spans-{name}-seed{SEED}.npz").is_file()


class _Faulty:
    """A loaded structure whose batched rank raises and scalar select lies."""

    def __init__(self, st):
        self._st = st

    def __getattr__(self, attr):
        return getattr(self._st, attr)

    def subset_rank_many(self, i, c):
        raise ValueError("injected")

    def subset_select(self, j, c):
        return -1


def test_failures_are_counted_not_fatal(tmp_path, monkeypatch):
    real_loads = harness.loads
    monkeypatch.setattr(harness, "loads", lambda blob: _Faulty(real_loads(blob)))
    result, lines, sums = _run("dna-r3-wavelet", tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert sums["rank"] is None and sums["select"] is not None
    assert any(line.startswith("first error   ValueError: injected") for line in lines)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dna-r3-wavelet",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
