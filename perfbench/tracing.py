"""Spans and call counts for the traced benchmark run.

The traced run wraps the public query methods of every component of one
built structure, as instance attributes set from the benchmark process;
the library itself is not edited. Each wrapped call records a span: name,
start, end, parent span and root span (the top-level query call, which
serves as the request identifier). Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its
direct children; calls nest strictly because the run has one thread.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import degenrank.bitvector
import degenrank.container
import degenrank.dsd
import degenrank.reductions
import degenrank.strrank
from degenrank.strrank import WaveletTree

STRUCTURE_METHODS = {"subset_rank": "rank", "subset_select": "select",
                     "subset_rank_many": "rank_many",
                     "subset_select_many": "select_many"}
COMPONENT_METHODS = {m: m for m in ("rank", "select", "rank_many", "select_many")}

# Module globals through which bitvector and strrank call the word kernel.
KERNEL_SITES = (degenrank.bitvector, degenrank.strrank)


class SpanRecorder:
    """Append-only span store; each phase owns a list of contiguous span ranges."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.phases: dict[str, list[tuple[int, int]]] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid_val = self._name_id(name)
        nid, start, end = self.nid, self.start, self.end
        parent, root, stack = self.parent, self.root, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(nid)
            nid.append(nid_val)
            parent.append(stack[-1] if stack else -1)
            root.append(stack[0] if stack else idx)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def phase(self, name: str):
        lo = len(self.nid)
        try:
            yield
        finally:
            self.phases.setdefault(name, []).append((lo, len(self.nid)))

    def arrays(self) -> dict:
        nid, start, end, parent, root = (np.frombuffer(a, dtype=np.int64) for a in (
            self.nid, self.start, self.end, self.parent, self.root))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"nid": nid, "start": start, "end": end, "parent": parent, "root": root,
                "dur": dur, "self": dur - child.astype(np.int64)}

    def phase_totals(self, arrays: dict, kept: dict) -> dict:
        """{phase: {span name: (calls, total ns, self ns)}} over the kept slices of each phase."""
        out = {}
        for phase, slices in kept.items():
            at = self._index(phase, slices)
            nid = arrays["nid"][at]
            calls = np.bincount(nid, minlength=len(self.names))
            dur = np.bincount(nid, weights=arrays["dur"][at], minlength=len(self.names))
            own = np.bincount(nid, weights=arrays["self"][at], minlength=len(self.names))
            out[phase] = {name: (int(calls[k]), float(dur[k]), float(own[k]))
                          for k, name in enumerate(self.names) if calls[k]}
        return out

    def _index(self, phase: str, slices=None) -> np.ndarray:
        ranges = self.phases[phase]
        if slices is not None:
            ranges = [ranges[k] for k in slices]
        return np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges]
                              + [np.zeros(0, dtype=np.int64)])

    def child_count(self, arrays: dict, phase: str, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        at = self._index(phase)
        nid = arrays["nid"][at]
        par = arrays["parent"][at]
        mine = (nid == self._ids[child_name]) & (par >= 0)
        return int((arrays["nid"][par[mine]] == self._ids[parent_name]).sum())

    def write(self, path: Path, arrays: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            phases=np.asarray(json.dumps(self.phases)),
                            **{k: arrays[k] for k in ("nid", "start", "end", "parent", "root")})


def components(st):
    """(layer, object, {method: short name}) for every query-path component."""
    if st.structure_name == "dsd":
        e, base, overflow = st.components()
        found = [("dsd", st, STRUCTURE_METHODS), ("bitvector.E", e, COMPONENT_METHODS)]
        found += [("bitvector.overflow", ov, COMPONENT_METHODS) for ov in overflow]
    else:
        inner = st._inner
        base = inner._S
        found = [("reductions", st, STRUCTURE_METHODS), ("bitvector.E", st._E, COMPONENT_METHODS),
                 ("reductions", inner, STRUCTURE_METHODS),
                 ("bitvector.R", inner._R, COMPONENT_METHODS)]
    found.append((f"strrank.{st.base_name}", base, COMPONENT_METHODS))
    if isinstance(base, WaveletTree):
        found += [("bitvector.levels", lv, COMPONENT_METHODS) for lv in base._levels]
    return found


@contextmanager
def instrumented(rec: SpanRecorder, st):
    """Wrap the query methods of st's components and the word kernel."""
    patched = []
    kernels = [(mod, mod.select_in_words) for mod in KERNEL_SITES]
    try:
        for layer, obj, methods in components(st):
            for meth, short in methods.items():
                setattr(obj, meth, rec.wrap(f"{layer}.{short}", getattr(obj, meth)))
                patched.append((obj, meth))
        for mod, fn in kernels:
            mod.select_in_words = rec.wrap("bits.select_in_words", fn)
        yield
    finally:
        for obj, meth in patched:
            delattr(obj, meth)
        for mod, fn in kernels:
            mod.select_in_words = fn


class ComponentTimer:
    """Wall time spent in component constructors, by kind."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def timed(self, kind: str, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[kind] = self.seconds.get(kind, 0.0) + time.perf_counter() - t0
        return call

    def timed_class(self, kind: str, cls):
        """A subclass of cls whose constructor is timed; class attributes stay visible."""
        timed_init = self.timed(kind, cls.__init__)
        return type(cls.__name__, (cls,), {"__init__": timed_init})


@contextmanager
def _patched(pairs):
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in pairs]
    try:
        for mod, name, value in pairs:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


def timing_builds(timer: ComponentTimer):
    """Time each component constructor where the build functions call it."""
    red, dsd = degenrank.reductions, degenrank.dsd
    return _patched([
        (red, "WaveletTree", timer.timed_class("wavelet", red.WaveletTree)),
        (red, "BitPlaneRank", timer.timed_class("bitplane", red.BitPlaneRank)),
        (red, "PlainBitvector", timer.timed_class("plain", red.PlainBitvector)),
        (red, "SparseBitvector", timer.timed_class("sparse", red.SparseBitvector)),
        (dsd, "SparseBitvector", timer.timed_class("sparse", dsd.SparseBitvector)),
    ])


def timing_loads(timer: ComponentTimer):
    """Time each component decoder where container.loads calls it."""
    con = degenrank.container
    return _patched([
        (con, "WaveletTree", SimpleNamespace(from_level_payload=timer.timed(
            "wavelet", con.WaveletTree.from_level_payload))),
        (con, "BitPlaneRank", SimpleNamespace(from_planes=timer.timed(
            "bitplane", con.BitPlaneRank.from_planes))),
        (con, "PlainBitvector", SimpleNamespace(from_words=timer.timed(
            "plain", con.PlainBitvector.from_words))),
        (con, "SparseBitvector", timer.timed("sparse", con.SparseBitvector)),
    ])


def count_calls(fn, arg_tuples) -> list[int]:
    """Python-visible calls (profile 'call' and 'c_call' events) per fn(*args), fn included."""
    seen = 0

    def profile(frame, event, arg):
        nonlocal seen
        if event == "call" or event == "c_call":
            seen += 1

    per = []
    sys.setprofile(profile)
    try:
        for args in arg_tuples:
            before = seen
            fn(*args)
            per.append(seen - before)
    finally:
        sys.setprofile(None)
    return per
