"""Command-line front end.

    degenrank build      parse a data file, build a structure, write a container
    degenrank verify     check a structure (or container) against its data file
    degenrank bench      time rank/select queries, report a checksummed CSV row
    degenrank lowerbound print the space lower bound for given N and sigma
    degenrank gen        generate a random instance to a data file
    degenrank stats      summarize a data file

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse errors.
The DEGEN_SEED environment variable supplies a default seed wherever
--seed is accepted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import container
from ._bits import INT64_MAX, index_arg
from .bench import QUERY_KINDS, CSV_HEADER, BenchConfig, run_bench
from .bounds import lower_bound, space_audit
from .degenerate import (
    FORMATS,
    PROFILES,
    DegenerateString,
    generate,
    parse_degenerate,
    serialize_degenerate,
    stats,
)
from .dsd import build_dsd
from .oracle import symbol_positions
from .reductions import BASES, VARIANTS, build_reduction

STRUCTURES = VARIANTS + ("dsd",)


def _env_seed(default: int = 0) -> int:
    raw = os.environ.get("DEGEN_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DEGEN_SEED must be an integer, got {raw!r}")


def _load_data(path: str, fmt: str) -> DegenerateString:
    return parse_degenerate(Path(path).read_bytes(), fmt)


def _build(x: DegenerateString, structure: str, base: str, block_words: int):
    if structure == "dsd":
        return build_dsd(x, base, block_words)
    return build_reduction(x, structure, base, block_words)


def _add_data_args(p, with_structure=True):
    p.add_argument("input", help="data file")
    p.add_argument("--format", choices=FORMATS, default="sets-text")
    if with_structure:
        p.add_argument("--structure", choices=STRUCTURES, default="reduction-iii")
        p.add_argument("--base", choices=BASES, default="wavelet")
        p.add_argument("--block-words", type=int, default=8,
                       help="bitplane base: symbols per absolute-count block, in "
                            "units of 512; larger blocks take less space, and a "
                            "query scans at most 8 plane words at any size")


def cmd_build(args) -> int:
    x = _load_data(args.input, args.format)
    st = _build(x, args.structure, args.base, args.block_words)
    container.save(st, args.output)
    meta = stats(x)
    for line in meta.lines():
        print(line)
    if x.N:  # the audit is per symbol, so an instance of only empty sets has none
        for line in space_audit(st.size_bits(), meta).lines():
            print(line)
    print(f"wrote {args.output} ({os.path.getsize(args.output)} bytes)")
    return 0


def _mismatch(kind, c, where, got, want) -> None:
    print(f"MISMATCH subset_{kind}({where}, {c}): structure says {got}, "
          f"data says {want}")


def _verify_symbol(st, c, pos, idx, js) -> int | None:
    """Check the ranks at idx and the selects at the js that c has against
    pos, the sets that contain c, the one oracle for both; the number of
    queries checked, or None after printing the first mismatch."""
    got = st.subset_rank_many(idx, np.full(idx.size, c))
    want = np.searchsorted(pos, idx)  # the sets before idx that contain c
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = bad[0]
        return _mismatch("rank", c, int(idx[k]), int(got[k]), int(want[k]))
    js = js[js <= pos.size]
    if js.size:
        got = st.subset_select_many(js, np.full(js.size, c))
        want = pos[js - 1]
        bad = np.flatnonzero(got != want)
        if bad.size:
            k = bad[0]
            return _mismatch("select", c, int(js[k]), int(got[k]), int(want[k]))
    return idx.size + js.size


def cmd_verify(args) -> int:
    index_arg(args.sample, 1, INT64_MAX, "--sample", ValueError)
    x = _load_data(args.input, args.format)
    if args.container:
        try:
            st = container.load(args.container)
        except ValueError as e:  # corrupt or inconsistent: a failed verification
            print(f"MISMATCH container: {e}")
            return 1
    else:
        st = _build(x, args.structure, args.base, args.block_words)
    label = args.container or f"fresh {st.structure_name}"
    for field in ("sigma", "n", "N", "n0"):
        if getattr(st, field) != getattr(x, field):
            print(f"MISMATCH {field}: structure says {getattr(st, field)}, "
                  f"data says {getattr(x, field)}")
            return 1
    pos, bounds = symbol_positions(x)
    rng = np.random.default_rng(args.seed)
    checked = 0
    if args.exhaustive:
        idx = np.arange(x.n + 1)
        for c in range(x.sigma):  # every j up to n: _verify_symbol keeps those c has
            done = _verify_symbol(st, c, pos[bounds[c]:bounds[c + 1]], idx, idx[1:])
            if done is None:
                return 1
            checked += done
    else:
        per = max(1, args.sample // max(1, x.sigma))
        for c in rng.permutation(x.sigma)[:args.sample].tolist():
            idx = rng.integers(0, x.n + 1, per)
            js = (np.unique(rng.integers(1, x.n + 1, per)) if x.n
                  else np.zeros(0, dtype=np.int64))
            done = _verify_symbol(st, c, pos[bounds[c]:bounds[c + 1]], idx, js)
            if done is None:
                return 1
            checked += done
    print(f"ok: {label} matches {args.input} ({checked} queries)")
    return 0


def cmd_bench(args) -> int:
    index_arg(args.queries, 1, INT64_MAX, "--queries", ValueError)
    index_arg(args.repeats, 1, INT64_MAX, "--repeats", ValueError)
    blob = Path(args.input).read_bytes()
    if container.is_container(blob):
        st = container.loads(blob)
    else:
        st = _build(parse_degenerate(blob, args.format),
                    args.structure, args.base, args.block_words)
    cfg = BenchConfig(query_count=args.queries, repeats=args.repeats,
                      seed=args.seed, query_kind=args.query_kind)
    res = run_bench(st, cfg)
    if args.csv:
        print(CSV_HEADER)
    else:
        for line in res.lines():
            print(line)
    print(res.csv_row())
    return 0


def cmd_lowerbound(args) -> int:
    for line in lower_bound(args.N, args.sigma).lines():
        print(line)
    return 0


def cmd_gen(args) -> int:
    probs = None
    if args.size_probs:
        probs = tuple(float(v) for v in args.size_probs.split(","))
    x = generate(seed=args.seed, n=args.n, sigma=args.sigma,
                 profile=args.profile, size_probs=probs)
    with open(args.output, "wb") as fh:
        fh.write(serialize_degenerate(x, args.format))
    print(f"wrote {args.output}: n={x.n} N={x.N} n0={x.n0} sigma={x.sigma}")
    return 0


def cmd_stats(args) -> int:
    x = _load_data(args.input, args.format)
    for line in stats(x).lines():
        print(line)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="degenrank",
                                description="rank/select structures over "
                                            "degenerate strings")
    sub = p.add_subparsers(dest="command", required=True)
    seed_default = _env_seed()

    b = sub.add_parser("build", help="build a structure and write a container")
    _add_data_args(b)
    b.add_argument("-o", "--output", required=True, help="container path")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="check structure answers against a data file")
    _add_data_args(v)
    v.add_argument("--container", help="verify this container instead of a "
                                       "freshly built structure")
    v.add_argument("--sample", type=int, default=10_000,
                   help="number of sampled queries (default)")
    v.add_argument("--exhaustive", action="store_true",
                   help="check every rank and select query")
    v.add_argument("--seed", type=int, default=seed_default)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("bench", help="time queries on a data file or container")
    _add_data_args(e)
    e.add_argument("--queries", type=int, default=BenchConfig.query_count)
    e.add_argument("--repeats", type=int, default=BenchConfig.repeats)
    e.add_argument("--seed", type=int, default=seed_default)
    e.add_argument("--query-kind", choices=QUERY_KINDS, default="rank")
    e.add_argument("--csv", action="store_true", help="emit only the CSV header "
                                                      "and row")
    e.set_defaults(fn=cmd_bench)

    lb = sub.add_parser("lowerbound", help="space lower bound for N and sigma")
    lb.add_argument("N", type=int)
    lb.add_argument("sigma", type=int)
    lb.set_defaults(fn=cmd_lowerbound)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=int, required=True)
    g.add_argument("--profile", choices=PROFILES, default="uniform")
    g.add_argument("--size-probs",
                   help="comma-separated set-size probabilities for sizes 0..k")
    g.add_argument("--format", choices=FORMATS, default="sets-text")
    g.add_argument("--seed", type=int, default=seed_default)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("stats", help="summarize a data file")
    _add_data_args(s, with_structure=False)
    s.set_defaults(fn=cmd_stats)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)  # the parser reads DEGEN_SEED
        return args.fn(args)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
