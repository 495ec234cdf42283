"""Run one degenrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dna-r3-wavelet --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. The package is imported from
the checkout's ``src/`` directory, never from an installed copy; without
it the run exits with code 2 and prints no result. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Span files of a
traced run go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "degenrank" / "__init__.py").is_file():
        print(f"error: no degenrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process, one thread: numpy's optional thread pools stay at one.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, lines, _ = harness.run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), ROOT / ".perfbench_out")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
