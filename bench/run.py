"""Run one workload of the subjfair benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense_report --seed 1 --seconds 20 --trace 0

Info lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones listed in BENCHMARK.json,
with ``--trace 1`` the per-layer ones. Per-run details (input shape, output
SHA-256, samples, spans) are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subjfair" / "__init__.py").is_file():
        print(f"error: no subjfair sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sfbench.measure import run_benchmark
    from sfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
