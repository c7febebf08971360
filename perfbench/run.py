#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lookup-1000 --seed 1 --seconds 10 --trace 0

Workloads: ``lookup-1000``, ``frontend-64``, ``fleet-1000`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.  The line before it is the full record (provenance,
checks and every detail metric).  The exit code is 0 only when every
correctness check passed.

The library is imported from ``src/`` of the checkout this file sits
in, on its NumPy leg: ``REPRO_PURE_PYTHON`` and ``REPRO_PLACE_WORKERS``
are cleared first (and recorded in the provenance).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=spec.WORKLOAD_NAMES
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="repeat index recorded in the provenance",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    import common

    found = {name: os.environ.pop(name, None) for name in common.LEG_SWITCHES}
    sys.path.insert(0, str(ROOT / "src"))

    import fleet1000
    import frontend64
    import lookup1000

    module = {
        "lookup-1000": lookup1000,
        "frontend-64": frontend64,
        "fleet-1000": fleet1000,
    }[args.workload]
    trace = bool(args.trace)
    outcome = asyncio.run(module.run(args.seed, args.seconds, trace))
    prov = common.provenance(
        ROOT,
        workload=args.workload,
        seed=args.seed,
        repeat=args.repeat,
        seconds=args.seconds,
        trace=trace,
        leg_switches=found,
    )
    return common.emit(outcome, prov, trace)


if __name__ == "__main__":
    sys.exit(main())
