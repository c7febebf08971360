"""Batch placement throughput — the perf trajectory's anchor table.

Measures addresses/second for the scalar ``place`` loop vs. the batch
``place_many`` engine for **every strategy in the placement registry**,
on the paper's heterogeneous 12-disk configuration.  The
machine-readable result goes to ``BENCH_placement.json`` (latest run)
and a timestamped record is appended to ``BENCH_history.jsonl`` so the
trajectory across commits is queryable, not just the endpoint.

Headline assertions (NumPy installed, full scale): every strategy with a
shared-kernel batch engine must clear its per-strategy speedup target on
a ≥100k-address batch — 10x for the score-matrix and table engines, 3x
for CRUSH (whose collision retries keep a scalar-ish tail).  At any
scale, a registry entry flagged ``vectorized`` must never lose to the
scalar loop — a speedup below 1x is the regression this table exists to
catch, and it both warns loudly and fails.

``REPRO_BENCH_ADDRESSES`` scales the population down for smoke runs
(CI uses 20000); the 10x headline is only asserted at full scale.
Without NumPy the batch engines fall back to the scalar loop, so only
equivalence (not speedup) is asserted.

A second section covers small batches on larger fleets for the paper's
own strategy: ``redundant-share`` (k=3) and ``lin-mirror`` over
n ∈ {12, 64, 1000} devices × B ∈ {16, 256, 4096} addresses.  Each point
compares the batch engine's per-address rate with the scalar loop's
(timed on the batch's first ≤256 addresses) and must not lose to it.
The gate is a ratio, so it holds on any host.  Single-address batches
are out of the gate: below a few addresses one NumPy call costs more
than a scalar walk at small n.  The rows land in ``BENCH_placement.json``
under ``small_batches``.
"""

import json
import os
import pathlib
import random
import statistics
import sys
import time
import warnings

import pytest

from _tables import emit
from repro._compat import HAVE_NUMPY
from repro.placement.registry import create, registered_strategies
from repro.simulation import heterogeneous_bins
from repro.types import bins_from_capacities

#: ≥100k addresses — the acceptance scale for the 10x headline claims.
ADDRESSES = int(os.environ.get("REPRO_BENCH_ADDRESSES", "") or 100_000)
#: Baselines without a vectorized engine get a smaller population so the
#: table stays cheap to regenerate; their speedup is ~1x by construction.
LOOP_ADDRESSES = min(20_000, ADDRESSES)
#: Replication degree for strategies that honour ``copies``.
COPIES = 3

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_placement.json"
HISTORY = ROOT / "BENCH_history.jsonl"

#: Minimum full-scale speedup per vectorized strategy.  The score-matrix
#: and table-gather engines must clear 10x; CRUSH's masked-reselection
#: engine re-draws a shrinking collision tail per retry, so its floor is
#: 3x.
SPEEDUP_TARGETS = {
    "redundant-share-k3": 10.0,
    "fast-redundant-share-k3": 10.0,
    "trivial-k3": 10.0,
    "balanced-rendezvous-k3": 10.0,
    "weighted-striping-k3": 10.0,
    "crush-k3": 3.0,
}


#: Small-batch grid: strategies (with their copies), fleet sizes and
#: batch sizes; the scalar loop is timed on at most SCALAR_ADDRESSES.
SMALL_BATCH_STRATEGIES = {"redundant-share": COPIES, "lin-mirror": 2}
SMALL_BATCH_DEVICES = (12, 64, 1000)
SMALL_BATCH_SIZES = (16, 256, 4096)
SCALAR_ADDRESSES = 256
#: Timed repeats per point (the median is reported).
SMALL_BATCH_REPEATS = 3


def _row_name(entry):
    if entry.fixed_copies is not None:
        return entry.name
    return f"{entry.name}-k{COPIES}"


def measure(entry):
    """Time the scalar loop and the batch engine over the same addresses."""
    addresses = ADDRESSES if entry.vectorized else LOOP_ADDRESSES
    strategy = create(entry.name, heterogeneous_bins(12), copies=COPIES)
    population = list(range(addresses))
    start = time.perf_counter()
    scalar = [strategy.place(address) for address in population]
    scalar_seconds = time.perf_counter() - start
    strategy.place_many(population[:64])  # warm lazy vector tables
    start = time.perf_counter()
    batch = strategy.place_many(population)
    batch_seconds = time.perf_counter() - start
    assert batch.tuples() == scalar, (
        f"{entry.name}: batch engine diverged from scalar scan"
    )
    return {
        "addresses": addresses,
        "copies": entry.effective_copies(COPIES),
        "vectorized": entry.vectorized,
        "kernel": entry.kernel,
        "scalar_per_sec": round(addresses / scalar_seconds),
        "batch_per_sec": round(addresses / batch_seconds),
        "speedup": round(scalar_seconds / batch_seconds, 2),
    }


def test_batch_throughput_table(benchmark):
    """Regenerates BENCH_placement.json and asserts the speedup gates."""

    def experiment():
        return {
            _row_name(entry): measure(entry)
            for entry in registered_strategies()
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "Batch placement throughput (addresses/sec, 12 heterogeneous disks)",
        ["strategy", "kernel", "addresses", "scalar/s", "batch/s", "speedup"],
        [
            [
                name,
                row["kernel"] or "-",
                row["addresses"],
                row["scalar_per_sec"],
                row["batch_per_sec"],
                f"{row['speedup']:.2f}x",
            ]
            for name, row in results.items()
        ],
    )

    payload = {
        "benchmark": "bench_table_batch_throughput",
        "numpy": HAVE_NUMPY,
        "strategies": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    record = dict(payload, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    for name, row in results.items():
        benchmark.extra_info[f"{name}_speedup"] = row["speedup"]
    benchmark.extra_info["numpy"] = HAVE_NUMPY

    if not HAVE_NUMPY:
        return

    regressions = []
    for name, row in results.items():
        if row["vectorized"] and row["speedup"] < 1.0:
            regressions.append(name)
            message = (
                f"PERF REGRESSION: {name} batch engine is SLOWER than the "
                f"scalar loop ({row['speedup']:.2f}x at "
                f"{row['addresses']} addresses)"
            )
            warnings.warn(message, stacklevel=2)
            print(f"\n*** {message} ***", file=sys.stderr)
    assert not regressions, (
        f"vectorized strategies lost to the scalar loop: {regressions}"
    )

    if ADDRESSES >= 100_000:
        for name, target in SPEEDUP_TARGETS.items():
            row = results[name]
            assert row["speedup"] >= target, (
                f"{name}: vectorized engine only {row['speedup']}x faster "
                f"(target {target}x)"
            )


def fleet_bins(devices):
    """``devices`` bins with seeded uniform capacities in 100..300."""
    rng = random.Random(devices)
    return bins_from_capacities(
        [rng.randint(100, 300) for _ in range(devices)], prefix="dev"
    )


def timed(call):
    """Median seconds of SMALL_BATCH_REPEATS calls, and the last result."""
    timings = []
    for _ in range(SMALL_BATCH_REPEATS):
        start = time.perf_counter()
        result = call()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), result


def measure_small_batches(name, copies, devices):
    """Batch vs scalar per-address rates at every small-batch size."""
    strategy = create(name, fleet_bins(devices), copies=copies)
    rng = random.Random(f"small-batches/{devices}")
    population = [rng.getrandbits(63) for _ in range(max(SMALL_BATCH_SIZES))]
    strategy.place_many(population[:8])  # build the engine's rows
    scalar_runs = {}
    rows = []
    for size in SMALL_BATCH_SIZES:
        batch = population[:size]
        scalar = batch[:SCALAR_ADDRESSES]
        if len(scalar) not in scalar_runs:
            scalar_runs[len(scalar)] = timed(
                lambda: [strategy.place(address) for address in scalar]
            )
        scalar_seconds, expected = scalar_runs[len(scalar)]
        batch_seconds, placed = timed(lambda: strategy.place_many(batch))
        assert placed.tuples()[: len(scalar)] == expected
        batch_rate = size / batch_seconds
        scalar_rate = len(scalar) / scalar_seconds
        rows.append(
            {
                "strategy": name,
                "copies": copies,
                "devices": devices,
                "addresses": size,
                "scalar_addresses": len(scalar),
                "scalar_per_sec": round(scalar_rate),
                "batch_per_sec": round(batch_rate),
                "ratio": round(batch_rate / scalar_rate, 2),
            }
        )
    return rows


def test_small_batch_ratio_gate(benchmark):
    """Batch must beat the scalar loop at every small-batch grid point."""

    def experiment():
        return [
            row
            for name, copies in SMALL_BATCH_STRATEGIES.items()
            for devices in SMALL_BATCH_DEVICES
            for row in measure_small_batches(name, copies, devices)
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "Small batches: batch vs scalar addresses/sec (capacities 100..300)",
        ["strategy", "devices", "addresses", "scalar/s", "batch/s", "ratio"],
        [
            [
                row["strategy"],
                row["devices"],
                row["addresses"],
                row["scalar_per_sec"],
                row["batch_per_sec"],
                f"{row['ratio']:.2f}x",
            ]
            for row in rows
        ],
    )

    payload = (
        json.loads(OUTPUT.read_text())
        if OUTPUT.exists()
        else {"benchmark": "bench_table_batch_throughput", "numpy": HAVE_NUMPY}
    )
    payload["small_batches"] = rows
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for row in rows:
        benchmark.extra_info[
            f"{row['strategy']}_n{row['devices']}_b{row['addresses']}_ratio"
        ] = row["ratio"]

    if not HAVE_NUMPY:
        return
    losing = [
        f"{row['strategy']} n={row['devices']} B={row['addresses']} "
        f"({row['ratio']:.2f}x)"
        for row in rows
        if row["ratio"] < 1.0
    ]
    assert not losing, f"batch engine lost to the scalar loop: {losing}"
