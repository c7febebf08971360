"""``fleet-1000``: columnar failure/repair campaigns under Redundant Share.

A :class:`FleetSimulator` with 1000 uniform devices and 100k blocks
placed by the paper's strategy (not the striping default, which takes
~27 s to build at this size).  One failure per device-year, a repair
budget of 1% of the blocks per epoch and daily epochs keep the repair
sweep busy over a 3-year horizon.  The seed drives the failure draws.

Checks: every campaign of the run yields identical lost blocks, repair
and failure counts and copy-count histograms (the engine is seeded and
deterministic), and the steady state stays within the mean-field
total-variation tolerance that ``bench_table_fleet_durability.py`` pins
for its 1000-device x 100k-block stressed run.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

from repro.chaos.fleet import FleetOptions, FleetSimulator
from repro.placement.registry import create
from repro.types import bins_from_capacities

import tracing
from common import Outcome, peak_rss_mb
from hostclock import HostClock

DEVICES = 1000
BLOCKS = 100_000
STRATEGY = "redundant-share"
COPIES = 3
YEARS = 3.0
#: Setups per run; ``setup_s`` is their median.  Each starts after a full
#: garbage collection, so every one begins from the same heap.
SETUP_REPEATS = 21
#: Seconds of ``--seconds`` per campaign (a 2-core x86-64 host needs ~7).
CAMPAIGN_SECONDS = 8
#: Campaigns per run never drop below two: the determinism check
#: compares them.
MIN_CAMPAIGNS = 2
#: TV tolerance of the mean-field fit at 1000 devices x 100k blocks.
TV_TOLERANCE = 0.06


def options(seed: int) -> FleetOptions:
    return FleetOptions(
        devices=DEVICES,
        blocks=BLOCKS,
        copies=COPIES,
        years=YEARS,
        epochs_per_year=365,
        failure_rate=1.0,
        repair_rate=0.01 * BLOCKS,
        seed=seed,
        strategy=STRATEGY,
    )


def fingerprint(report):
    """Everything two campaigns with one seed must agree on."""
    histogram = [0] * (report.copies + 1)
    for count in report.counts_list():
        histogram[count] += 1
    return (
        tuple(report.lost_addresses),
        report.repairs_completed,
        report.device_failures,
        tuple(histogram),
        tuple(sample.distribution for sample in report.samples),
    )


async def run(seed: int, seconds: int, trace: bool) -> Outcome:
    """Run the workload once (see :func:`tracing.measured`)."""
    return await tracing.measured(measure, seed, seconds, trace)


async def measure(
    seed: int, seconds: int, clock: HostClock, recorder: tracing.Recorder,
    trace: bool,
) -> Outcome:
    outcome = Outcome()
    campaigns = max(MIN_CAMPAIGNS, round(seconds / CAMPAIGN_SECONDS))

    started = time.perf_counter_ns()
    opts = options(seed)
    bins = bins_from_capacities(
        [opts.device_capacity] * opts.devices, prefix="dev"
    )
    gen_ms = clock.busy_ns(started, time.perf_counter_ns()) / 1e6

    setups: List[Tuple[int, int]] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter_ns()
        if trace:
            strategy = create(STRATEGY, bins, copies=COPIES)
            recorder.builds_ns.append(
                clock.busy_ns(started, time.perf_counter_ns())
            )
            simulator = FleetSimulator(
                opts, bins=bins,
                strategy=tracing.StrategyProxy(strategy, recorder),
            )
        else:
            simulator = FleetSimulator(opts)
        setups.append((started, time.perf_counter_ns()))

    spans: List[Tuple[int, int]] = []
    reports = []
    recorder.op = "campaign"
    recorder.active = trace
    window_start = time.perf_counter_ns()
    for _ in range(campaigns):
        run_start = time.perf_counter_ns()
        reports.append(simulator.run())
        run_end = time.perf_counter_ns()
        recorder.add("op", run_start, run_end)
        recorder.counts["ops.campaign"] += 1
        spans.append((run_start, run_end))
    window_end = time.perf_counter_ns()
    peak_rss = peak_rss_mb()
    recorder.active = False
    counters = tracing.obs_counters()
    clock.stop()

    first = fingerprint(reports[0])
    deterministic = [fingerprint(report) == first for report in reports]
    fits = [
        report.mean_field_deviation <= TV_TOLERANCE for report in reports
    ]
    outcome.attempted = campaigns
    outcome.failed = sum(
        1 for same, fit in zip(deterministic, fits) if not (same and fit)
    )
    outcome.check("same_seed_same_campaign", all(deterministic))
    outcome.check("mean_field_tv_within_tolerance", all(fits))

    outcome.set_end_to_end(
        clock, setups, spans, window_start, campaigns, peak_rss
    )
    report = reports[0]
    block_epochs = report.blocks * report.epochs
    outcome.detail = {
        "setup_s": outcome.end_to_end["setup_s"],
        "sim_block_epochs_per_s": (
            block_epochs * campaigns / (sum(outcome.latencies) / 1e3)
        ),
        "peak_rss_mb": outcome.end_to_end["peak_rss_mb"],
        "error_ratio": outcome.failed / outcome.attempted,
    }
    outcome.notes.update(
        devices=DEVICES, blocks=BLOCKS, epochs=report.epochs, years=YEARS,
        campaigns=campaigns, setup_repeats=SETUP_REPEATS,
        window_s=(window_end - window_start) / 1e9,
        lost_blocks=report.lost_blocks, repairs=report.repairs_completed,
        device_failures=report.device_failures,
        tv_distance=report.mean_field_deviation, tv_tolerance=TV_TOLERANCE,
        gen_ms=gen_ms,
    )

    if trace:
        window_split = tracing.split(
            recorder, clock.busy_ns(window_start, window_end),
            tracing.fleet_self_ns,
        )
        outcome.notes["split"] = window_split
        place_ns = window_split["self_ns"]["all"]["placement"]
        sim_ns = window_split["self_ns"]["all"]["chaos.fleet"]
        outcome.per_layer = {
            **tracing.placement_metrics(recorder),
            **tracing.SERVICE_ZEROS,
            "fleet.place_ms": place_ns / campaigns / 1e6,
            "fleet.sim_ms": sim_ns / campaigns / 1e6,
            "fleet.block_epochs": block_epochs,
            "fleet.repairs": report.repairs_completed,
            "fleet.device_failures": report.device_failures,
            "fleet.lost_blocks": report.lost_blocks,
            "workloads.gen_ms": gen_ms,
            **counters,
            **tracing.shares(window_split),
        }
    return outcome
