"""The benchmark's own tests: names, schema, emitted metrics and checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs here at a reduced size (a few devices, a few hundred
operations), once as measured and once with each of its correctness
checks fed a wrong answer, so the checks are shown to fire.
"""

import asyncio
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import fleet1000
import frontend64
import hostclock
import lookup1000
import spec
from repro.service import ServiceClient, WriteReceipt
from repro.types import bins_from_capacities

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MODULES = {
    "lookup-1000": lookup1000,
    "frontend-64": frontend64,
    "fleet-1000": fleet1000,
}
PROVENANCE_KEYS = {
    "commit", "dirty", "python", "numpy", "leg_switches_found",
    "leg_switches_used", "nproc", "platform", "machine", "workload", "seed",
    "repeat", "seconds", "trace",
}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one pass takes about a second."""
    for name, value in {
        "DEVICES": 40, "BATCH": 32, "SETUP_REPEATS": 2,
    }.items():
        monkeypatch.setattr(lookup1000, name, value)
    for name, value in {
        "DEVICES": 8, "WORKING_SET": 64, "SETUP_REPEATS": 1,
        "OPS_PER_SECOND": 100,
    }.items():
        monkeypatch.setattr(frontend64, name, value)
    for name, value in {
        "DEVICES": 40, "BLOCKS": 3000, "YEARS": 0.25, "SETUP_REPEATS": 2,
    }.items():
        monkeypatch.setattr(fleet1000, name, value)


def run(workload, trace=False, seed=3):
    return asyncio.run(MODULES[workload].run(seed, 1, trace))


def test_benchmark_json_follows_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    doc = json.loads(raw)
    assert len(raw) <= 64 * 1024
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert (spec.END_TO_END["setup_s"]["unit"],
            spec.END_TO_END["setup_s"]["better"]) == ("s", "lower")


def test_spec_describes_every_named_workload_and_metric():
    assert set(MODULES) == set(spec.WORKLOAD_NAMES) == set(spec.WORKLOADS)
    assert set(spec.DEFINITIONS) == set(spec.END_TO_END)
    assert set(spec.MOVES) == set(spec.PER_LAYER)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = list(range(1, 21))
    assert common.tail(samples) == (10, 50.0, 10)
    assert common.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)


def test_chunked_statistics():
    clock = hostclock.HostClock()
    spans = [(i * 10, i * 10 + 10) for i in range(8)]
    assert common.chunked_rate(clock, spans, 0, 4, normalise=False) == 1e8
    value, percentile, beyond, size = common.chunked_tail(
        [float(i % 20) for i in range(40)], 2
    )
    assert (value, percentile, beyond, size) == (9.0, 50.0, 10, 20)


def test_mixed_workload_latency_weighs_every_kind_alike():
    clock = hostclock.HostClock()
    spans, kinds = [], []
    for index in range(300):
        kind = ("get", "get", "get", "get", "put", "extent")[index % 6]
        length = {"get": 1, "put": 2, "extent": 16}[kind] * 1_000_000
        start = index * 20_000_000
        spans.append((start, start + length))
        kinds.append(kind)
    outcome = common.Outcome()
    outcome.set_end_to_end(clock, [(0, 1)], spans, 0, 4, 12.5, kinds)
    assert outcome.end_to_end["op_p50_ms"] == pytest.approx(
        (1 * 2 * 16) ** (1 / 3)
    )
    assert outcome.end_to_end["peak_rss_mb"] == 12.5
    slower_puts = [
        (start, start + (end - start) * (2 if kind == "put" else 1))
        for (start, end), kind in zip(spans, kinds)
    ]
    outcome.set_end_to_end(clock, [(0, 1)], slower_puts, 0, 4, 12.5, kinds)
    assert outcome.end_to_end["op_p50_ms"] == pytest.approx(
        (1 * 4 * 16) ** (1 / 3)
    )


def test_host_clock_subtracts_probes_inside_an_interval():
    clock = hostclock.HostClock()
    for start in (100, 300):
        clock.starts.append(start)
        clock.durations.append(50)
        clock._cumulative.append(clock._cumulative[-1] + 50)
    assert clock.busy_ns(0, 1000) == 900
    assert clock.busy_ns(200, 1000) == 750
    assert clock.normalised_ns(200, 1000) == pytest.approx(
        750 * hostclock.REFERENCE_PROBE_NS / 50
    )


@pytest.mark.parametrize("workload", sorted(MODULES))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(small, workload, trace):
    outcome = run(workload, trace)
    assert outcome.correct, outcome.checks
    line = json.loads(common.result_line(outcome, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    names = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(line["metrics"]) == set(names)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec.metric_unit(name)
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    record = common.record(outcome, {"workload": workload})
    for name, workloads in spec.DETAIL_APPLIES.items():
        if workload in workloads:
            assert record["detail"][name]["unit"] == spec.DETAIL_UNITS[name]
    assert record["detail"]["error_ratio"]["value"] == 0.0


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_traced_split_covers_the_window(small, workload):
    outcome = run(workload, trace=True)
    shares = [outcome.per_layer[spec.SHARE_METRICS[l]] for l in spec.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    loaded = spec.WORKLOADS[workload]["loads"]
    for layer in spec.LAYERS:
        if layer not in loaded and layer != "residual":
            assert outcome.per_layer[spec.SHARE_METRICS[layer]] == 0, layer


def test_frontend_exact_counts(small):
    layer = run("frontend-64", trace=True).per_layer
    assert layer["client.rpcs_per_get"] == 2.0
    assert layer["client.rpcs_per_put"] == 1 + frontend64.COPIES
    assert layer["blockstore.bytes_per_user_byte"] == frontend64.COPIES


def test_lookup_check_fires_on_a_wrong_answer(small, monkeypatch):
    # The oracle sees the capacities reversed, so its answers differ.
    real_create = lookup1000.create

    def skewed_create(name, bins, **kwargs):
        capacities = [device.capacity for device in bins][::-1]
        return real_create(
            name, bins_from_capacities(capacities, prefix="dev"), **kwargs
        )

    monkeypatch.setattr(lookup1000, "create", skewed_create)
    outcome = run("lookup-1000")
    assert not outcome.checks["where_are_equals_local_place_many"]
    assert outcome.failed > 0 and not outcome.correct


def test_frontend_checks_fire_on_lost_and_degraded_writes(small, monkeypatch):
    class LosingClient(ServiceClient):
        """Acknowledges window puts without storing them, one copy short."""

        preloaded = 0

        async def put_block(self, address, payload):
            if LosingClient.preloaded < frontend64.WORKING_SET:
                LosingClient.preloaded += 1
                return await super().put_block(address, payload)
            return WriteReceipt(address, [], [0, 1], [2], "")

    monkeypatch.setattr(frontend64, "ServiceClient", LosingClient)
    outcome = run("frontend-64")
    assert not outcome.checks["get_returns_last_acknowledged_payload"]
    assert not outcome.checks["put_fully_replicated"]
    assert outcome.checks["extent_equals_local_place_many"]
    assert not outcome.correct


def test_fleet_checks_fire(small, monkeypatch):
    real_run = fleet1000.FleetSimulator.run
    calls = []

    def drifting_run(self, crash_schedule=None):
        report = real_run(self, crash_schedule)
        calls.append(1)
        if len(calls) > 1:
            report.repairs_completed += 1
        return report

    monkeypatch.setattr(fleet1000.FleetSimulator, "run", drifting_run)
    monkeypatch.setattr(fleet1000, "TV_TOLERANCE", -1.0)
    outcome = run("fleet-1000")
    assert not outcome.checks["same_seed_same_campaign"]
    assert not outcome.checks["mean_field_tv_within_tolerance"]
    assert outcome.failed == outcome.attempted


def test_command_prints_the_record_and_result(tmp_path):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-1000",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--repeat", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final["metrics"]) == set(spec.END_TO_END)
    record = json.loads(lines[-2])["record"]
    assert set(record["provenance"]) == PROVENANCE_KEYS
    assert record["provenance"]["seed"] == 5
    assert record["provenance"]["repeat"] == 2
    assert record["provenance"]["leg_switches_used"] == {
        "REPRO_PURE_PYTHON": None, "REPRO_PLACE_WORKERS": None,
    }
    assert record["end_to_end"]["op_tail_ms"]["beyond"] >= 0
    assert set(record) == {
        "provenance", "checks", "attempted", "failed", "end_to_end",
        "detail", "notes",
    }


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
