"""``lookup-1000``: batched placement lookups served at 1000 devices.

A :class:`MetastoreServer` over 1000 devices with a ~3x capacity spread
answers ``where_are`` RPCs of 256 uniformly random 63-bit addresses from
one closed-loop :class:`ServiceClient` connection.  No address repeats,
so no placement cache can help.  Every answer is checked against a local
``create(...).place_many`` on the same inputs after the timed window,
which keeps only a digest of each answer.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List, Tuple

from repro.exceptions import ReproError
from repro.placement.registry import create
from repro.service import MetastoreServer, ServiceClient
from repro.types import bins_from_capacities

import tracing
from common import RATE_CHUNKS, Outcome, answer_digest, peak_rss_mb
from hostclock import HostClock

DEVICES = 1000
BATCH = 256
STRATEGY = "redundant-share"
COPIES = 3
#: Setups per run; ``setup_s`` is their median.  Each starts after a full
#: garbage collection, so every one begins from the same heap.
SETUP_REPEATS = 21
#: RPCs per second of ``--seconds`` (a 2-core x86-64 host does ~7/s).
RPCS_PER_SECOND = 7
#: Fixed device layout: the seed varies the requests, not the system.
LAYOUT_SEED = 1000


def device_bins():
    rng = random.Random(LAYOUT_SEED)
    return bins_from_capacities(
        [rng.randint(100, 300) for _ in range(DEVICES)], prefix="dev"
    )


def make_batches(seed: int, rpcs: int) -> List[List[int]]:
    """``rpcs`` batches of distinct uniform 63-bit addresses."""
    rng = random.Random(f"lookup-1000/{seed}")
    seen = set()
    batches = []
    for _ in range(rpcs):
        batch = []
        while len(batch) < BATCH:
            address = rng.getrandbits(63)
            if address not in seen:
                seen.add(address)
                batch.append(address)
        batches.append(batch)
    return batches


async def run(seed: int, seconds: int, trace: bool) -> Outcome:
    """Run the workload once (see :func:`tracing.measured`)."""
    return await tracing.measured(measure, seed, seconds, trace)


async def measure(
    seed: int, seconds: int, clock: HostClock, recorder: tracing.Recorder,
    trace: bool,
) -> Outcome:
    outcome = Outcome()
    client_class = (
        tracing.traced_client_class(recorder) if trace else ServiceClient
    )
    bins = device_bins()

    started = time.perf_counter_ns()
    batches = make_batches(seed, max(20, seconds * RPCS_PER_SECOND))
    gen_ms = clock.busy_ns(started, time.perf_counter_ns()) / 1e6

    setups: List[Tuple[int, int]] = []
    server = client = None
    for _ in range(SETUP_REPEATS):
        if client is not None:
            await client.close()
            await server.stop()
        gc.collect()
        started = time.perf_counter_ns()
        server = MetastoreServer(bins, strategy=STRATEGY, copies=COPIES)
        await server.start()
        client = await client_class.connect(*server.address)
        setups.append((started, time.perf_counter_ns()))
    try:
        if trace:
            recorder.port_kinds[server.port] = "metastore"
            server.strategy = tracing.StrategyProxy(server.strategy, recorder)
            before = await tracing.server_totals([server.address], "metastore")

        spans: List[Tuple[int, int]] = []
        digests = []
        recorder.op = "lookup"
        recorder.active = trace
        window_start = time.perf_counter_ns()
        for batch in batches:
            op_start = time.perf_counter_ns()
            try:
                answer = await client.where_are(batch)
            except ReproError:
                answer = None
            op_end = time.perf_counter_ns()
            recorder.add("op", op_start, op_end)
            recorder.counts["ops.lookup"] += 1
            spans.append((op_start, op_end))
            digests.append(answer_digest(answer))
        window_end = time.perf_counter_ns()
        peak_rss = peak_rss_mb()
        recorder.active = False
        counters = tracing.obs_counters()
        if trace:
            after = await tracing.server_totals([server.address], "metastore")
    finally:
        await client.close()
        await server.stop()
    clock.stop()

    oracle = create(STRATEGY, bins, copies=COPIES)
    expected = oracle.place_many(
        [address for batch in batches for address in batch]
    ).tuples()
    for index, digest in enumerate(digests):
        want = expected[index * BATCH:(index + 1) * BATCH]
        if digest != answer_digest([list(devices) for devices in want]):
            outcome.failed += 1
    outcome.attempted = len(batches)
    outcome.check("where_are_equals_local_place_many", outcome.failed == 0)

    outcome.set_end_to_end(
        clock, setups, spans, window_start, RATE_CHUNKS, peak_rss
    )
    outcome.detail = {
        "setup_s": outcome.end_to_end["setup_s"],
        "ops_per_s": outcome.end_to_end["ops_per_s"],
        "lookup_addrs_per_s": outcome.end_to_end["ops_per_s"] * BATCH,
        "peak_rss_mb": outcome.end_to_end["peak_rss_mb"],
        "error_ratio": outcome.failed / outcome.attempted,
    }
    outcome.set_latency("lookup", outcome.latencies)
    outcome.notes.update(
        devices=DEVICES, batch=BATCH, rpcs=len(batches),
        setup_repeats=SETUP_REPEATS,
        window_s=(window_end - window_start) / 1e9, gen_ms=gen_ms,
    )

    if trace:
        window_split = tracing.split(
            recorder, clock.busy_ns(window_start, window_end),
            tracing.service_self_ns,
        )
        outcome.notes["split"] = window_split
        outcome.per_layer = {
            **tracing.placement_metrics(recorder),
            **tracing.service_metrics(
                recorder, window_split,
                metastore_ms=tracing.handler_ms(before, after, 1),
                blockstore_ms=0.0,
            ),
            **tracing.FLEET_ZEROS,
            "blockstore.bytes_per_user_byte": 0.0,
            "workloads.gen_ms": gen_ms,
            **counters,
            **tracing.shares(window_split),
        }
    return outcome
