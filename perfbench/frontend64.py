"""``frontend-64``: a read/write storage frontend over 64 blockstores.

A :class:`ServiceCluster` with 64 heterogeneous blockstores and one
closed-loop :class:`ServiceClient` (``read_policy="power-of-two"``) on a
preloaded working set of 4 KiB blocks.  The op mix is 60% ``get_block``
and 25% ``put_block`` overwrites with fresh bytes, both Zipf(1.1) over
the working set, plus 15% extent lookups (``where_are`` of 16
consecutive addresses starting at a Zipf-chosen block).

Checks: every get returns the last acknowledged payload (a dict model
kept by the benchmark; no faults are injected), every put is fully
replicated, and every extent answer equals a local ``place_many`` (the
timed window keeps a digest of each extent answer and the local
placements run after it).
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import List, Tuple

from repro.exceptions import ReproError
from repro.placement.registry import create
from repro.service import ServiceClient, ServiceCluster
from repro.types import bins_from_capacities

import tracing
from common import RATE_CHUNKS, Outcome, answer_digest, peak_rss_mb
from hostclock import HostClock

DEVICES = 64
STRATEGY = "redundant-share"
COPIES = 3
READ_POLICY = "power-of-two"
WORKING_SET = 2048
BLOCK_BYTES = 4096
EXTENT = 16
ZIPF_ALPHA = 1.1
GET_SHARE, PUT_SHARE = 0.60, 0.25
#: Setups per run; ``setup_s`` is their median.  Each starts after a full
#: garbage collection, so every one begins from the same heap.
SETUP_REPEATS = 5
#: Client ops per second of ``--seconds`` (a 2-core x86-64 host does ~650/s).
OPS_PER_SECOND = 650
LAYOUT_SEED = 64

Op = Tuple[str, int, bytes]


def device_bins():
    rng = random.Random(LAYOUT_SEED)
    return bins_from_capacities(
        [rng.randint(100, 300) for _ in range(DEVICES)], prefix="store"
    )


def make_inputs(seed: int, count: int):
    """Working set, preload payloads and ``count`` ops, all from ``seed``."""
    rng = random.Random(f"frontend-64/{seed}")
    working_set = rng.sample(range(2**63 - EXTENT), WORKING_SET)
    preload = [(address, rng.randbytes(BLOCK_BYTES)) for address in working_set]
    cumulative = []
    total = 0.0
    for rank in range(1, WORKING_SET + 1):
        total += rank ** -ZIPF_ALPHA
        cumulative.append(total)

    def zipf_address() -> int:
        index = bisect.bisect_left(cumulative, rng.random() * total)
        return working_set[min(index, WORKING_SET - 1)]

    ops: List[Op] = []
    for _ in range(count):
        draw = rng.random()
        address = zipf_address()
        if draw < GET_SHARE:
            ops.append(("get", address, b""))
        elif draw < GET_SHARE + PUT_SHARE:
            ops.append(("put", address, rng.randbytes(BLOCK_BYTES)))
        else:
            ops.append(("extent", address, b""))
    return preload, ops


async def start(bins, client_class, seed, preload, recorder, trace):
    """Start the cluster, connect, preload; returns (cluster, client)."""
    cluster = ServiceCluster(bins, strategy=STRATEGY, copies=COPIES)
    await cluster.start()
    if trace:
        cluster.metastore.strategy = tracing.StrategyProxy(
            cluster.metastore.strategy, recorder
        )
    client = await client_class.connect(
        *cluster.metastore_address, read_policy=READ_POLICY, read_seed=seed
    )
    for address, payload in preload:
        receipt = await client.put_block(address, payload)
        if not receipt.fully_replicated:
            raise RuntimeError(f"preload of block {address} was degraded")
    return cluster, client


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
    preload, ops = make_inputs(seed, max(200, seconds * OPS_PER_SECOND))
    gen_ms = clock.busy_ns(started, time.perf_counter_ns()) / 1e6

    setups: List[Tuple[int, int]] = []
    cluster = client = None
    for _ in range(SETUP_REPEATS):
        if client is not None:
            await client.close()
            await cluster.stop()
        gc.collect()
        started = time.perf_counter_ns()
        cluster, client = await start(
            bins, client_class, seed, preload, recorder, trace
        )
        setups.append((started, time.perf_counter_ns()))
    model = dict(preload)
    blockstores = [server.address for server in cluster.blockstores.values()]
    try:
        if trace:
            recorder.port_kinds[cluster.metastore.port] = "metastore"
            for _, port in blockstores:
                recorder.port_kinds[port] = "blockstore"
            meta_before = await tracing.server_totals(
                [cluster.metastore_address], "metastore"
            )
            block_before = await tracing.server_totals(blockstores, "blockstore")

        spans: List[Tuple[int, int]] = []
        extents = []
        failed_gets = failed_puts = 0
        user_bytes = 0
        recorder.active = trace
        window_start = time.perf_counter_ns()
        for kind, address, payload in ops:
            recorder.op = kind
            recorder.counts[f"ops.{kind}"] += 1
            op_start = time.perf_counter_ns()
            try:
                if kind == "get":
                    result = await client.get_block(address)
                elif kind == "put":
                    result = await client.put_block(address, payload)
                else:
                    result = await client.where_are(
                        range(address, address + EXTENT)
                    )
            except ReproError:
                result = None
            op_end = time.perf_counter_ns()
            recorder.add("op", op_start, op_end)
            spans.append((op_start, op_end))
            if kind == "get":
                if result is None or result.payload != model[address]:
                    failed_gets += 1
            elif kind == "put":
                if result is not None:
                    model[address] = payload
                    user_bytes += len(payload)
                if result is None or not result.fully_replicated:
                    failed_puts += 1
            else:
                extents.append((address, answer_digest(result)))
        window_end = time.perf_counter_ns()
        peak_rss = peak_rss_mb()
        recorder.active = False
        counters = tracing.obs_counters()
        if trace:
            meta_after = await tracing.server_totals(
                [cluster.metastore_address], "metastore"
            )
            block_after = await tracing.server_totals(blockstores, "blockstore")
    finally:
        await client.close()
        await cluster.stop()
    clock.stop()

    oracle = create(STRATEGY, bins, copies=COPIES)
    expected = oracle.place_many(
        [first + offset for first, _ in extents for offset in range(EXTENT)]
    ).tuples()
    failed_extents = 0
    for index, (_, digest) in enumerate(extents):
        want = expected[index * EXTENT:(index + 1) * EXTENT]
        if digest != answer_digest([list(devices) for devices in want]):
            failed_extents += 1
    outcome.attempted = len(ops)
    outcome.failed = failed_gets + failed_puts + failed_extents
    outcome.check("get_returns_last_acknowledged_payload", failed_gets == 0)
    outcome.check("put_fully_replicated", failed_puts == 0)
    outcome.check("extent_equals_local_place_many", failed_extents == 0)

    outcome.set_end_to_end(
        clock, setups, spans, window_start, RATE_CHUNKS, peak_rss,
        kinds=[kind for kind, _, _ in ops],
    )
    by_kind = {"get": [], "put": [], "extent": []}
    for (kind, _, _), latency in zip(ops, outcome.latencies):
        by_kind[kind].append(latency)
    extent_s = sum(by_kind["extent"]) / 1e3
    outcome.detail = {
        "setup_s": outcome.end_to_end["setup_s"],
        "ops_per_s": outcome.end_to_end["ops_per_s"],
        "lookup_addrs_per_s": (
            len(by_kind["extent"]) * EXTENT / extent_s if extent_s else 0.0
        ),
        "peak_rss_mb": outcome.end_to_end["peak_rss_mb"],
        "error_ratio": outcome.failed / outcome.attempted,
    }
    for kind, prefix in (("get", "get"), ("put", "put"), ("extent", "lookup")):
        outcome.set_latency(prefix, by_kind[kind])
    outcome.notes.update(
        devices=DEVICES, working_set=WORKING_SET, block_bytes=BLOCK_BYTES,
        ops=len(ops),
        op_counts={kind: len(values) for kind, values in by_kind.items()},
        setup_repeats=SETUP_REPEATS,
        window_s=(window_end - window_start) / 1e9, gen_ms=gen_ms,
    )

    if trace:
        window_split = tracing.split(
            recorder, clock.busy_ns(window_start, window_end),
            tracing.service_self_ns,
        )
        outcome.notes["split"] = window_split
        stored = (
            block_after[2]["blockstore.bytes.put"]
            - block_before[2]["blockstore.bytes.put"]
        )
        outcome.per_layer = {
            **tracing.placement_metrics(recorder),
            **tracing.service_metrics(
                recorder, window_split,
                metastore_ms=tracing.handler_ms(meta_before, meta_after, 1),
                blockstore_ms=tracing.handler_ms(
                    block_before, block_after, len(blockstores)
                ),
            ),
            **tracing.FLEET_ZEROS,
            "blockstore.bytes_per_user_byte": (
                stored / user_bytes if user_bytes else 0.0
            ),
            "workloads.gen_ms": gen_ms,
            **counters,
            **tracing.shares(window_split),
        }
    return outcome
