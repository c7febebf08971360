"""Timing proxies and the per-layer split of a traced run.

A traced run records spans around calls into each layer's public
functions, from this file only; nothing in the library changes:

* :class:`StrategyProxy` wraps a placement strategy (``place`` and
  ``place_many``).  It replaces ``MetastoreServer.strategy`` and is
  passed to ``FleetSimulator(strategy=...)``.
* :class:`SchedulerProxy` wraps ``ServiceClient.scheduler`` (``order``).
* :func:`instrument` swaps timing wrappers in for the protocol codec
  (``encode_frame``/``decode_body``, both sides of every hop), for
  ``RpcConnection.call`` (client-observed RPC time) and for the
  registry ``create`` the metastore builds its strategy with.  It also
  enables the library's own ``repro.obs`` memory sink, whose
  ``<kind>.request`` events carry each server's handler time; they are
  attributed to the client operation in flight.
* Each server's ``metrics`` RPC (``<kind>.request_ms`` count and sum,
  read before and after the timed window) gives the handler time per
  request.

Everything runs in one process with one closed-loop client, so the
spans nest without overlap and self times partition the timed window.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro import obs
from repro.service import metastore as metastore_module
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.rpc import RpcConnection

import spec
from common import median
from hostclock import HostClock

NS_PER_MS = 1_000_000


class Recorder:
    """Spans and counts of one traced run.

    Spans are busy nanoseconds (wall time minus the host-speed probes
    that ran inside, see :mod:`hostclock`), kept only while
    :attr:`active` is set (the timed window of a traced run).  Each is
    stored under its name and added to the totals of the client
    operation kind in flight (:attr:`op`), which is how one frontend run
    splits into gets, puts and extent lookups.  Placement builds are
    kept regardless: they are setup work by definition.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.active = False
        self.spans: Dict[str, List[int]] = defaultdict(list)
        self.by_op: Dict[str, Counter] = defaultdict(Counter)
        self.counts: Counter = Counter()
        self.builds_ns: List[int] = []
        #: Server port -> "metastore" | "blockstore".
        self.port_kinds: Dict[int, str] = {}
        self.op = "setup"

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        if self.active:
            duration = self.clock.busy_ns(start_ns, end_ns)
            self.spans[name].append(duration)
            self.by_op[self.op][name] += duration

    def totals(self) -> Counter:
        """Span totals summed over every operation kind."""
        merged: Counter = Counter()
        for totals in self.by_op.values():
            merged.update(totals)
        return merged


class StrategyProxy:
    """A placement strategy whose lookups are timed."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self._recorder = recorder

    def place(self, address):
        started = time.perf_counter_ns()
        placement = self.inner.place(address)
        self._recorder.add("placement.place", started, time.perf_counter_ns())
        return placement

    def place_many(self, addresses, *args, **kwargs):
        started = time.perf_counter_ns()
        batch = self.inner.place_many(addresses, *args, **kwargs)
        ended = time.perf_counter_ns()
        if self._recorder.active:
            self._recorder.add("placement.place_many", started, ended)
            self._recorder.counts["placement.place_many_addrs"] += len(addresses)
        return batch

    def __getattr__(self, name):
        return getattr(self.inner, name)


class SchedulerProxy:
    """A read scheduler whose ``order`` decisions are timed and counted."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self._recorder = recorder

    def order(self, address, placement):
        started = time.perf_counter_ns()
        order = self.inner.order(address, placement)
        self._recorder.add("sched.order", started, time.perf_counter_ns())
        if self._recorder.active and order and order[0] == 0:
            self._recorder.counts["sched.position0"] += 1
        return order

    def __getattr__(self, name):
        return getattr(self.inner, name)


def traced_client_class(recorder: Recorder):
    """A :class:`ServiceClient` whose ``scheduler`` is a timing proxy."""

    class TracedClient(ServiceClient):
        @property
        def scheduler(self):
            inner = ServiceClient.scheduler.fget(self)
            proxy = self.__dict__.get("_timed_scheduler")
            if proxy is None or proxy.inner is not inner:
                proxy = SchedulerProxy(inner, recorder)
                self.__dict__["_timed_scheduler"] = proxy
            return proxy

    return TracedClient


class _HandlerSink(obs.MemorySink):
    """The obs memory sink, also filing server handler times as spans."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def emit(self, kind: str, **fields) -> None:
        super().emit(kind, **fields)
        if kind in ("metastore.request", "blockstore.request"):
            ended = time.perf_counter_ns()
            self._recorder.add(
                f"handler.{kind.split('.')[0]}",
                ended - round(fields["ms"] * NS_PER_MS),
                ended,
            )


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Install the codec, RPC and build wrappers plus the obs memory sink.

    Everything is restored on exit, so the library is left untouched.
    """
    encode_frame = protocol.encode_frame
    decode_body = protocol.decode_body
    call = RpcConnection.call
    create = metastore_module.create

    def timed_encode_frame(payload, **kwargs):
        started = time.perf_counter_ns()
        frame = encode_frame(payload, **kwargs)
        recorder.add("protocol.encode", started, time.perf_counter_ns())
        if recorder.active and isinstance(payload, dict):
            result = payload.get("result")
            if isinstance(result, dict) and "placements" in result:
                recorder.counts["where_are.response_bytes"] += len(frame)
                recorder.counts["where_are.addresses"] += len(
                    result["placements"]
                )
        return frame

    def timed_decode_body(body):
        started = time.perf_counter_ns()
        payload = decode_body(body)
        recorder.add("protocol.decode", started, time.perf_counter_ns())
        return payload

    async def timed_call(self, op, **params):
        if not recorder.active:
            return await call(self, op, **params)
        kind = recorder.port_kinds.get(self.port, "other")
        started = time.perf_counter_ns()
        try:
            return await call(self, op, **params)
        finally:
            recorder.add(f"rpc.{kind}", started, time.perf_counter_ns())
            recorder.counts[f"rpcs.{recorder.op}"] += 1

    def timed_create(*args, **kwargs):
        started = time.perf_counter_ns()
        strategy = create(*args, **kwargs)
        recorder.builds_ns.append(
            recorder.clock.busy_ns(started, time.perf_counter_ns())
        )
        return strategy

    protocol.encode_frame = timed_encode_frame
    protocol.decode_body = timed_decode_body
    RpcConnection.call = timed_call
    metastore_module.create = timed_create
    obs.reset_metrics()
    previous_sink = obs.set_sink(_HandlerSink(recorder))
    try:
        yield recorder
    finally:
        obs.set_sink(previous_sink)
        protocol.encode_frame = encode_frame
        protocol.decode_body = decode_body
        RpcConnection.call = call
        metastore_module.create = create


async def measured(measure, seed: int, seconds: int, trace: bool):
    """Run a workload's ``measure`` under a :class:`HostClock`.

    A traced run also installs the timing wrappers for its duration.
    """
    with HostClock() as clock:
        recorder = Recorder(clock)
        with instrument(recorder) if trace else contextlib.nullcontext():
            return await measure(seed, seconds, clock, recorder, trace)


async def server_totals(
    endpoints: Iterable[Tuple[str, int]], kind: str
) -> Tuple[int, float, Counter]:
    """Sum the servers' own ``metrics`` RPC snapshots.

    Returns the ``<kind>.request_ms`` histogram's (count, sum in ms) and
    the service counters, each summed over ``endpoints``.
    """
    count, total, counters = 0, 0.0, Counter()
    for host, port in endpoints:
        connection = await RpcConnection.open(host, port)
        try:
            snapshot = await connection.call("metrics")
        finally:
            await connection.close()
        service = snapshot["service"]
        histogram = service["histograms"].get(f"{kind}.request_ms", {})
        count += int(histogram.get("count", 0))
        total += float(histogram.get("sum", 0.0))
        counters.update(service["counters"])
    return count, total, counters


def handler_ms(
    before: Tuple[int, float, Counter], after: Tuple[int, float, Counter],
    servers: int,
) -> float:
    """Mean handler ms per request between two :func:`server_totals`.

    The ``metrics`` call that took the first reading is itself recorded
    after its snapshot, so one request per server is subtracted; its
    handler time (microseconds) stays in the sum.
    """
    requests = after[0] - before[0] - servers
    return (after[1] - before[1]) / requests if requests > 0 else 0.0


def obs_counters() -> Dict[str, int]:
    """The library's own exact counters recorded by the memory sink."""
    counters = obs.metrics().counters()
    return {
        "obs.tie_recomputes": sum(
            value for name, value in counters.items()
            if name.endswith(".tie_recomputes")
        ),
        "obs.precompute_hits": counters.get("placement.precompute.hits", 0),
        "obs.precompute_misses": counters.get(
            "placement.precompute.misses", 0
        ),
    }


def placement_metrics(recorder: Recorder) -> Dict[str, float]:
    """The placement layer's metrics from the strategy proxy's spans."""
    many = recorder.spans.get("placement.place_many", [])
    single = recorder.spans.get("placement.place", [])
    addrs = recorder.counts["placement.place_many_addrs"]
    return {
        "placement.build_ms": median(recorder.builds_ns) / NS_PER_MS,
        "placement.place_many_ms": median(many) / NS_PER_MS,
        "placement.place_many_calls": len(many),
        "placement.place_many_addrs": addrs,
        "placement.place_many_us_per_addr": (
            sum(many) / addrs / 1000.0 if addrs else 0.0
        ),
        "placement.place_us": median(single) / 1000.0,
        "placement.place_calls": len(single),
    }


def service_self_ns(totals: Mapping[str, int]) -> Dict[str, int]:
    """Self time per layer of client operations with these span totals.

    The blocking path of one client operation is::

        op = client self + scheduling + RPC calls
        RPC calls = protocol (both sides) + server handlers + rpc self
        metastore handler = placement + metastore self
    """
    placement = totals["placement.place"] + totals["placement.place_many"]
    codec = totals["protocol.encode"] + totals["protocol.decode"]
    handlers = totals["handler.metastore"] + totals["handler.blockstore"]
    calls = totals["rpc.metastore"] + totals["rpc.blockstore"]
    return {
        "placement": placement,
        "service.metastore": totals["handler.metastore"] - placement,
        "service.blockstore": totals["handler.blockstore"],
        "service.protocol": codec,
        "service.rpc": calls - handlers - codec,
        "scheduling": totals["sched.order"],
        "service.client": totals["op"] - calls - totals["sched.order"],
    }


def fleet_self_ns(totals: Mapping[str, int]) -> Dict[str, int]:
    """Self time per layer of fleet campaigns with these span totals."""
    placement = totals["placement.place_many"]
    return {"placement": placement, "chaos.fleet": totals["op"] - placement}


def split(recorder: Recorder, window_ns: int, self_ns_of) -> Dict[str, object]:
    """Self nanoseconds per layer, per operation kind and for the window.

    Returns ``{"window_ns", "ops": {kind: count}, "self_ns": {kind:
    {layer: ns}}}``; kind ``"all"`` covers the whole window and carries
    the residual (window time outside any operation).
    """
    ops = {kind: recorder.counts[f"ops.{kind}"] for kind in recorder.by_op}
    self_ns = {kind: self_ns_of(totals) for kind, totals in recorder.by_op.items()}
    merged = recorder.totals()
    self_ns["all"] = dict(self_ns_of(merged), residual=window_ns - merged["op"])
    ops["all"] = sum(ops.values())
    return {"window_ns": window_ns, "ops": ops, "self_ns": self_ns}


def shares(window_split: Mapping[str, object]) -> Dict[str, float]:
    """Self time of each report layer as a share of the timed window."""
    window = window_split["self_ns"]["all"]
    return {
        spec.SHARE_METRICS[layer]: window.get(layer, 0) / window_split["window_ns"]
        for layer in spec.LAYERS
    }


def service_metrics(
    recorder: Recorder,
    window_split: Mapping[str, object],
    metastore_ms: float,
    blockstore_ms: float,
) -> Dict[str, float]:
    """Protocol, metastore, rpc, client and scheduling metrics."""
    totals = recorder.totals()
    operations = window_split["ops"]["all"]
    self_ns = window_split["self_ns"]["all"]
    rpcs = len(recorder.spans.get("rpc.metastore", [])) + len(
        recorder.spans.get("rpc.blockstore", [])
    )
    wire_ns = (
        totals["rpc.metastore"] + totals["rpc.blockstore"]
        - totals["handler.metastore"] - totals["handler.blockstore"]
    )
    sched = recorder.spans.get("sched.order", [])
    gets = recorder.counts["ops.get"]
    puts = recorder.counts["ops.put"]
    response_bytes = recorder.counts["where_are.response_bytes"]
    response_addrs = recorder.counts["where_are.addresses"]
    return {
        "protocol.encode_ms": totals["protocol.encode"] / operations / NS_PER_MS,
        "protocol.decode_ms": totals["protocol.decode"] / operations / NS_PER_MS,
        "protocol.frames": len(recorder.spans.get("protocol.encode", [])),
        "protocol.bytes_per_addr": (
            response_bytes / response_addrs if response_addrs else 0.0
        ),
        "metastore.handler_ms": metastore_ms,
        "rpc.wire_ms": wire_ns / rpcs / NS_PER_MS if rpcs else 0.0,
        "blockstore.handler_ms": blockstore_ms,
        "client.rpcs_per_get": recorder.counts["rpcs.get"] / gets if gets else 0.0,
        "client.rpcs_per_put": recorder.counts["rpcs.put"] / puts if puts else 0.0,
        "client.self_ms": self_ns["service.client"] / operations / NS_PER_MS,
        "sched.order_us": median(sched) / 1000.0,
        "sched.position0_share": (
            recorder.counts["sched.position0"] / len(sched) if sched else 0.0
        ),
    }


#: Per-layer metrics of the fleet engine, zero on the service workloads.
FLEET_ZEROS = {
    name: 0 for name in spec.PER_LAYER if name.startswith("fleet.")
}

#: Per-layer metrics of the service stack, zero on the fleet workload.
SERVICE_ZEROS = {
    name: 0
    for name in spec.PER_LAYER
    if name.split(".")[0]
    in ("protocol", "metastore", "rpc", "blockstore", "client", "sched")
}
