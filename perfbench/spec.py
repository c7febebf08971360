"""What the benchmark measures: workloads, metrics, layers and predictions.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root and are loaded from there; this module adds only what
that file cannot hold (what each workload loads and bypasses, what each
metric means, which layer a per-layer metric belongs to and what it
should move, and the predicted dominant layers).  The runners look
units up here, so a metric is emitted under exactly one spelling.

Every workload emits every end-to-end metric (each is defined for all
three) and, in a traced run, every per-layer metric.  A per-layer metric
of a layer a workload bypasses reads 0: that layer did no work.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

_DOC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

RUN_SECONDS: int = _DOC["run_seconds"]
WORKLOAD_NAMES: Tuple[str, ...] = tuple(w["name"] for w in _DOC["workloads"])

#: End-to-end metric name -> ``{"unit", "better", "bound"}``.
END_TO_END: Dict[str, Dict[str, object]] = {
    m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
    for m in _DOC["end_to_end"]
}

#: Per-layer metric name -> ``{"unit", "better"}``.
PER_LAYER: Dict[str, Dict[str, object]] = {
    m["name"]: {k: m[k] for k in ("unit", "better")} for m in _DOC["per_layer"]
}

#: Workload name -> layers it loads and bypasses.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "lookup-1000": {
        "loads": [
            "placement", "service.protocol", "service.metastore",
            "service.rpc", "service.client",
        ],
        "bypasses": [
            "service.blockstore", "scheduling", "chaos.fleet",
            "scalar place()", "any placement cache (no address repeats)",
        ],
    },
    "frontend-64": {
        "loads": [
            "placement", "service.protocol", "service.metastore",
            "service.rpc", "service.blockstore", "service.client",
            "scheduling",
        ],
        "bypasses": ["chaos.fleet"],
    },
    "fleet-1000": {
        "loads": ["placement", "chaos.fleet"],
        "bypasses": [
            "service.protocol", "service.metastore", "service.rpc",
            "service.blockstore", "service.client", "scheduling",
        ],
    },
}

#: End-to-end metric -> definition.  An operation is one ``where_are``
#: RPC, one client op, or one fleet campaign.
DEFINITIONS: Dict[str, str] = {
    "setup_s": (
        "median of several constructions of the system under test up to "
        "the first timed operation (strategy built, servers listening and "
        "connected, frontend preload; FleetSimulator construction), each "
        "started after a full garbage collection"
    ),
    "ops_per_s": (
        "completed operations per second: the median over 16 consecutive "
        "slices of the timed window (over campaigns on fleet-1000)"
    ),
    "op_p50_ms": (
        "median operation latency; on a workload that mixes operation "
        "kinds (frontend-64), the geometric mean of the per-kind medians, "
        "so a kind that gets x times slower moves it by x**(1/kinds) "
        "whatever its share of the operations"
    ),
    "op_tail_ms": (
        "median over up to 16 slices of >= 100 operations of each slice's "
        "tail: the highest percentile with >= 10 samples beyond it (the "
        "maximum when a run has fewer than 11 operations); on a mixed "
        "workload, the geometric mean of that figure per kind"
    ),
    "peak_rss_mb": (
        "peak resident memory of the process running the workload, read "
        "at the end of the timed window, before the answers are checked; "
        "exposes tables that trade memory for speed"
    ),
}

#: The detail metrics printed in every record (not in the result line
#: because most exist on one workload only): name -> unit.
DETAIL_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lookup_addrs_per_s": "1/s",
    "lookup_p50_ms": "ms",
    "lookup_tail_ms": "ms",
    "get_p50_ms": "ms",
    "get_tail_ms": "ms",
    "put_p50_ms": "ms",
    "put_tail_ms": "ms",
    "sim_block_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_ratio": "ratio",
}

#: Which workloads each detail metric applies to.
DETAIL_APPLIES: Dict[str, Tuple[str, ...]] = {
    "setup_s": ("lookup-1000", "frontend-64", "fleet-1000"),
    "ops_per_s": ("lookup-1000", "frontend-64"),
    "lookup_addrs_per_s": ("lookup-1000", "frontend-64"),
    "lookup_p50_ms": ("lookup-1000", "frontend-64"),
    "lookup_tail_ms": ("lookup-1000", "frontend-64"),
    "get_p50_ms": ("frontend-64",),
    "get_tail_ms": ("frontend-64",),
    "put_p50_ms": ("frontend-64",),
    "put_tail_ms": ("frontend-64",),
    "sim_block_epochs_per_s": ("fleet-1000",),
    "peak_rss_mb": ("lookup-1000", "frontend-64", "fleet-1000"),
    "error_ratio": ("lookup-1000", "frontend-64", "fleet-1000"),
}

#: Report layers, in blocking-path order.  Self times partition the
#: timed window: every nanosecond lands in exactly one of them.
LAYERS: Tuple[str, ...] = (
    "placement",
    "service.metastore",
    "service.blockstore",
    "service.protocol",
    "service.rpc",
    "scheduling",
    "service.client",
    "chaos.fleet",
    "residual",
)

#: Layer -> its self-time share metric.
SHARE_METRICS: Dict[str, str] = {
    layer: "share." + layer.split(".")[-1] for layer in LAYERS
}

#: Per-layer metric -> (layer, what it should move).
MOVES: Dict[str, Tuple[str, str]] = {
    "placement.build_ms": ("placement", "setup_s on all three workloads"),
    "placement.place_many_ms": (
        "placement",
        "op_p50_ms/lookup_addrs_per_s on lookup-1000 (~95%) and the "
        "frontend-64 extents (~80%); sim_block_epochs_per_s on fleet-1000 "
        "(~1/3)",
    ),
    "placement.place_many_calls": ("placement", "as placement.place_many_ms"),
    "placement.place_many_addrs": ("placement", "as placement.place_many_ms"),
    "placement.place_many_us_per_addr": (
        "placement", "as placement.place_many_ms",
    ),
    "placement.place_us": (
        "placement", "get_p50_ms/put_p50_ms on frontend-64 only",
    ),
    "placement.place_calls": (
        "placement", "get_p50_ms/put_p50_ms on frontend-64 only",
    ),
    "protocol.encode_ms": (
        "service.protocol",
        "get/put p50 on frontend-64; a small share of lookup_p50_ms on "
        "lookup-1000",
    ),
    "protocol.decode_ms": ("service.protocol", "as protocol.encode_ms"),
    "protocol.frames": ("service.protocol", "as protocol.encode_ms"),
    "protocol.bytes_per_addr": ("service.protocol", "as protocol.encode_ms"),
    "metastore.handler_ms": (
        "service.metastore", "get/put p50 on frontend-64; minor on lookup-1000",
    ),
    "rpc.wire_ms": (
        "service.rpc", "get/put p50 on frontend-64; minor on lookup-1000",
    ),
    "blockstore.handler_ms": (
        "service.blockstore",
        "put_p50_ms (k serial puts) and get_p50_ms on frontend-64",
    ),
    "blockstore.bytes_per_user_byte": (
        "service.blockstore", "as blockstore.handler_ms",
    ),
    "client.rpcs_per_get": ("service.client", "get/put p50 on frontend-64"),
    "client.rpcs_per_put": ("service.client", "get/put p50 on frontend-64"),
    "client.self_ms": ("service.client", "get/put p50 on frontend-64"),
    "sched.order_us": ("scheduling", "get_p50_ms on frontend-64 only"),
    "sched.position0_share": ("scheduling", "get_p50_ms on frontend-64 only"),
    "fleet.place_ms": ("chaos.fleet", "sim_block_epochs_per_s on fleet-1000"),
    "fleet.sim_ms": ("chaos.fleet", "sim_block_epochs_per_s on fleet-1000"),
    "fleet.block_epochs": (
        "chaos.fleet", "sim_block_epochs_per_s on fleet-1000",
    ),
    "fleet.repairs": ("chaos.fleet", "sim_block_epochs_per_s on fleet-1000"),
    "fleet.device_failures": (
        "chaos.fleet", "sim_block_epochs_per_s on fleet-1000",
    ),
    "fleet.lost_blocks": (
        "chaos.fleet", "sim_block_epochs_per_s on fleet-1000",
    ),
    "workloads.gen_ms": (
        "workloads",
        "nothing: input generation stays outside the timed window",
    ),
    "obs.tie_recomputes": (
        "placement", "place_many time when the tie guard trips",
    ),
    "obs.precompute_hits": (
        "placement", "placement.build_ms (precomputed tables)",
    ),
    "obs.precompute_misses": (
        "placement", "placement.build_ms (precomputed tables)",
    ),
}
MOVES.update(
    {
        metric: (layer, "share of the timed window in this layer")
        for layer, metric in SHARE_METRICS.items()
    }
)

#: Predicted dominant layers per (workload, operation kind), checked by
#: the traced-run report.
PREDICTED_DOMINANT: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("lookup-1000", "lookup"): ("placement",),
    ("frontend-64", "get"): (
        "service.protocol", "service.rpc", "service.blockstore",
        "service.client",
    ),
    ("frontend-64", "put"): (
        "service.protocol", "service.rpc", "service.blockstore",
        "service.client",
    ),
    ("frontend-64", "extent"): ("placement",),
    ("fleet-1000", "campaign"): ("placement", "chaos.fleet"),
}


def metric_unit(name: str) -> str:
    """Unit of any metric this benchmark emits."""
    if name in END_TO_END:
        return END_TO_END[name]["unit"]
    if name in PER_LAYER:
        return PER_LAYER[name]["unit"]
    return DETAIL_UNITS[name]
