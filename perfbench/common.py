"""Shared pieces of the workloads: statistics, provenance and the result.

Each workload returns a :class:`Outcome`; :func:`result_line` turns it
into the one JSON object the benchmark prints last.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import spec
from hostclock import REFERENCE_PROBE_NS, HostClock

#: Environment switches that select a non-default placement leg.  The
#: benchmark measures the NumPy leg in one process, so it clears them
#: before the library is imported and records what it found.
LEG_SWITCHES = ("REPRO_PURE_PYTHON", "REPRO_PLACE_WORKERS")

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Slices of the timed window whose median rate is ``ops_per_s``.
RATE_CHUNKS = 16

#: Fewest operations in one slice whose tail ``op_tail_ms`` takes.
TAIL_SLICE = 100


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the reported tail.

    The tail is the highest percentile with at least :data:`TAIL_BEYOND`
    samples beyond it.  With fewer than ``TAIL_BEYOND + 1`` samples no
    such percentile exists and the maximum is reported instead.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, TAIL_BEYOND


def median(samples: Sequence[float]) -> float:
    """Median, 0.0 for no samples (a layer that did no work)."""
    return statistics.median(samples) if samples else 0.0


def chunked_rate(
    clock: HostClock,
    spans: Sequence[Tuple[int, int]],
    start_ns: int,
    chunks: int,
    normalise: bool = True,
) -> float:
    """Median operations per second over ``chunks`` consecutive slices.

    ``spans`` are the (start, end) times of the operations in order and
    the first slice starts at ``start_ns``.  A median over slices of the
    window is steadier than one whole-window rate.
    """
    count = len(spans)
    chunks = max(1, min(chunks, count))
    measure = clock.normalised_ns if normalise else clock.busy_ns
    rates = []
    previous_end, previous_index = start_ns, 0
    for chunk in range(1, chunks + 1):
        index = count * chunk // chunks
        end = spans[index - 1][1]
        rates.append((index - previous_index) * 1e9 / measure(previous_end, end))
        previous_end, previous_index = end, index
    return statistics.median(rates)


def chunked_tail(
    samples: Sequence[float], chunks: int
) -> Tuple[float, float, int, int]:
    """Median over ``chunks`` consecutive slices of each slice's tail.

    Returns ``(value, percentile, beyond, slice size)`` with the
    percentile and sample counts of a median-sized slice.  The extreme
    tail of a whole run is set by a handful of host hiccups; the tail a
    typical slice sees is the steady quantity.
    """
    count = len(samples)
    chunks = max(1, min(chunks, count))
    tails = []
    for chunk in range(chunks):
        piece = samples[count * chunk // chunks:count * (chunk + 1) // chunks]
        tails.append(tail(piece)[0])
    size = count // chunks
    _, percentile, beyond = tail([0.0] * size)
    return statistics.median(tails), percentile, beyond, size


def latencies_ms(
    clock: HostClock, spans: Sequence[Tuple[int, int]], normalise: bool = True
) -> List[float]:
    """Per-operation latency in ms, normalised to the reference host."""
    measure = clock.normalised_ns if normalise else clock.busy_ns
    return [measure(start, end) / 1e6 for start, end in spans]


def answer_digest(answer) -> Optional[bytes]:
    """SHA-256 of a JSON-shaped answer (``None`` stays ``None``).

    The timed window keeps digests instead of answers, so the answers of
    a whole run do not count in its peak memory.  Two answers share a
    digest exactly when their JSON encodings are equal.
    """
    if answer is None:
        return None
    return hashlib.sha256(json.dumps(answer).encode()).digest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Attributes:
        attempted: Operations attempted in the timed window.
        failed: Operations that raised or returned a wrong answer.
        checks: Named correctness checks -> passed.
        end_to_end: Every :data:`spec.END_TO_END` metric value.
        detail: Per-operation-kind detail metrics that apply to this workload.
        tails: Detail/end-to-end tail metric -> (percentile, samples
            beyond, sample count).
        per_layer: Every :data:`spec.PER_LAYER` metric (traced runs).
        notes: Free-form facts worth keeping in the record.
        latencies: Normalised per-operation latencies (ms), in order.
    """

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, float] = field(default_factory=dict)
    tails: Dict[str, Tuple[float, int, int]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)

    def check(self, name: str, passed: bool) -> None:
        """Record one correctness check (a repeat ANDs into the first)."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def set_end_to_end(
        self,
        clock: HostClock,
        setups: Sequence[Tuple[int, int]],
        spans: Sequence[Tuple[int, int]],
        window_start: int,
        chunks: int,
        peak_rss: float,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        """Every end-to-end metric, normalised; raw values go to notes.

        ``peak_rss`` is :func:`peak_rss_mb` read at the end of the timed
        window, so the answer checks that follow do not count.  With
        ``kinds`` (the operation kind of each span) ``op_p50_ms`` and
        ``op_tail_ms`` are geometric means over the kinds, each kind
        weighing the same whatever its share of the operations.
        """
        groups = {}
        for index, kind in enumerate(kinds or [""] * len(spans)):
            groups.setdefault(kind, []).append(index)
        for normalise in (True, False):
            setup = [
                (clock.normalised_ns if normalise else clock.busy_ns)(*span)
                for span in setups
            ]
            samples = latencies_ms(clock, spans, normalise)
            p50s, tails, shapes = [], [], []
            for indices in groups.values():
                group = [samples[index] for index in indices]
                value, percentile, beyond, size = chunked_tail(
                    group, min(chunks, len(group) // TAIL_SLICE)
                )
                p50s.append(median(group))
                tails.append(value)
                shapes.append((percentile, beyond, size))
            values = {
                "setup_s": median(setup) / 1e9,
                "ops_per_s": chunked_rate(
                    clock, spans, window_start, chunks, normalise
                ),
                "op_p50_ms": statistics.geometric_mean(p50s),
                "op_tail_ms": statistics.geometric_mean(tails),
                "peak_rss_mb": peak_rss,
            }
            if normalise:
                self.end_to_end = values
                self.latencies = samples
                # The smallest slice, so the lowest percentile, of any kind.
                self.tails["op_tail_ms"] = min(shapes)
            else:
                self.notes["raw_end_to_end"] = values
        probes, probe_ms, probe_share = clock.summary()
        self.notes["host_probe"] = {
            "probes": probes,
            "median_ms": probe_ms,
            "reference_ms": REFERENCE_PROBE_NS / 1e6,
            "share_of_run": probe_share,
        }

    def set_latency(self, prefix: str, samples_ms: List[float]) -> None:
        """Store ``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` details."""
        value, percentile, beyond = tail(samples_ms)
        self.detail[f"{prefix}_p50_ms"] = median(samples_ms)
        self.detail[f"{prefix}_tail_ms"] = value
        self.tails[f"{prefix}_tail_ms"] = (percentile, beyond, len(samples_ms))


def git_state(root: Path) -> Tuple[Optional[str], Optional[bool]]:
    """``(commit, dirty)`` of ``root``, or ``(None, None)`` outside git.

    Only asks git when ``root`` itself holds the repository, so the
    lookup never climbs into directories above the checkout.
    """
    if not (root / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def provenance(
    root: Path,
    *,
    workload: str,
    seed: int,
    repeat: int,
    seconds: int,
    trace: bool,
    leg_switches: Dict[str, Optional[str]],
) -> Dict[str, object]:
    """Where a result came from: code, versions, host and run identity."""
    from repro._compat import get_numpy

    numpy = get_numpy()
    commit, dirty = git_state(root)
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "leg_switches_found": leg_switches,
        "leg_switches_used": {name: os.environ.get(name) for name in LEG_SWITCHES},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "repeat": repeat,
        "seconds": seconds,
        "trace": trace,
    }


def record(outcome: Outcome, prov: Dict[str, object]) -> Dict[str, object]:
    """The full result record: provenance, checks and every metric."""

    def render(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
        rendered = {}
        for name, value in values.items():
            rendered[name] = {"value": value, "unit": spec.metric_unit(name)}
            if name in outcome.tails:
                percentile, beyond, count = outcome.tails[name]
                rendered[name].update(
                    percentile=percentile, beyond=beyond, samples=count
                )
        return rendered

    return {
        "provenance": prov,
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": render(outcome.end_to_end),
        "detail": render(outcome.detail),
        "notes": outcome.notes,
    }


def result_line(outcome: Outcome, trace: bool) -> str:
    """The contract's last line: end-to-end or per-layer metrics."""
    names = spec.PER_LAYER if trace else spec.END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": values[name], "unit": spec.metric_unit(name)}
                for name in names
            },
        },
        sort_keys=False,
    )


def human_table(outcome: Outcome, workload: str) -> str:
    """Readable summary of the detail metrics and checks."""
    lines = [f"# {workload}"]
    for name, unit in spec.DETAIL_UNITS.items():
        if name not in outcome.detail:
            continue
        extra = ""
        if name in outcome.tails:
            percentile, beyond, count = outcome.tails[name]
            extra = f"  (p{percentile:.2f}, {beyond} beyond, n={count})"
        lines.append(f"{name:<24} {outcome.detail[name]:>16.4f} {unit}{extra}")
    for name, passed in sorted(outcome.checks.items()):
        lines.append(f"check {name:<32} {'ok' if passed else 'FAILED'}")
    return "\n".join(lines)


def emit(outcome: Outcome, prov: Dict[str, object], trace: bool) -> int:
    """Print table, record and result line; return the exit code."""
    print(human_table(outcome, str(prov["workload"])))
    print(json.dumps({"record": record(outcome, prov)}, sort_keys=True))
    sys.stdout.flush()
    print(result_line(outcome, trace))
    return 0 if outcome.correct else 1
