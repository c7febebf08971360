#!/usr/bin/env python3
"""Traced-run report: where each workload's time goes, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/report.py --out perfbench/REPORT.md

Runs every workload untraced and traced :data:`REPEATS` times each for
``run_seconds`` of ``BENCHMARK.json`` (alternating, seeds 1..REPEATS),
then writes a Markdown report with

* one row per workload x operation kind x layer: self time per
  operation and its share of the blocking path (medians over repeats),
  plus the residual no span covers;
* the tracing overhead: traced minus untraced end-to-end medians;
* whether the predicted dominant layers and the quoted single-run shares
  hold.

Self times are busy time (host-speed probes subtracted) and are not
normalised, so they read as wall milliseconds on the measuring host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Untraced and traced runs per workload.
REPEATS = 3

#: Single-run figures quoted when this benchmark was specified (a 2-core
#: host, +-30%): (workload, description, expected, how to measure).  Raw
#: end-to-end figures come from the untraced runs, splits from the traced.
QUOTED = [
    ("lookup-1000", "where_are of 256 addresses, raw p50 (ms)", 150.0,
     lambda r: r["raw"]["op_p50_ms"]),
    ("lookup-1000", "addresses resolved per second (raw)", 1700.0,
     lambda r: r["raw"]["ops_per_s"] * 256),
    ("lookup-1000", "place_many share of the RPC", 0.95,
     lambda r: _op_share(r, "lookup", "placement")),
    ("frontend-64", "scalar place() per get (ms)", 0.14,
     lambda r: _per_op(r, "get", "placement")),
    ("frontend-64", "get latency (ms)", 0.6,
     lambda r: _op_ms(r, "get")),
    ("frontend-64", "put latency (ms)", 1.1,
     lambda r: _op_ms(r, "put")),
    ("frontend-64", "place_many per extent lookup (ms)", 6.5,
     lambda r: _per_op(r, "extent", "placement")),
    ("frontend-64", "extent lookup latency (ms)", 8.2,
     lambda r: _op_ms(r, "extent")),
    ("fleet-1000", "initial place_many of 100k blocks (s)", 3.0,
     lambda r: _per_op(r, "campaign", "placement") / 1e3),
    ("fleet-1000", "place_many share of a 5-year run (scaled from 3 years)",
     1 / 3,
     lambda r: _five_year_place_share(r)),
]


def _split(result):
    return result["record"]["notes"]["split"]


def _per_op(result, kind, layer):
    split = _split(result)
    return split["self_ns"][kind].get(layer, 0) / split["ops"][kind] / 1e6


def _op_ms(result, kind):
    split = _split(result)
    return sum(split["self_ns"][kind].values()) / split["ops"][kind] / 1e6


def _op_share(result, kind, layer):
    split = _split(result)
    return split["self_ns"][kind].get(layer, 0) / sum(
        split["self_ns"][kind].values()
    )


def _five_year_place_share(result):
    place = _per_op(result, "campaign", "placement")
    sim = _per_op(result, "campaign", "chaos.fleet")
    return place / (place + sim * 5 / 3)


def run_once(workload, seed, seconds, trace, repeat):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--repeat", str(repeat),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} failed:\n{completed.stderr[-4000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    return {
        "record": record,
        "end_to_end": {
            name: value["value"] for name, value in record["end_to_end"].items()
        },
        "raw": record["notes"]["raw_end_to_end"],
    }


def med(values):
    return statistics.median(values) if values else 0.0


def layer_table(workload, traced):
    kinds = [k for k in _split(traced[0])["ops"] if k != "all"] + ["all"]
    rows = [
        "| op kind | layer | self ms/op | share of blocking path |",
        "|---|---|---:|---:|",
    ]
    for kind in kinds:
        layers = [
            layer for layer in spec.LAYERS
            if any(layer in _split(r)["self_ns"][kind] for r in traced)
        ]
        for layer in layers:
            per_op = med([_per_op(r, kind, layer) for r in traced])
            share = med([
                _split(r)["self_ns"][kind].get(layer, 0)
                / (_split(r)["window_ns"] if kind == "all"
                   else sum(_split(r)["self_ns"][kind].values()))
                for r in traced
            ])
            rows.append(f"| {kind} | {layer} | {per_op:.4f} | {share:.1%} |")
    return rows


def dominant(traced, kind):
    shares = {
        layer: med([_op_share(r, kind, layer) for r in traced])
        for layer in spec.LAYERS
        if layer != "residual"
    }
    return sorted(shares.items(), key=lambda item: -item[1])


def build_report(results):
    prov = next(iter(results.values()))["traced"][0]["record"]["provenance"]
    lines = [
        "# Traced-run report",
        "",
        "Generated by `python3 perfbench/report.py` "
        f"({spec.RUN_SECONDS} s runs).",
        "",
        f"- commit `{prov['commit']}` (dirty: {prov['dirty']}), Python "
        f"{prov['python']}, NumPy {prov['numpy']}",
        f"- host: {prov['platform']}, {prov['nproc']} CPUs",
        f"- {REPEATS} untraced and {REPEATS} traced runs per workload, "
        f"seeds 1..{REPEATS}, medians shown",
        "",
        "Self time is busy wall time (host-speed probes subtracted).  The "
        "op rows split one operation kind; `all` is the whole timed window, "
        "whose residual is time outside any operation (loop bookkeeping "
        "and the benchmark's model checks).",
        "",
    ]
    for workload, runs in results.items():
        traced, plain = runs["traced"], runs["plain"]
        lines += [f"## {workload}", "", *layer_table(workload, traced), ""]
        lines += [
            "Tracing overhead (normalised end-to-end medians):",
            "",
            "| metric | untraced | traced | traced - untraced |",
            "|---|---:|---:|---:|",
        ]
        for name in spec.END_TO_END:
            untraced = med([r["end_to_end"][name] for r in plain])
            with_trace = med([r["end_to_end"][name] for r in traced])
            delta = with_trace - untraced
            lines.append(
                f"| {name} | {untraced:.4g} | {with_trace:.4g} | "
                f"{delta:+.4g} ({delta / untraced:+.1%}) |"
            )
        lines.append("")
        for kind in _split(traced[0])["ops"]:
            if kind == "all":
                continue
            ranking = dominant(traced, kind)
            predicted = spec.PREDICTED_DOMINANT[(workload, kind)]
            covered = sum(share for layer, share in ranking if layer in predicted)
            top, top_share = ranking[0]
            verdict = (
                "confirmed" if top in predicted
                else f"corrected: {top} dominates"
            )
            lines.append(
                f"- `{kind}`: predicted {', '.join(predicted)} "
                f"({covered:.0%} of the op); largest is {top} "
                f"({top_share:.0%}): {verdict}."
            )
        lines.append("")
    lines += [
        "## Quoted single-run figures",
        "",
        "| workload | figure | quoted | measured (median) | within +-30% |",
        "|---|---|---:|---:|---|",
    ]
    for workload, description, quoted, measure in QUOTED:
        runs = results[workload]
        source = runs["plain"] if "raw" in description else runs["traced"]
        measured = med([measure(r) for r in source])
        holds = abs(measured - quoted) <= 0.3 * quoted
        lines.append(
            f"| {workload} | {description} | {quoted:.4g} | {measured:.4g} "
            f"| {'yes' if holds else 'no'} |"
        )
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "REPORT.md")
    args = parser.parse_args(argv)
    results = {}
    for workload in spec.WORKLOAD_NAMES:
        runs = {"plain": [], "traced": []}
        for repeat in range(REPEATS):
            order = (False, True) if repeat % 2 == 0 else (True, False)
            for trace in order:
                result = run_once(
                    workload, repeat + 1, spec.RUN_SECONDS, trace, repeat
                )
                runs["traced" if trace else "plain"].append(result)
                print(
                    f"{workload} seed {repeat + 1} trace {int(trace)} done",
                    file=sys.stderr, flush=True,
                )
        results[workload] = runs
    args.out.write_text(build_report(results))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
