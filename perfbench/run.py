#!/usr/bin/env python3
"""Run one workload of the performance ledger and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eigen-event --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-benchmark-json

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` also reruns under spans and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  Workloads, metrics, units
and which end-to-end metric each per-layer metric should move are
defined once, in ``perfbench/ledger.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = json.loads((HERE / "ledger.json").read_text())
#: Workloads in BENCHMARK.json.  An ungated one still runs and checks its
#: outputs, but its figures are too unsteady to hold a change to a bound.
GATED = {w["name"] for w in CATALOG["workloads"] if w.get("gated", True)}


def per_layer(workload: str | None = None) -> list[dict]:
    """Per-layer metrics of the gated workloads (plus ``workload``'s)."""
    wanted = GATED | {workload}
    return [m for m in CATALOG["per_layer"]
            if wanted & set(m["moves"]["workloads"])]


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}; run "
                 "from the root of a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def write_benchmark_json() -> None:
    """Write ``BENCHMARK.json`` from the catalog (keys the runner reads)."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": CATALOG["run_seconds"],
        "workloads": [
            {"name": w["name"], "why": w["why"]}
            for w in CATALOG["workloads"] if w["name"] in GATED
        ],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")}
            for m in CATALOG["end_to_end"]
        ],
        "per_layer": [
            {key: m[key] for key in ("name", "unit", "better")}
            for m in per_layer()
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from ledger import churn, eigen, sweep

    modules = {"eigen-event": eigen, "eigen-history": eigen,
               "sweep-cold": sweep, "gateway-churn": churn}
    return modules[name].run(name, seed, seconds, trace)


def report(name, seed, trace, outcome) -> dict:
    """Human-readable lines on stdout; returns the result document."""
    from ledger.common import SCRATCH, calibration_s, peak_rss_mb

    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    outcome.e2e["ok_frac"] = (
        1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    outcome.layer["bench.calibration_s"] = calibration_s()
    outcome.layer["bench.failed_frac"] = 1.0 - outcome.e2e["ok_frac"]
    table = per_layer(name) if trace else CATALOG["end_to_end"]
    values = outcome.layer if trace else outcome.e2e
    metrics = {}
    for m in table:
        # A layer this workload never enters did no work: it reads 0.
        value = values.get(m["name"], 0)
        value = value.item() if hasattr(value, "item") else value
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = outcome.samples.get(m["name"])
        print(f"{m['name']:44s} {value!r:>24} {m['unit']}"
              + (f"  (n={n})" if n else ""))
    for line in outcome.errors:
        print(f"CHECK FAILED: {line}")
    doc = {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({
            **doc, "e2e": outcome.e2e, "layer": outcome.layer,
            "samples": outcome.samples, "errors": outcome.errors,
            "spans": outcome.trace_dump,
        }, indent=1, default=float)
    )
    return doc


def main(argv=None) -> int:
    names = [w["name"] for w in CATALOG["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=CATALOG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _bootstrap()
    from ledger.common import WORK

    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    doc = report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
