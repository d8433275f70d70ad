#!/usr/bin/env python3
"""The repository benchmark: one workload, timed, checked, optionally traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload udp_cbr --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
runs two traced passes and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed.  Every time is scaled by the host probe
of ``hostprobe.py`` timed around it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostprobe import REFERENCE_S, HostProbe, pin_to_one_core

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
DECLARATION = ROOT / "BENCHMARK.json"

#: every module the benchmark imports from the program; ``setup_s``
#: times importing exactly these in a fresh interpreter
REPRO_MODULES = (
    "repro.analysis.tasks",
    "repro.farm.executor",
    "repro.plan.builtin",
)
#: a run measures at least this many passes, so every cell time is a median
MIN_PASSES = 3
TRACED_PASSES = 2
CELL_TIMEOUT_S = 120.0


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        f"import {', '.join(REPRO_MODULES)}; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def scaled(seconds: float, *probes: float) -> float:
    """Host seconds scaled to the probe's reference speed."""
    return seconds * REFERENCE_S / statistics.mean(probes)


def canonical(record: Any) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def fingerprint(record: Any) -> str:
    return hashlib.sha256(canonical(record).encode("utf-8")).hexdigest()[:16]


@dataclass
class Pass:
    """One execution of every cell of a workload."""

    records: List[Any] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    #: testbed-build seconds per cell (only when a BuildTimer is given)
    build: List[float] = field(default_factory=list)
    #: host-probe seconds before the first cell and after every cell
    probe: List[float] = field(default_factory=list)
    dgrams: int = 0
    tcp_segments: int = 0
    builds: int = 0

    def scaled(self, kind: str) -> List[float]:
        """Per-cell times of ``kind`` scaled by the probes around each cell."""
        return [
            scaled(t, self.probe[i], self.probe[i + 1])
            for i, t in enumerate(getattr(self, kind))
        ]


def per_cell_median(passes: List[Pass], kind: str) -> float:
    """Sum over cells of each cell's median scaled time over the passes."""
    cells = zip(*(p.scaled(kind) for p in passes))
    return sum(statistics.median(cell) for cell in cells)


def run_pass(specs, counter, probe, builds=None) -> Pass:
    from repro.farm.executor import FarmExecutor

    result = Pass()
    udp0, tcp0 = counter.udp, counter.tcp_segments
    builds0 = builds.builds if builds is not None else 0
    gc.collect()
    result.probe.append(probe.sample())
    for spec in specs:
        farm = FarmExecutor(jobs=1, cache=None, timeout=CELL_TIMEOUT_S)
        build0 = builds.seconds if builds is not None else 0.0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            record, error = farm.run([spec])[spec.key], None
        except Exception as exc:  # a failed cell is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record, error = None, f"raised {exc!r}"
        result.wall.append(time.perf_counter() - wall0)
        result.cpu.append(time.process_time() - cpu0)
        if builds is not None:
            result.build.append(builds.seconds - build0)
        result.records.append(record)
        result.errors.append(error)
        gc.collect()
        result.probe.append(probe.sample())
    result.dgrams = counter.total - udp0 - tcp0
    result.tcp_segments = counter.tcp_segments - tcp0
    if builds is not None:
        result.builds = builds.builds - builds0
    return result


def load_pins(workload: str, seed: int) -> Optional[List[str]]:
    if not PINS.is_file():
        return None
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def cell_failures(specs, passes: List[Pass], pins: Optional[List[str]]) -> List[str]:
    """Check every cell execution; one message per failed execution."""
    from workloads import CHECKS

    failures: List[str] = []
    reference = [canonical(r) for r in passes[0].records]
    if pins is not None and len(pins) != len(specs):
        pins = [None] * len(specs)  # a different grid matches no pin
    for number, run in enumerate(passes):
        for i, spec in enumerate(specs):
            where = f"pass {number} cell {i} ({spec.runner} {spec.kwargs.get('variant')})"
            record = run.records[i]
            problem = run.errors[i]
            if problem is None:
                problem = CHECKS[spec.runner](spec, record)
            if problem is None and pins is not None and fingerprint(record) != pins[i]:
                problem = "record differs from the pinned fingerprint"
            if problem is None and canonical(record) != reference[i]:
                problem = "record differs from pass 0 (nondeterministic)"
            if problem is not None:
                failures.append(f"{where}: {problem}")
    return failures


def merge_failures(plans, specs, records) -> List[str]:
    """Each plan must still fold its cells into its figure record."""
    results = {spec.key: record for spec, record in zip(specs, records)}
    failures = []
    for plan in plans:
        try:
            plan.merge(results)
        except Exception as exc:
            failures.append(f"plan {plan.name!r} failed to merge: {exc!r}")
    return failures


def end_to_end(passes: List[Pass], import_s: float) -> Dict[str, Any]:
    wall_s = per_cell_median(passes, "wall")
    cpu_s = per_cell_median(passes, "cpu")
    setup_s = import_s + per_cell_median(passes, "build")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "dgrams_per_s": {"value": passes[0].dgrams / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced(specs, counter, probe, passes: List[Pass], wall_s: float,
           failed_frac: float):
    """Two traced passes -> (per-layer metrics, list of check failures)."""
    from layers import LayerTrace, per_layer_metrics

    reference = [canonical(r) for r in passes[0].records]
    failures: List[str] = []
    traces, runs = [], []
    for number in range(TRACED_PASSES):
        trace = LayerTrace()
        trace.install()
        try:
            run = run_pass(specs, counter, probe)
        finally:
            trace.uninstall()
        log(f"traced pass {number}: {sum(run.wall):.2f}s")
        for i, record in enumerate(run.records):
            if canonical(record) != reference[i]:
                failures.append(
                    f"traced pass {number} cell {i}: record differs from the "
                    f"untraced run"
                )
        traces.append(trace)
        runs.append(run)
    counts = [trace.exact_counts() for trace in traces]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0][k] != counts[1][k])
        failures.append(f"per-layer counts differ between traced passes: {diff}")
    build_ms = per_cell_median(passes, "build") * 1e3 / passes[0].builds
    metrics = per_layer_metrics(
        traces,
        speeds=[REFERENCE_S / statistics.median(run.probe) for run in runs],
        dgrams=passes[0].dgrams,
        tcp_segments=passes[0].tcp_segments,
        build_ms=build_ms,
        overhead_ratio=per_cell_median(runs, "wall") / wall_s,
        failed_frac=failed_frac,
    )
    probes = [sample for p in passes for sample in p.probe]
    metrics["host.probe_slowdown"] = {
        "value": statistics.median(probes) / REFERENCE_S, "unit": "ratio",
    }
    return metrics, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure complete passes until this much time "
                             f"has elapsed (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="run one pass and record its per-cell record "
                             "fingerprints for this seed in pins.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program sources at {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        log(f"imported repro from {repro.__file__}, not from {SRC}")
        return 2
    from layers import DeliveryCounter
    from workloads import WORKLOADS, cells

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        return 2
    plans = workload.plans(args.seed)
    specs = cells(plans)
    counter = DeliveryCounter()
    counter.install()

    pin_to_one_core()
    with HostProbe() as probe:
        return measure(args, workload, plans, specs, counter, probe)


def measure(args, workload, plans, specs, counter, probe) -> int:
    """Record the pins, or time, check and print one workload."""
    from layers import BuildTimer
    from workloads import cells

    if args.pin:
        run = run_pass(specs, counter, probe)
        failures = cell_failures(specs, [run], None)
        if failures:
            log("\n".join(failures))
            return 1
        pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
        pins.setdefault(workload.name, {})[str(args.seed)] = [
            fingerprint(r) for r in run.records
        ]
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        log(f"pinned {workload.name} seed {args.seed}: {len(specs)} cells")
        return 0

    log(f"{workload.name}: {len(specs)} cells, warming up")
    run_pass(cells(workload.warmup(args.seed)), counter, probe)

    builds = BuildTimer()
    builds.install()
    passes: List[Pass] = []
    imports: List[float] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(specs, counter, probe, builds))
        # one import per pass, so the samples spread over the run
        before = probe.sample()
        seconds = import_seconds()
        imports.append(scaled(seconds, before, probe.sample()))
        log(f"pass {len(passes) - 1}: {sum(passes[-1].wall):.2f}s host, "
            f"{sum(passes[-1].scaled('wall')):.2f}s scaled, "
            f"{passes[-1].dgrams} datagrams, import {seconds:.3f}s")
    builds.uninstall()
    import_s = statistics.median(imports)

    failures = cell_failures(specs, passes, load_pins(workload.name, args.seed))
    attempted = len(specs) * len(passes)
    failed = len(failures)
    failures += merge_failures(plans, specs, passes[0].records)
    if len({(p.dgrams, p.tcp_segments) for p in passes}) != 1:
        failures.append("delivered datagram counts differ between passes")
    metrics = end_to_end(passes, import_s)

    if args.trace:
        metrics, trace_failures = traced(
            specs, counter, probe, passes, metrics["wall_s"]["value"],
            failed / attempted,
        )
        failures += trace_failures
    counter.uninstall()

    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {
        name: metric["unit"] for name, metric in metrics.items()
    }:
        failures.append(f"metrics do not match {DECLARATION.name}")
    metrics = {m["name"]: metrics[m["name"]] for m in declared if m["name"] in metrics}

    for message in failures:
        log(f"FAIL {message}")
    correct = not failures
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
