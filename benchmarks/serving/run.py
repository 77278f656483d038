"""The repo's benchmark: seven workloads, four end-to-end metrics, a ledger.

One workload, the way ``BENCHMARK.json`` runs it::

    python3 benchmarks/serving/run.py --workload inproc_hit --seed 11 --seconds 10 --trace 0

prints each end-to-end metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` is the separate traced run and prints the
per-layer metrics instead.  Without ``--workload`` every workload runs, each
in a process of its own; ``--traced`` adds the traced runs, ``--repeat N
--check`` runs the set N times and fails when a metric's spread between the
repetitions leaves its bound, ``--quick`` shrinks everything for a smoke test.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Share of ``--seconds`` a traced run spends untraced, for the overhead figure.
REFERENCE_SHARE = 0.3
#: ``setup_s`` also passes ``--check`` when it moved by less than this.
SETUP_FLOOR_S = 0.5


def _bootstrap() -> None:
    """Make ``repro`` and this package importable from a bare checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT} holds no src/repro: the benchmark measures that program")
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        # Run as a script: this directory would shadow the standard library's
        # ``trace`` module with ours.
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _end_to_end_spec() -> List[Dict[str, Any]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


# -- one workload, in this process ---------------------------------------------------


def _plan(args: argparse.Namespace) -> Dict[str, Any]:
    from benchmarks.serving import harness

    if args.quick:
        return {"seconds": args.seconds or 0.5, "warmup_s": 0.2, "windows": 2, "setups": 1}
    return {
        "seconds": args.seconds or 10.0,
        "warmup_s": harness.WARMUP_S,
        "windows": harness.WINDOWS,
        "setups": harness.SETUPS,
    }


def _schedule(workload: Any, duration_s: float) -> Optional[Any]:
    return workload.arrivals(duration_s) if workload.loop == "open" else None


async def _end_to_end(
    workload: Any, plan: Dict[str, Any], imports: Dict[str, float]
) -> Dict[str, Any]:
    from benchmarks.serving import harness

    due = _schedule(workload, plan["warmup_s"] + plan["seconds"])
    try:
        setups = await harness.timed_setups(workload, plan["setups"])
        summary = await harness.measure(
            workload, plan["seconds"], plan["warmup_s"], plan["windows"], due
        )
    finally:
        await workload.teardown()
    summary["setup_s"] = imports["scaled_s"] + statistics.median(
        setup["scaled_s"] for setup in setups
    )
    summary["setup"] = {"imports": imports, "instances": setups}
    summary["schedule"] = due
    return summary


async def _traced(workload: Any, plan: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced reference on one instance, then the traced run on a fresh one."""
    from benchmarks.serving import harness, trace

    async def phase(seconds: float) -> Dict[str, Any]:
        await harness.measure(
            workload, plan["warmup_s"], 0.0, 1, _schedule(workload, plan["warmup_s"])
        )
        recorder.reset()
        cache = trace.cache_counters(workload.app.cache)
        histograms = trace.histogram_counts(workload.app.metrics)
        t0 = time.perf_counter()
        summary = await harness.measure(
            workload, seconds, 0.0, max(1, round(seconds)), _schedule(workload, seconds)
        )
        summary["wall_s"] = time.perf_counter() - t0 - trace.calibrate_seconds(recorder)
        summary["cache"] = (cache, trace.cache_counters(workload.app.cache))
        summary["warnings"] = trace.cross_checks(recorder, workload.app.metrics, histograms)
        # Host speed during the phase relative to the reference (closed loop);
        # the phase's throughput in the harness's scaled units.
        summary["time_scale"] = summary["speed"] / harness.REFERENCE_SPEED
        summary["scaled_qps"] = (
            summary["samples"] / summary["elapsed_s"] / summary["time_scale"]
        )
        return summary

    recorder = trace.Recorder()
    try:
        await workload.setup()
        reference = await phase(plan["seconds"] * REFERENCE_SHARE)
    finally:
        await workload.teardown()
    patches = trace.install(recorder, workload)
    try:
        await workload.setup()
        summary = await phase(plan["seconds"] * (1.0 - REFERENCE_SHARE))
    finally:
        try:
            await workload.teardown()
        finally:
            patches.undo()
    before, after = summary["cache"]
    summary["ledger"] = trace.ledger(
        recorder,
        summary["wall_s"],
        summary["samples"],
        summary["scaled_qps"],
        reference["scaled_qps"],
        before,
        after,
        summary["time_scale"],
    )
    trace.write(recorder, summary["ledger"], workload.name)
    return summary


def run_one(args: argparse.Namespace) -> int:
    _bootstrap()
    from benchmarks.serving import host

    with host.QuietHost():
        return _run_one(args)


def _run_one(args: argparse.Namespace) -> int:
    from benchmarks.serving import harness, trace, workloads
    from repro.observability.logging import configure_logging

    import_s = time.perf_counter() - _PROCESS_START
    imports = {
        "raw_s": import_s,
        "scaled_s": import_s * harness.reference_speed() / harness.REFERENCE_SPEED,
    }
    # The program logs JSON lines (server started/stopped, failed batches);
    # they must not land in this process's output.
    devnull = open(os.devnull, "w", encoding="utf-8")
    configure_logging(stream=devnull)
    plan = _plan(args)
    workload = workloads.make(args.workload, args.seed)
    runner = _traced(workload, plan) if args.trace else _end_to_end(workload, plan, imports)
    summary = asyncio.run(runner)

    kind = (
        f"open loop, {workload.rate_qps:.0f} q/s, SLO {workload.slo_ms:g} ms"
        if workload.loop == "open"
        else f"closed loop, {workload.clients} in flight"
    )
    print(f"workload {workload.name} ({kind}) seed {args.seed}, {plan['seconds']:g} s")
    if args.trace:
        spec = [{"name": n, "unit": u} for n, u, _ in trace.PER_LAYER]
        values = summary["ledger"]
    else:
        spec = _end_to_end_spec()
        values = summary
    metrics = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    if args.trace:
        per_query_us = 1e6 / values["traced_qps"]
        rows = sum(values[name] for name in trace.SELF_TIME_ROWS)
        print(
            f"  the self-time rows sum to {rows:.2f} us of the {per_query_us:.2f} us "
            f"a query takes ({values['loop.idle_share']:.1%} idle, "
            f"{values['unattributed_share']:.1%} unattributed)"
        )
        for warning in summary["warnings"]:
            print(f"  WARNING {warning}")
    else:
        # Not gated: between runs of the same code it spreads by up to 29 %.
        print(f"  {'p99_ms (diagnostic)':<28} {summary['p99_ms']:>14.6g} ms")
        if workload.loop == "closed":
            raw = summary["raw"]
            print(
                f"  as measured: qps {raw['qps']:.6g} p50_ms {raw['p50_ms']:.6g} "
                f"p99_ms {raw['p99_ms']:.6g}, on a host at "
                f"{summary['speed'] / harness.REFERENCE_SPEED:.3f} of reference speed"
            )
        setup = summary["setup"]
        print(
            f"  setup_s = imports {setup['imports']['scaled_s']:.3f} + median of set-ups "
            + ", ".join(f"{s['scaled_s']:.3f}" for s in setup["instances"])
            + f"; as measured: imports {setup['imports']['raw_s']:.3f}, set-ups "
            + ", ".join(f"{s['raw_s']:.3f}" for s in setup["instances"])
        )
        summary["inputs_sha1"] = workload.input_digest(schedule=summary.pop("schedule"))
        print(f"  inputs sha1 {summary['inputs_sha1']}")
    print(
        f"  attempted {summary['attempted']} failed {summary['failed']} "
        f"samples {summary['samples']}"
    )
    if workload.loop == "open":
        late = summary["lateness_ms"]
        print(
            f"  in SLO {summary['in_slo']} late {summary['late']} defaulted "
            f"{summary['defaulted']}; generator lateness ms p50 {late['p50']:.3f} "
            f"p99 {late['p99']:.3f} max {late['max']:.3f}"
            + ("" if summary["schedule_held"] else "  SCHEDULE NOT HELD")
        )
    for error in workload.errors:
        print("  ERROR " + error.strip().replace("\n", "\n    "))

    workloads.OUT_DIR.mkdir(exist_ok=True)
    detail = workloads.OUT_DIR / f"{workload.name}_{'traced' if args.trace else 'e2e'}.json"
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, default=str)
    devnull.close()
    print(
        json.dumps(
            {
                "correct": bool(summary["correct"]),
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if summary["correct"] else 1


# -- the whole set, one process per workload ------------------------------------------


def _child(name: str, trace: int, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.seconds:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        print(f"  {name} exited with {done.returncode}\n{done.stderr}", file=sys.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_set(args: argparse.Namespace) -> int:
    _bootstrap()
    from benchmarks.serving.workloads import NAMES

    names = list(NAMES if not args.only else args.only.split(","))
    unknown = set(names) - set(NAMES)
    if unknown:
        sys.exit(f"unknown workload(s) {sorted(unknown)}; known: {', '.join(NAMES)}")
    ok = True
    runs: Dict[str, List[Dict[str, float]]] = {name: [] for name in names}
    for repetition in range(args.repeat):
        # Rotated, so that no workload always runs after the same neighbour.
        shift = repetition % len(names)
        for name in names[shift:] + names[:shift]:
            for trace in (0, 1) if args.traced else (0,):
                result = _child(name, trace, args)
                if result is None or not result["correct"]:
                    ok = False
                elif not trace:
                    runs[name].append(
                        {k: v["value"] for k, v in result["metrics"].items()}
                    )
    if args.repeat > 1:
        ok = _report_spread(runs, args.check) and ok
    return 0 if ok else 1


def _report_spread(runs: Dict[str, List[Dict[str, float]]], check: bool) -> bool:
    """Median and min-max spread of each metric x workload over the repetitions."""
    inside_all = True
    print(f"\n{'workload':<18}{'metric':<10}{'median':>14}{'spread':>9}{'bound':>7}")
    for name, results in runs.items():
        if len(results) < 2:
            continue
        for metric in _end_to_end_spec():
            values = [result[metric["name"]] for result in results]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            inside = spread <= metric["bound"] or (
                metric["name"] == "setup_s" and max(values) - min(values) <= SETUP_FLOOR_S
            )
            inside_all = inside_all and inside
            print(
                f"{name:<18}{metric['name']:<10}{median:>14.6g}{spread:>9.3f}"
                f"{metric['bound']:>7.2f}" + ("" if inside else "  OUTSIDE")
            )
    return inside_all or not check


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=0.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="two 0.25 s windows, one set-up")
    parser.add_argument("--only", help="comma-separated subset, when running the set")
    parser.add_argument("--traced", action="store_true", help="the set: add the traced runs")
    parser.add_argument("--repeat", type=int, default=1, help="the set: run it N times")
    parser.add_argument("--check", action="store_true", help="fail when a spread leaves its bound")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.repeat < 1:
        parser.error("--seconds must not be negative and --repeat at least 1")
    # A terminated run still tears its instance down (worker process, sockets).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_one(args) if args.workload else run_set(args)


if __name__ == "__main__":
    sys.exit(main())
