"""Load generation and the end-to-end numbers.

One process, one event-loop thread generates all load.  A measured run is a
warm-up followed by ``WINDOWS`` equal windows; ``qps``, ``p50_ms`` and
``p99_ms`` are computed per window and the **median window** is reported,
which keeps a scheduler hiccup or a collector pause out of the result.  The
garbage collector is run once before the run and stays enabled.

Closed loop: each client sends its next request when the previous one
completes; latency runs from just before the call to just after the answer
was checked.  Open loop: requests are sent on a precomputed schedule whatever
the program's state; latency runs from the instant the request was *due*, so
a stall charges every request it delayed, and the generator's own lateness is
reported beside it.

Reference speed
---------------
The hosts this runs on change speed by 20-30 % within fractions of a second
and for seconds at a time (a busy neighbour on the same core), which no
amount of averaging inside a 10 s run removes: a plain loop of hashing and
dictionary work swings just as much as the program does, and run-to-run
medians of the raw numbers spread by 20 %.  The closed-loop workloads are
bound by that same processor, so they are measured in **slices** of
``SLICE_S``, each bracketed by two short bursts of such a reference loop, and
a slice's numbers are scaled to what they would be at ``REFERENCE_SPEED``:
its duration counts as ``duration * speed / REFERENCE_SPEED`` reference
seconds and each latency in it is multiplied by the same factor.  A window is
a run of consecutive slices pooled.  That brings the run-to-run spread of
``qps`` and ``p50_ms`` under 8 % in most sets of ten runs.  The raw numbers are kept beside the scaled
ones.  The open-loop workload is paced by timers and a sleeping model, not by
the processor, and is reported as measured.  Set-up times are scaled like a
slice.  What the scaling cannot see is dealt with in :mod:`host`.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.serving.workloads import AUX_OK, DEFAULTED, FAIL, OK, Workload

WINDOWS = 10
#: Set-ups timed per run; the last one serves the measurement.
SETUPS = 3
WARMUP_S = 1.0
#: A closed-loop run is wrong when more than this share of operations failed.
MAX_FAILED_SHARE = 0.001
#: The open-loop schedule counts as held up to this p99 generator lateness.
MAX_LATENESS_P99_MS = 2.0

#: Closed loop: length of one slice between two reference bursts, and of a burst.
SLICE_S = 0.1
BURST_S = 0.01
#: Iterations per second of :func:`reference_speed` on the host the baseline
#: was measured on, in its undisturbed state.  Only a scale: it makes the
#: scaled numbers read like that host's real ones.
REFERENCE_SPEED = 1_000_000.0


class _Box:
    count = 0


def reference_speed(duration_s: float = BURST_S) -> float:
    """Iterations per second of a fixed loop of hashing, dict and list work.

    The mix resembles what the serving path does per query (one content hash,
    tuple keys, dictionary probes, attribute updates), so that a slower host
    slows both alike.
    """
    payload, table, box, recent = bytes(1024), {}, _Box(), []
    done = 0
    start = time.perf_counter()
    stop = start + duration_s
    while True:
        for i in range(200):
            key = (hashlib.sha1(payload).hexdigest(), i & 63)
            table[key] = i
            box.count += table.get(key, 0)
            recent.append(key)
            if len(recent) > 32:
                recent.clear()
        done += 200
        now = time.perf_counter()
        if now >= stop:
            return done / (now - start)


def _doubles() -> array:
    return array("d")


@dataclass
class Samples:
    """Raw per-operation records of one slice (closed) or one window (open).

    Typed arrays, not lists: a million-element list is traversed by every
    full garbage collection, which would put the harness's own pauses into
    the tail it measures.
    """

    #: Open loop only: perf_counter at which each request was due.
    stamp: array = field(default_factory=_doubles)
    latency_s: array = field(default_factory=_doubles)
    code: array = field(default_factory=lambda: array("b"))
    #: Open loop only: how long after its due time each request was sent.
    lateness_s: array = field(default_factory=_doubles)
    start: float = 0.0
    end: float = 0.0
    #: Closed loop only: reference speed just before and just after.
    speeds: Optional[Tuple[float, float]] = None


async def _closed_client(
    workload: Workload, client: int, stop_at: float, out: Samples
) -> None:
    prepare, fire, now = workload.prepare, workload.fire, time.perf_counter
    counter = workload.indices
    latency, code = out.latency_s.append, out.code.append
    while True:
        request = prepare(next(counter))
        t0 = now()
        if t0 >= stop_at:
            return
        result = await fire(request, client)
        latency(now() - t0)
        code(result)


async def _closed_slice(workload: Workload, length_s: float) -> Samples:
    """All clients issue for ``length_s``; ends when the last answer is in."""
    out = Samples()
    out.start = time.perf_counter()
    await asyncio.gather(
        *(
            _closed_client(workload, client, out.start + length_s, out)
            for client in range(workload.clients)
        )
    )
    out.end = time.perf_counter()
    return out


async def run_closed(
    workload: Workload, warmup_s: float, seconds: float, windows: int
) -> List[List[Samples]]:
    """Warm up, then measure ``windows`` windows of reference-bracketed slices."""
    per_window = max(1, round(seconds / windows / SLICE_S))
    length_s = seconds / windows / per_window
    gc.collect()
    if warmup_s:
        await _closed_slice(workload, warmup_s)
    measured = []
    speed = reference_speed()
    for _ in range(windows):
        window = []
        for _ in range(per_window):
            out = await _closed_slice(workload, length_s)
            after = reference_speed()
            out.speeds = (speed, after)
            speed = after
            window.append(out)
        measured.append(window)
    return measured


async def run_open(
    workload: Workload, due: np.ndarray, warmup_s: float, seconds: float, windows: int
) -> List[List[Samples]]:
    """Send request ``i`` at ``due[i]`` seconds after the start, then drain.

    Returns one single-element list of ``Samples`` per window; a request
    belongs to the window in which it was due.
    """
    run = Samples()
    prepare, fire, now = workload.prepare, workload.fire, time.perf_counter
    loop = asyncio.get_running_loop()
    inflight = set()

    async def one(due_at: float) -> None:
        request = prepare(next(workload.indices))
        sent = now()
        result = await fire(request, 0)
        done = now()
        run.stamp.append(due_at)
        run.latency_s.append(done - due_at)
        run.lateness_s.append(sent - due_at)
        run.code.append(result)

    schedule = array("d", due.tobytes())
    # The selector rounds a timeout up to a whole millisecond, three arrival
    # gaps at this rate, and polling instead would hold the interpreter lock
    # against the program's executor threads.  An interval timer's signal
    # wakes the selector through the loop's wake-up descriptor on time.
    wake = asyncio.Event()
    loop.add_signal_handler(signal.SIGALRM, wake.set)
    gc.collect()
    run.start = now()
    i, count = 0, len(schedule)
    try:
        while i < count:
            elapsed = now() - run.start
            while i < count and schedule[i] <= elapsed:
                task = loop.create_task(one(run.start + schedule[i]))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
                i += 1
            if i == count:
                break
            gap = schedule[i] - (now() - run.start)
            if gap > 0:
                wake.clear()
                signal.setitimer(signal.ITIMER_REAL, gap)
                await wake.wait()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        loop.remove_signal_handler(signal.SIGALRM)
    if inflight:
        await asyncio.gather(*inflight)

    stamp = np.asarray(run.stamp)
    edges = run.start + warmup_s + np.linspace(0.0, seconds, windows + 1)
    measured = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (stamp >= lo) & (stamp < hi)
        out = Samples(start=float(lo), end=float(hi))
        for name in ("stamp", "latency_s", "code", "lateness_s"):
            setattr(out, name, np.asarray(getattr(run, name))[inside])
        measured.append([out])
    return measured


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def summarize(measured: List[List[Samples]], workload: Workload) -> Dict[str, Any]:
    """Per-window and median-window numbers, plus the failure counts."""
    open_loop = workload.loop == "open"
    per_window = []
    totals = dict.fromkeys(("attempted", "failed", "samples", "in_slo", "late", "defaulted"), 0)
    for slices in measured:
        good_answers = 0
        raw_s = scaled_s = 0.0
        raw_ms, scaled_ms = [], []
        for out in slices:
            latency_ms = np.asarray(out.latency_s) * 1000.0
            code = np.asarray(out.code)
            good = code == OK
            if open_loop:
                in_time = latency_ms <= workload.slo_ms
                totals["late"] += int(np.count_nonzero(good & ~in_time))
                totals["defaulted"] += int(np.count_nonzero(code == DEFAULTED))
                good &= in_time
                totals["in_slo"] += int(np.count_nonzero(good))
            scale = 1.0 if out.speeds is None else sum(out.speeds) / 2.0 / REFERENCE_SPEED
            good_answers += int(np.count_nonzero(good))
            raw_s += out.end - out.start
            scaled_s += (out.end - out.start) * scale
            raw_ms.append(latency_ms[code != AUX_OK])
            scaled_ms.append(raw_ms[-1] * scale)
            totals["attempted"] += len(code)
            totals["failed"] += int(np.count_nonzero(code == FAIL))
        raw_ms, scaled_ms = np.concatenate(raw_ms), np.concatenate(scaled_ms)
        totals["samples"] += len(raw_ms)
        per_window.append(
            {
                "qps": good_answers / scaled_s,
                "p50_ms": _percentile(scaled_ms, 50),
                "p99_ms": _percentile(scaled_ms, 99),
                "samples": len(raw_ms),
                "speed": REFERENCE_SPEED * scaled_s / raw_s,
                "raw": {
                    "qps": good_answers / raw_s,
                    "p50_ms": _percentile(raw_ms, 50),
                    "p99_ms": _percentile(raw_ms, 99),
                },
            }
        )

    summary: Dict[str, Any] = {
        name: statistics.median(window[name] for window in per_window)
        for name in ("qps", "p50_ms", "p99_ms", "speed")
    }
    summary["raw"] = {
        name: statistics.median(window["raw"][name] for window in per_window)
        for name in ("qps", "p50_ms", "p99_ms")
    }
    summary["windows"] = per_window
    summary.update((name, totals[name]) for name in ("attempted", "failed", "samples"))
    summary["elapsed_s"] = sum(out.end - out.start for slices in measured for out in slices)
    summary["correct"] = (
        summary["attempted"] > 0
        and summary["failed"] <= MAX_FAILED_SHARE * summary["attempted"]
    )
    if open_loop:
        lateness_ms = 1000.0 * np.concatenate(
            [out.lateness_s for slices in measured for out in slices]
        )
        summary.update((name, totals[name]) for name in ("in_slo", "late", "defaulted"))
        summary["lateness_ms"] = {
            "p50": _percentile(lateness_ms, 50),
            "p99": _percentile(lateness_ms, 99),
            "max": float(lateness_ms.max()) if len(lateness_ms) else float("nan"),
        }
        summary["schedule_held"] = summary["lateness_ms"]["p99"] <= MAX_LATENESS_P99_MS
    return summary


async def measure(
    workload: Workload,
    seconds: float,
    warmup_s: float,
    windows: int,
    due: Optional[np.ndarray] = None,
) -> Dict[str, Any]:
    if workload.loop == "open":
        measured = await run_open(workload, due, warmup_s, seconds, windows)
    else:
        measured = await run_closed(workload, warmup_s, seconds, windows)
    return summarize(measured, workload)


async def timed_setups(workload: Workload, setups: int) -> List[Dict[str, float]]:
    """Set the workload up ``setups`` times; the last instance stays up.

    Each set-up is timed as measured and scaled to the reference speed by
    the bursts on either side of it, like a slice.
    """
    times = []
    speed = reference_speed()
    for round_ in range(setups):
        if round_:
            await workload.teardown()
            speed = reference_speed()
        t0 = time.perf_counter()
        await workload.setup()
        raw_s = time.perf_counter() - t0
        after = reference_speed()
        scale = (speed + after) / 2.0 / REFERENCE_SPEED
        times.append({"raw_s": raw_s, "scaled_s": raw_s * scale})
    return times
