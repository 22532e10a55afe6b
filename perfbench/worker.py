"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED PASS_ID [SPAN_FILE]

Imports the package from ``src/`` of the checkout, builds the workload's
inputs, runs every item once (traced when SPAN_FILE is given), checks the
results outside the timed region and prints one JSON object.  A process
runs one pass only, so nothing the package caches can carry over from one
timed pass to the next.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import calibration  # noqa: E402  (the benchmark's own modules sit beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_MESSAGES = 5


def run_pass(items, tracer, sampler) -> tuple[list[float], list]:
    """Run each item once; return each item's wall time, less the time the
    speed samples took, and the outcomes."""
    times, outcomes = [], []
    with sampler, tracer:
        for item in items:
            spent = sampler.spent
            start = time.perf_counter()
            try:
                outcome = (item.run(), None)
            except Exception as exc:  # a raising item is a failed item, not a crash
                outcome = (None, f"{item.label}: raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start - (sampler.spent - spent))
            outcomes.append(outcome)
    return times, outcomes


def check_pass(items, outcomes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages: list[str] = []
    for item, (result, error) in zip(items, outcomes):
        attempted += item.size
        if error is None:
            try:
                problems = item.check(result)
            except Exception as exc:
                problems = [f"{item.label}: check raised {type(exc).__name__}: {exc}"] * item.size
        else:
            problems = [error] * item.size
        failed += min(len(problems), item.size)
        messages.extend(problems[: MAX_MESSAGES - len(messages)])
    return attempted, failed, messages


def peak_rss_mb() -> float:
    """This process's peak resident set.

    ru_maxrss would also count the parent's resident set at the fork that
    started this process, so read the high-water mark of its own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    workload, seed, pass_id = argv[0], int(argv[1]), int(argv[2])
    span_file = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, os.path.join(ROOT, "src"))

    setup_slice_s = statistics.median(calibration.time_slice() for _ in range(calibration.SETUP_SAMPLES))
    start = time.perf_counter()
    import suffixconvex as sc

    items = workloads.WORKLOADS[workload](sc, seed)
    setup_s = time.perf_counter() - start

    if span_file:
        tracer = tracing.Tracer(pass_id)
        sampler = calibration.Sampler(on_sample=tracer.record_sample)
    else:
        tracer, sampler = contextlib.nullcontext(), calibration.Sampler()
    times, outcomes = run_pass(items, tracer, sampler)
    sampler.sample()  # a pass shorter than one interval still gets a sample
    attempted, failed, messages = check_pass(items, outcomes)
    if span_file:
        tracer.write(span_file, workload=workload, seed=seed)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_slice_s": setup_slice_s,
        "item_s": times,
        "pass_slice_s": sampler.median(),
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
