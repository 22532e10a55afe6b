"""The suffixconvex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh worker
process (``worker.py``), one after another, until S seconds have passed
(and at least MIN_PASSES passes ran).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

    wall_s       wall seconds of one pass, stated at the reference speed
                 of calibration.py's slice; median over passes
    setup_s      seconds for importing the package and building the
                 pass's inputs, at the reference speed; median over passes
    peak_rss_mb  peak resident set of a worker process; median over passes

The lines before it give the number of passes, the medians of the
measured (unscaled) times and ``failed_share``, failed over attempted
items.  With ``--trace 1`` passes alternate between untraced and traced
workers, and the metrics are the per-layer ones (see tracing.py):
medians over the traced passes, plus ``trace.wall_s``, the wall_s of
the traced passes, and ``trace.overhead_s``, that minus the wall_s of
the untraced ones.
Exit status: 0 when every output was correct, 1 when some was wrong,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "suffixconvex")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
DEADLINE_S = 170  # a run ends well within the 180 seconds it may take


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_worker(workload: str, seed: int, pass_id: int, span_file: str | None, timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(pass_id)]
    if span_file:
        command.append(span_file)
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_id} of {workload} did not end within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"pass {pass_id} of {workload} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def pass_wall(result: dict) -> float:
    return sum(result["item_s"])


def at_reference(result: dict) -> tuple[float, float]:
    """(wall_s, setup_s) of one pass at the slice's reference speed."""
    return (calibration.at_reference(pass_wall(result), result["pass_slice_s"]),
            calibration.at_reference(result["setup_s"], result["setup_slice_s"]))


def run_passes(workload: str, seed: int, seconds: int, traced: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced pass results; traced passes alternate with untraced ones."""
    start = time.monotonic()
    plain: list[dict] = []
    spans: list[dict] = []
    pass_id = 0
    if traced:
        # keep only the latest traced run's span files of each workload
        os.makedirs(SPAN_DIR, exist_ok=True)
        for name in os.listdir(SPAN_DIR):
            if name.startswith(f"spans-{workload}-"):
                os.remove(os.path.join(SPAN_DIR, name))
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_PASSES and (not traced or len(spans) >= MIN_PASSES)
        if enough and elapsed >= seconds:
            break
        trace_this = traced and pass_id % 2 == 1
        span_file = os.path.join(SPAN_DIR, f"spans-{workload}-{seed}-{pass_id}.json") if trace_this else None
        remaining = DEADLINE_S - elapsed
        if remaining < 1:
            raise BenchError(f"{workload} needed more than {DEADLINE_S} s for {MIN_PASSES} passes")
        result = run_worker(workload, seed, pass_id, span_file, min(WORKER_TIMEOUT_S, remaining))
        if trace_this:
            result["layers"] = tracing.layer_metrics(tracing.read_spans(span_file))
            spans.append(result)
        else:
            plain.append(result)
        pass_id += 1
    return plain, spans


def summarize(results: list[dict]) -> dict[str, float]:
    walls, setups = zip(*(at_reference(r) for r in results))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "raw_wall_s": statistics.median(pass_wall(r) for r in results),
        "raw_setup_s": statistics.median(r["setup_s"] for r in results),
        "slice_s": statistics.median(r["pass_slice_s"] for r in results),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
            raise BenchError(f"no package source at {os.path.relpath(PACKAGE_DIR, ROOT)}; run from a checkout")
        # byte-compile once, as an installed package would be, so no pass pays for it
        if not compileall.compile_dir(PACKAGE_DIR, quiet=1):
            raise BenchError("the package does not compile")
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for message in dict.fromkeys(m for r in results for m in r["messages"]):
        print(f"FAILED {message}")
    summary = summarize(plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced passes"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"  wall_s {summary['wall_s']:.4f} s (raw median {summary['raw_wall_s']:.4f} s)")
    print(f"  setup_s {summary['setup_s']:.4f} s (raw median {summary['raw_setup_s']:.4f} s)")
    print(f"  peak_rss_mb {summary['peak_rss_mb']:.2f} MB")
    print(f"  speed: slice median {summary['slice_s'] * 1e3:.3f} ms, "
          f"reference {calibration.REFERENCE_S * 1e3:.3f} ms")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted} items)")

    if args.trace:
        metrics = tracing.median_metrics([r["layers"] for r in traced])
        traced_wall = summarize(traced)["wall_s"]
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - summary["wall_s"]
        units = {key: tracing.unit_of(key) for key in metrics}
        for key, value in metrics.items():
            print(f"  {key} {value:.6g} {units[key]}")
    else:
        metrics = {key: summary[key] for key in ("wall_s", "setup_s", "peak_rss_mb")}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
