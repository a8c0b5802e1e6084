"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]

The first form runs one workload and prints, as its last line, one JSON
object: correct, attempted, failed and the metrics (the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1).  The second runs every
workload untraced and then traced, and prints every metric by name and unit
with the tracing overhead.

The set-up probes and the workload each run in a fresh process with the
BLAS thread count fixed; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ottochain.cli; "
         "ottochain.cli.build_parser(); print('ready', flush=True)")


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def setup_seconds() -> float:
    """Wall time from starting a process until `ottochain` is imported and
    the CLI parser is built: the median of SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], env=ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline().strip() == "ready"
                samples.append(time.perf_counter() - start)
                proc.stdout.read()
            finally:
                watchdog.cancel()
            if proc.wait() != 0 or not ready:
                raise BenchError("set-up probe failed to import ottochain")
    return statistics.median(samples)


def scipy_optimize_seconds() -> float:
    """Cumulative import time of scipy.optimize under `python -X importtime`,
    0 when the library no longer imports it."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE, str(SRC)],
                          env=ENV, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("import-time probe failed to import ottochain")
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
            return int(fields[1]) * 1e-6
    return 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(seconds),
         "1" if traced else "0"],
        env=ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {name} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    if traced:
        metrics["setup.scipy_optimize_s"] = scipy_optimize_seconds()
    else:
        metrics["setup_s"] = setup_seconds()
    return out


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def result_line(out: dict, listed: list) -> dict:
    """The result object, with the metrics and units BENCHMARK.json lists."""
    metrics = out["metrics"]
    missing = {m["name"] for m in listed} ^ set(metrics)
    if missing:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed}}


def run_one(args, spec) -> int:
    traced = args.trace == 1
    out = run_workload(args.workload, args.seed, args.seconds, traced)
    for error in out["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result_line(out, spec["per_layer" if traced else "end_to_end"])))
    return 0 if out["correct"] else 1


def run_all(args, spec) -> int:
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = run_workload(name, args.seed, args.seconds, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        print(f"\n{name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct'] and traced['correct']}")
        for out, listed in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
            for m in listed:
                print(f"  {m['name']:36s} {out['metrics'][m['name']]:14.6g} {m['unit']}")
            for error in out["errors"]:
                print(f"  check failed: {error}")
            ok = ok and out["correct"]
        overhead = plain["metrics"]["points_per_s"] / traced["metrics"]["trace.points_per_s"] - 1
        print(f"  {'tracing overhead':36s} {100 * overhead:14.3g} %")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "ottochain" / "__init__.py").is_file():
            raise BenchError(f"no ottochain sources under {SRC}")
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload is None:
            return run_all(args, spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        return run_one(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
