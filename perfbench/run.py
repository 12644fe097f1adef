#!/usr/bin/env python3
"""Run one workload of the sharp-cpp benchmark and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the framework and the driver
from source into $CARGO_TARGET_DIR (default .bench_build) on first use,
repeats the workload's set-up a few times (setup_s is their median),
runs the workload once, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; a layer the workload's path never enters reads 0.
The serve workload, which BENCHMARK.json does not list, reports every
metric the driver measured. --quick runs small inputs with no extra
set-up rounds (the benchmark's own tests use it). See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "calibrate", "gate", "serve")
# Extra set-up-only processes per run; setup_s is the median of these
# and the measured run's own set-up.
SETUP_REPEATS = 8
DRIVER_TIMEOUT_S = 150


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the driver and the CLI up to date."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_driver(argv, timeout):
    """Run the driver in its own process group; return its stdout lines."""
    launch = time.monotonic_ns()
    proc = subprocess.Popen(argv + ["--launch-ns", str(launch)],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver timed out after %d s" % timeout)
    finally:
        # Anything the driver left behind (it reaps its own children).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("driver exited %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no framework sources under %s/src; run from a full checkout"
            % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    # serve is measured but not gated (see README.md): it reports
    # whatever the driver measured instead of the declared list.
    gated = args.workload in [w["name"] for w in declared["workloads"]]
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    try:
        build(os.path.join(ROOT, build_dir))
    except subprocess.CalledProcessError as problem:
        log("build failed: %s" % problem)
        return 1

    # Relative paths keep the serve socket path short wherever the
    # checkout lives; the driver runs with the checkout as its cwd.
    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                     os.getpid()))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    driver = [os.path.join(build_dir, "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--root", ".", "--work", work,
              "--sharp", os.path.join(build_dir, "sharp"),
              "--trace-file", os.path.join(
                  traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.quick:
        driver.append("--quick")

    try:
        setups = []
        for _ in range(0 if args.quick or args.trace else SETUP_REPEATS):
            result = json.loads(run_driver(driver + ["--setup-only"],
                                           DRIVER_TIMEOUT_S)[-1])
            setups.append(result["metrics"]["setup_s"]["value"])
        lines = run_driver(driver, DRIVER_TIMEOUT_S)
    except (RuntimeError, ValueError, KeyError) as problem:
        log("%s run failed: %s" % (args.workload, problem))
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    result = json.loads(lines[-1])
    produced = result["metrics"]
    if "setup_s" in produced:
        setups.append(produced["setup_s"]["value"])
        produced["setup_s"]["value"] = statistics.median(setups)
    metrics = {} if gated else produced
    for entry in wanted if gated else []:
        name, unit = entry["name"], entry["unit"]
        got = produced.get(name)
        if got is None:
            if not args.trace:
                log("%s did not report %s" % (args.workload, name))
                return 1
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            log("%s reports %s in %s, BENCHMARK.json says %s"
                % (args.workload, name, got["unit"], unit))
            return 1
        metrics[name] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
