#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs rebuild
incrementally. The last line of standard output is the result object of
BENCHMARK.json's contract; earlier lines carry the host fingerprint, the
checks and the sample counts. Build and program logs go to standard
error. A traced run (--trace 1) also writes a Chrome trace-event timeline
and a per-layer self-time summary next to the raw result, under the
build directory's runs/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def child_env():
    # The program's selectable kernels read SLOPE_* variables; pin them
    # to their defaults so every run measures the same code paths.
    return {k: v for k, v in os.environ.items() if not k.startswith("SLOPE_")}


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(map(str, cmd))}")


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(bdir), "-j", "4"], BUILD_TIMEOUT_S)
    return bdir / "perfbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    trace = args.trace == 1

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail(f"{bench_file} not found")
    bench = report.load(bench_file)

    bdir = build_dir()
    program = build(bdir)
    runs = bdir / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = runs / f"{stem}.raw.json"
    raw_path.unlink(missing_ok=True)
    run_step([str(program), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--raw", str(raw_path)],
             RUN_TIMEOUT_S)

    raw = report.load(raw_path)
    try:
        result = report.result_line(raw, bench, trace)
    except (KeyError, ValueError) as err:
        fail(f"cannot report {stem}: {err}")

    summary = {
        "fingerprint": raw["fingerprint"],
        "checks": raw["checks"],
        "samples": report.sample_counts(raw),
        "info": raw["info"],
        "result": result,
    }
    if trace:
        summary["self_ms"] = report.self_times(raw["spans"])
        timeline = runs / f"{stem}.trace.json"
        with open(timeline, "w") as f:
            json.dump(report.chrome_trace(raw), f)
        print(f"timeline: {timeline}", file=sys.stderr)
    with open(runs / f"{stem}.summary.json", "w") as f:
        json.dump(summary, f, indent=1)

    print("fingerprint: " + json.dumps(raw["fingerprint"]))
    print("checks: " + json.dumps(
        {c["name"]: c["ok"] for c in raw["checks"]}))
    print("samples: " + json.dumps(summary["samples"]))
    for name, value in sorted(raw["info"].items()):
        print(f"{name}: {value}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
