#!/usr/bin/env python3
"""End-to-end benchmark for ModChecker: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is compiled from source on first use (perfbench/CMakeLists.txt
builds the repository's libraries from ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset.  Build output goes
to standard error.  The program's notes and the result line go to standard
output; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  The metrics are those of BENCHMARK.json: every
end_to_end metric with --trace 0, every per_layer metric with --trace 1,
where a per-layer metric the workload does not measure reads 0 and is
named in a note.  Exit status is non-zero, with no result line, when the
build or the run fails or reports a metric BENCHMARK.json does not name.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("full_sweep", "event_ticks", "fleet_drain")
# A run measures for --seconds (at most three times that while it gathers
# the samples a 99th percentile needs) plus its set-up.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(bdir), "--target", "mc_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)
    binary = bdir / "mc_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    traces = bdir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in got if n in want and got[n]["unit"] != want[n])
    missing = [n for n in want if n not in got]
    if extra or wrong_unit or (missing and not args.trace):
        fail(f"metrics differ from BENCHMARK.json: unexpected {extra}, "
             f"wrong unit {wrong_unit}, missing {missing}")
    for line in lines[:-1]:
        print(line)
    if missing:
        # A per-layer metric this workload does not measure.
        print(f"# not measured on {args.workload} (reported as 0): "
              + " ".join(missing))
    metrics = {n: got.get(n, {"value": 0, "unit": want[n]}) for n in want}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
