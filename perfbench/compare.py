#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against the bounds.

    # ten runs per workload, seeds 1..10, into a result set
    python3 perfbench/compare.py collect --out base.json --seeds 1-10
    # median, quartiles and spread of every metric; flags spreads over bound
    python3 perfbench/compare.py report base.json
    # two sets: flags any metric whose median got worse by more than its
    # bound, and any spread over its bound
    python3 perfbench/compare.py diff base.json new.json

Quartiles are Python's statistics.quantiles(values, n=4); the spread of a
metric is (q3 - q1) / median.  Bounds, directions and the run length
(run_seconds) come from BENCHMARK.json; `diff` refuses two sets taken
with different run lengths, trace modes or seeds.  `--seeds heldout` runs
the held-out seed only, for re-checking a claim on a seed not used while
the change was written.
Exit status: 0 when nothing is flagged, 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Seed kept out of every tuning run; later claims are re-checked on it.
HELD_OUT_SEED = 104729


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    if text == "heldout":
        return [HELD_OUT_SEED]
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = {"trace": args.trace, "seconds": seconds, "runs": {}}
    for workload in workloads:
        runs = out["runs"].setdefault(workload, [])
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  check=False)
            lines = proc.stdout.decode(errors="replace").splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"(status {proc.returncode})", file=sys.stderr)
                runs.append({"seed": seed, "error": proc.returncode})
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
            pathlib.Path(args.out).write_text(json.dumps(out, indent=1))
    pathlib.Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def summary(values):
    """(median, q1, q3, spread) of a list of numbers."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def metric_table(result_set):
    """{workload: {metric: [values]}} and a line per failed or wrong run."""
    table, problems = {}, []
    for workload, runs in result_set["runs"].items():
        for run in runs:
            if "error" in run:
                problems.append(f"{workload} seed {run['seed']}: run failed")
                continue
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload} seed {run['seed']}: "
                                f"{run['failed']}/{run['attempted']} failed, "
                                f"correct={run['correct']}")
            for name, metric in run["metrics"].items():
                table.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
    return table, problems


def metric_specs(trace):
    bench = spec()
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def report(args):
    result_set = json.loads(pathlib.Path(args.set).read_text())
    trace = result_set.get("trace", 0)
    table, problems = metric_table(result_set)
    specs = metric_specs(trace)
    flagged = list(problems)
    for workload, metrics in table.items():
        print(f"== {workload} ({len(next(iter(metrics.values())))} runs)")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = specs.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark = "  OVER BOUND"
                    flagged.append(f"{workload} {name}: spread {spread:.3f} "
                                   f"> bound {bound}")
                elif spread > bound / 3:
                    mark = "  over bound/3"
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}"
                  f"{mark}")
    for line in flagged:
        print("FLAG:", line)
    return 1 if flagged else 0


def diff(args):
    base = json.loads(pathlib.Path(args.base).read_text())
    new = json.loads(pathlib.Path(args.new).read_text())
    for key in ("trace", "seconds"):
        if base.get(key) != new.get(key):
            print(f"FLAG: {key} differs: {base.get(key)} in {args.base}, "
                  f"{new.get(key)} in {args.new}")
            return 1
    for workload, runs in base["runs"].items():
        seeds = [run["seed"] for run in runs]
        new_seeds = [run["seed"] for run in new["runs"].get(workload, [])]
        if new_seeds and seeds != new_seeds:
            print(f"FLAG: {workload} seeds differ: {seeds} in {args.base}, "
                  f"{new_seeds} in {args.new}")
            return 1
    specs = metric_specs(base.get("trace", 0))
    base_table, base_problems = metric_table(base)
    new_table, new_problems = metric_table(new)
    flagged = base_problems + new_problems
    for workload in base_table:
        if workload not in new_table:
            flagged.append(f"{workload}: missing from {args.new}")
            continue
        print(f"== {workload}")
        print(f"{'metric':34} {'base med':>12} {'new med':>12} {'worse by':>9} "
              f"{'spread b':>9} {'spread n':>9} {'bound':>6}")
        for name, base_values in base_table[workload].items():
            new_values = new_table[workload].get(name)
            if not new_values:
                flagged.append(f"{workload} {name}: missing from {args.new}")
                continue
            bmed, _, _, bspread = summary(base_values)
            nmed, _, _, nspread = summary(new_values)
            sign = -1.0 if specs.get(name, {}).get("better") == "higher" else 1.0
            worse = sign * (nmed - bmed) / bmed if bmed else 0.0
            bound = specs.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                if worse > bound:
                    mark += "  WORSE THAN BOUND"
                    flagged.append(f"{workload} {name}: median worse by "
                                   f"{worse:.3f} > bound {bound}")
                if max(bspread, nspread) > bound:
                    mark += "  SPREAD OVER BOUND"
                    flagged.append(f"{workload} {name}: spread "
                                   f"{max(bspread, nspread):.3f} > bound {bound}")
            print(f"{name:34} {bmed:12.6g} {nmed:12.6g} {worse:9.4f} "
                  f"{bspread:9.4f} {nspread:9.4f} "
                  f"{bound if bound is not None else '-':>6}{mark}")
    for line in flagged:
        print("FLAG:", line)
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run workloads x seeds into a set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10",
                   help="e.g. 1-10, 3,5,8 or heldout")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report", help="quartiles and spreads of one set")
    r.add_argument("set")
    d = sub.add_parser("diff", help="compare two sets against the bounds")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    return {"collect": collect, "report": report, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
