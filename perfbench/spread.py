"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (interquartile range over median, from
`statistics.quantiles(values, n=4)`), next to its bound in BENCHMARK.json.

usage (from the repository root):
    python3 perfbench/spread.py --workload mega-day --seeds 1 2 3 4 5 \
        [--out perfbench/baseline.json]

Each run is the BENCHMARK.json command with `--trace 0` and the file's
`run_seconds`, built under `.bench_build`. With `--out`, the summary is
merged into that JSON file under the workload's name, together with the
result-set record every run prints (hardware threads, rustc, commit).
"""

import argparse
import json
import os
import statistics
import subprocess
import time

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seeds", nargs="+", required=True)
parser.add_argument("--out")
args = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
runs, record = [], None
for seed in args.seeds:
    started = time.time()
    proc = subprocess.run(
        spec["command"]
        + ["--workload", args.workload, "--seed", seed,
           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = next((l for l in lines if l.startswith("perfbench ")), record)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    calls = sum(1 for l in lines if l.startswith("call "))
    print(f"seed {seed}: exit {proc.returncode}, {time.time() - started:.1f} s, "
          f"correct={result.get('correct')} attempted={result.get('attempted')} "
          f"failed={result.get('failed')} calls={calls} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()),
          flush=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
    runs.append(result)

summary = {"seeds": args.seeds, "record": record, "metrics": {}}
for metric in spec["end_to_end"]:
    values = [r["metrics"][metric["name"]]["value"] for r in runs if "metrics" in r]
    if len(values) < 2:
        continue
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    verdict = "within a third" if spread < metric["bound"] / 3 else (
        "within" if spread <= metric["bound"] else "OVER")
    print(f"  {metric['name']:<16} median {median:.6g} {metric['unit']}  "
          f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {metric['bound']}  {verdict}")
    summary["metrics"][metric["name"]] = {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "unit": metric["unit"]}

if args.out:
    merged = json.load(open(args.out)) if os.path.exists(args.out) else {}
    merged[args.workload] = summary
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
