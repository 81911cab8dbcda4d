"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --label a

Run from the repository root. Each workload of BENCHMARK.json is run
`--runs` times, one seed after another, with the configured run length;
runs are sequential so they do not compete for the two cores. For every
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. All results go to perfbench/out/steadiness-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="a")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        runs, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            begin = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - begin)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(workload, seed, f"{walls[-1]:.1f} s", json.dumps(runs[-1]), flush=True)
        summary = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
            "run_wall_s": {"max": max(walls), "median": statistics.median(walls)},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
        report[workload] = summary
    out = HERE / "out" / f"steadiness-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    for workload, summary in report.items():
        print(f"{workload}: correct {summary['correct']}, failed share {summary['failed_share']}, run wall median {summary['run_wall_s']['median']:.1f} s, max {summary['run_wall_s']['max']:.1f} s")
        for metric in spec["end_to_end"]:
            s = summary[metric["name"]]
            print(f"  {metric['name']:<14} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
