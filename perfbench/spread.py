"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads verify exact sample --seeds 1-10 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints for every metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With --out, also writes the per-run results and summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["verify", "exact", "sample"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                              if k in bounds)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
            if name in bounds or med:
                print(f"  {workload} {name} ({metric['unit']}): median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                      f"spread {summary[name]['spread']:.3f} (bound {bounds.get(name)})")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
