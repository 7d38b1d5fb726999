"""Record the exact workload's per-round output digests into baseline.json.

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0-20 --rounds 8

Run at the commit whose outputs are the reference (the digests are checked
by every later `exact` run with a recorded seed).  It runs the same ops as
the workload, untimed and unchecked, so it takes about as long as the
rounds themselves.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker
from spread import seed_list


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    path = worker.HERE / "baseline.json"
    baseline = worker.load_baseline()
    for seed in args.seeds:
        workload = worker.ExactWorkload(seed, {"exact_digests": {}})
        for rnd in range(args.rounds):
            ops = workload.ops(rnd, workload.prepare(rnd))
            workload.finish_round(rnd, [op.call() for op, _ in ops])
        baseline["exact_digests"][str(seed)] = workload.digests
        print(f"seed {seed}: {' '.join(workload.digests)}", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
