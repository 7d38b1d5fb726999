"""Benchmark of the wordchain package: one workload run, metrics as JSON.

    python3 perfbench/run.py --workload {verify,exact,sample} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from that
checkout's ``src/`` only; without it the run exits 2 and prints no result.
Set-up is measured in separate short-lived interpreters (SETUP_PROBES of
them plus the measured run itself) and reported as their median.  All
times are in seconds at reference CPU speed (see speed.py).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
RUN_TIMEOUT_S = 170


def run_worker(args: list[str]) -> tuple[dict, float]:
    """Start a worker interpreter; returns its JSON report and its start time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: worker did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:  # the worker's own children (verify interpreters, replica pools)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited {proc.returncode}")
    return json.loads(out.splitlines()[-1]), start


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics.  The benchmark's op
    mixes leave gaps between op kinds' latencies, where a single order
    statistic jumps from run to run; this estimate moves smoothly.
    """
    xs, n = sorted(values), len(values)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "exact", "sample"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Terminated: unwind through run_worker's clean-up, which kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "wordchain" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'wordchain'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, start = run_worker([*common, "--setup-only"])
            setups.append((probe["ready"] - start) * probe["speed"])
    raw, start = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append((raw["ready"] - start) * raw["speed"])

    problems = raw["failures"] + inputs.self_test(args.seed)
    attempted = raw["attempted"]
    failed = min(attempted, len(raw["failures"]))
    for problem in problems[:10]:
        print(f"FAIL {args.workload}: {problem}")

    if args.trace:
        values = {m["name"]: float(raw["layers"].get(m["name"], 0.0)) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        rounds = raw["latencies"]  # op latencies of each untraced round
        p90s = [quantile(lat, 0.9) for lat in rounds]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(raw["round_walls"]),
            "query_p50_ms": 1000 * statistics.median(quantile(lat, 0.5) for lat in rounds),
            "query_p90_ms": 1000 * statistics.median(p90s),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        ops = sum(len(lat) for lat in rounds)
        beyond = sum(t > p90 for lat, p90 in zip(rounds, p90s) for t in lat)
        print(f"{args.workload}: {ops} op latencies ({beyond} beyond their round's p90), "
              f"{len(raw['round_walls'])} rounds, error_rate {failed}/{attempted}, "
              f"mean CPU speed {raw['run_speed']:.3f} x reference")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
