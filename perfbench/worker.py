"""One workload run in one interpreter: a closed loop of ops with a single client.

Started by run.py with the package's ``src`` directory on PYTHONPATH.  The
worker builds round 0's inputs, notes the clock (the end of set-up), then
issues rounds of ops, each only after the previous op returned, until the
next round is predicted to end past ``--seconds``.  Every op's output is
checked after its timed call.  Every timed interval is reported in seconds
at reference CPU speed (see speed.py), from reference-loop timings taken in
the process that ran it.  The last line of stdout is one JSON object of
measurements that run.py turns into metrics.

With ``--trace 1`` rounds alternate between untraced and traced; traced
rounds record spans (name = module.function, start, end, op id, parent)
around the calls into the package and read its public counters, and the
spans are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SPEED = speed.Speedometer()

import wordchain  # noqa: E402  (must resolve to this checkout's src/)
from wordchain import bridges, cli, kernels, orders, plackett_luce, verify  # noqa: E402
from wordchain.boundary import convergence_report  # noqa: E402
from wordchain.measures import (  # noqa: E402
    CanonicalPair,
    Exponential,
    empirical_pair,
    pattern_distribution,
    pattern_prob_exact,
    pattern_prob_mc,
)
from wordchain.words import subword_count  # noqa: E402

FAMILIES = (  # verify.run_verification order, which is the CLI's line order
    "recurrence_closure",
    "convolution_identity",
    "matrix_exponential",
    "chapman_kolmogorov",
    "kernel_ratio_law",
    "backward_normalization",
    "bridge_conditionals",
    "pattern_normalization",
    "empirical_identity",
    "plackett_luce",
    "harmonicity",
)
VERIFY_MIN_IDENTITIES = 270_780
# Every round has the same op mix; latency quantiles are taken per round.
# Exact needs 100 queries for ten beyond p90.
EXACT_MIN_ROUNDS = 5
SAMPLE_MIN_ROUNDS = 2
VERIFY_MIN_ROUNDS = 2


def load_baseline() -> dict:
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        return json.load(fh)


def canon(result) -> str:
    """Stable text form of an exact result, for the round digest.

    Rationals are written in hex, which has no digit limit (kernel values
    on words of size 2000 run to thousands of decimal digits).
    """
    if isinstance(result, Fraction):
        return f"{result.numerator:x}/{result.denominator:x}"
    if isinstance(result, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in sorted(result.items())) + "}"
    if isinstance(result, (tuple, list)):
        return "(" + ",".join(canon(v) for v in result) + ")"
    if hasattr(result, "ratios"):  # ConvergenceReport
        return canon((result.sizes, result.ratios, result.targets, result.mu_distances, result.nu_distances))
    return repr(result)


class Trace:
    """Spans kept in memory: (name, start, end, op id, parent span index)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_kinds: dict[int, str] = {}

    def add(self, name: str, start: float, end: float, op: int | None, parent: int | None) -> int:
        self.spans.append((name, start, end, op, parent))
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        fields = ("name", "start", "end", "op", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans], "ops": self.op_kinds}, fh)


class Op:
    """One call into the package: its span name, the call, and its output check.

    ``layer`` names the per-layer busy-time metric the call counts toward;
    exact ops map several kinds onto one layer.
    """

    def __init__(self, kind: str, span: str, call, check, parallel: bool = False):
        self.kind, self.span, self.call, self.check = kind, span, call, check
        self.layer = f"{kind}.busy_s"
        self.parallel = parallel  # loads every CPU: no reference timings while it runs


# ---------------------------------------------------------------- exact


def exact_op(op: dict) -> Op:
    kind = op["kind"]
    if kind == "kernels.multi_step_prob":
        v, w = op["v"], op["w"]
        return Op(kind, kind, lambda: (kernels.multi_step_prob(v, w), kernels.multi_step_prob("", w)),
                  lambda r: checks.check_kernel_pair(r[0], r[1], v, w))
    if kind == "kernels.dm_kernel":
        v, w = op["v"], op["w"]
        return Op(kind, kind, lambda: kernels.dm_kernel(v, w), lambda r: checks.check_dm(r, v, w))
    if kind.startswith("plackett_luce."):
        rates = plackett_luce.RatePair(op["alpha"], op["beta"])
        if kind.endswith("pl_transition"):
            call = lambda: plackett_luce.pl_transition(rates, op["u"], op["v"])  # noqa: E731
        else:
            call = lambda: plackett_luce.pl_word_prob(rates, op["u"])  # noqa: E731
        return Op(kind, kind, call, lambda r: checks.check_probability(r, positive=True))
    if kind == "measures.step_pattern":
        pair, w = CanonicalPair.from_json(op["pair"]), op["w"]
        return Op(kind, "measures.pattern_prob_exact", lambda: pattern_prob_exact(pair, w),
                  lambda r: checks.check_probability(r, positive=False))
    if kind == "measures.atomic_pattern":
        y, w = op["y"], op["w"]
        return Op(kind, "measures.pattern_prob_exact", lambda: pattern_prob_exact(empirical_pair(y), w),
                  lambda r: checks.check_atomic(r, y, w))
    if kind == "measures.pattern_distribution":
        pair, m = CanonicalPair.from_json(op["pair"]), op["m"]
        return Op(kind, kind, lambda: pattern_distribution(pair, m),
                  lambda r: checks.check_law(r, checks.balanced_words(m), "pattern law"))
    if kind == "bridges.htransform_row":
        pair, u = CanonicalPair.from_json(op["pair"]), op["u"]
        return Op(kind, kind, lambda: bridges.htransform_row(pair, u),
                  lambda r: checks.check_law(r, None, "h-transform row"))
    pair, seq, m_max = CanonicalPair.from_json(op["pair"]), op["seq"], op["m_max"]
    return Op(kind, kind, lambda: convergence_report(seq, pair, m_max),
              lambda r: checks.check_report(r, seq, m_max))


def exact_work(op: dict) -> dict[str, int]:
    """Work counts computed from the inputs (not read from the package)."""
    kind = op["kind"]
    if kind in ("kernels.multi_step_prob", "kernels.dm_kernel"):
        return {"kernels.calls": 2 if kind.endswith("multi_step_prob") else 1}
    if kind in ("measures.step_pattern", "measures.pattern_distribution"):
        m = inputs.STEP_M if kind == "measures.step_pattern" else op["m"]
        words = 1 if kind == "measures.step_pattern" else math.comb(2 * m, m)
        cells = words * op["cells"] * (2 * m + 1) * (2 * m + 2) // 2
        return {"measures.step_pattern.calls": words, "measures.step_pattern.dp_cells": cells}
    if kind == "measures.atomic_pattern":
        big_n, m = len(op["y"]) // 2, len(op["w"]) // 2
        return {"measures.atomic_pattern.calls": 1, "measures.atomic_pattern.subsets": math.comb(big_n, m) ** 2}
    return {}


EXACT_LAYERS = {
    "kernels.multi_step_prob": "kernels.busy_s",
    "kernels.dm_kernel": "kernels.busy_s",
    "plackett_luce.pl_word_prob": "plackett_luce.closed_form.busy_s",
    "plackett_luce.pl_transition": "plackett_luce.closed_form.busy_s",
    "measures.step_pattern": "measures.step_pattern.busy_s",
    "measures.pattern_distribution": "measures.step_pattern.busy_s",
    "measures.atomic_pattern": "measures.atomic_pattern.busy_s",
    "bridges.htransform_row": "bridges.htransform_row.busy_s",
    "boundary.convergence_report": "boundary.convergence_report.busy_s",
}


class ExactWorkload:
    min_rounds = EXACT_MIN_ROUNDS

    def __init__(self, seed: int, baseline: dict):
        self.seed = seed
        self.recorded = baseline["exact_digests"].get(str(seed), [])
        self.digests: list[str] = []

    def prepare(self, rnd: int):
        return inputs.exact_round(self.seed, rnd)

    def ops(self, rnd: int, data) -> list[tuple[Op, dict]]:
        out = []
        for op in data:
            call = exact_op(op)
            call.layer = EXACT_LAYERS[op["kind"]]
            out.append((call, exact_work(op)))
        return out

    def finish_round(self, rnd: int, results: list) -> list[str]:
        text = "\n".join(canon(r) for r in results)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.digests.append(digest)
        if rnd < len(self.recorded) and self.recorded[rnd] != digest:
            return [f"round {rnd}: exact outputs differ from the seed-commit digest"]
        return []


# ---------------------------------------------------------------- sample


def _cli_json(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_json(code: int, text: str) -> dict | None:
    return json.loads(text) if code == 0 else None


def _cli_path_check(code: int, text: str, steps: int) -> str | None:
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != "step,word":
        return f"infinite-bridge exited {code} or printed no csv header"
    return checks.check_path([line.split(",", 1)[1] for line in lines[1:]], steps)


def sample_ops(data: dict, pair_file: Path) -> list[Op]:
    pair = CanonicalPair.from_json(data["pair"])
    streams = [random.Random(s) for s in data["streams"][:12]]
    cli_seeds = [str(s) for s in data["streams"][12:]]
    depth, trials, mc_trials = inputs.ORDER_DEPTH, inputs.ORDER_TRIALS, inputs.MC_TRIALS
    a1, b1, a2 = orders.LabeledLetter("a", 1), orders.LabeledLetter("b", 1), orders.LabeledLetter("a", 2)
    d_truth = float(checks.expected_d(data["pair"], depth))
    f_truth = float(checks.expected_f_exp(1, 2, "a", depth))
    exp_moments = [float(x) for x in checks.exp_pair_moments(1, 2, inputs.MOMENT_ORDER)]
    pattern = data["pattern"]
    rates = plackett_luce.RatePair(*data["rates"])
    path = data["path"]
    ops: list[Op] = []

    for k, n in enumerate(inputs.IB_SIZES):
        def grow(n=n, rng=streams[k]):
            bridge = bridges.InfiniteBridge(pair, rng)
            bridge.extend_to(n)
            return bridge

        def check_bridge(b, n=n):
            return checks.check_infinite_bridge([b.word(j) for j in range(n + 1)], b.x_samples, b.y_samples, n)

        ops.append(Op(f"bridges.infinite_bridge.n{n}", "bridges.InfiniteBridge.extend_to", grow, check_bridge))

    ops.append(Op("bridges.simulate_forward", "bridges.simulate_forward",
                  lambda: bridges.simulate_forward(inputs.FORWARD_STEPS, streams[3]),
                  lambda p: checks.check_path(p, inputs.FORWARD_STEPS)))
    target = data["finite_target"]
    ops.append(Op("bridges.finite_bridge", "bridges.sample_finite_bridge",
                  lambda: bridges.sample_finite_bridge(target, streams[4]),
                  lambda p: checks.check_path(p, inputs.FINITE_TARGET, target)))
    ops.append(Op("orders.estimate_d", "orders.estimate_d",
                  lambda: orders.estimate_d(orders.OrderSampler.from_pair(pair, streams[5]), a1, b1, depth, trials),
                  lambda e: checks.within(e.value, d_truth, e.stderr, "d(a1, b1)")))
    ops.append(Op("orders.estimate_f", "orders.estimate_f",
                  lambda: orders.estimate_f(orders.OrderSampler(Exponential(1), Exponential(2), streams[6]),
                                            a2, depth, trials),
                  lambda e: checks.within(e.value, f_truth, e.stderr, "f(a2)")))
    mu_moment = float(pair.mu.moment(inputs.MOMENT_ORDER))
    nu_moment = float(pair.nu.moment(inputs.MOMENT_ORDER))
    ops.append(Op("orders.moment_estimate", "orders.moment_estimate",
                  lambda: orders.moment_estimate(orders.OrderSampler.from_pair(pair, streams[7]),
                                                 inputs.MOMENT_ORDER, mc_trials),
                  lambda r: checks.within(r[0].value, mu_moment, r[0].stderr, "mu moment")
                  or checks.within(r[1].value, nu_moment, r[1].stderr, "nu moment")))
    p_exact = float(pattern_prob_exact(pair, pattern))
    p_se = checks.binomial_stderr(p_exact, mc_trials)
    ops.append(Op("measures.pattern_mc", "measures.pattern_prob_mc",
                  lambda: pattern_prob_mc(pair, pattern, mc_trials, streams[8]),
                  lambda e: checks.within(e.value, p_exact, p_se, "pattern frequency")))
    for k, method in enumerate(("sequential", "sort")):
        ops.append(Op("plackett_luce.pl_sample", "plackett_luce.pl_sample",
                      lambda method=method, rng=streams[9 + k]: plackett_luce.pl_sample(rates, inputs.PL_SIZE, rng, method),
                      lambda w: checks.check_balanced(w, inputs.PL_SIZE)))
    ops.append(Op("orders.label_uniformly", "orders.label_uniformly",
                  lambda: orders.label_uniformly(path, streams[11]),
                  lambda r: checks.check_labels(r, path)))

    jobs = ["--jobs", str(inputs.CLI_JOBS)]
    orders_argv = ["orders", "--stat", "d", "--x", "a1", "--y", "b1", "--depth", str(depth),
                   "--trials", str(trials), "--pair", str(pair_file), "--seed", cli_seeds[0]] + jobs
    moments_argv = ["moments", "--order", str(inputs.MOMENT_ORDER), "--trials", str(mc_trials),
                    "--zeta", "exp:1", "--eta", "exp:2", "--seed", cli_seeds[1]] + jobs
    pattern_argv = ["pattern-prob", "--pair", str(pair_file), "--word", pattern, "--trials", str(mc_trials),
                    "--seed", cli_seeds[2]] + jobs
    bridge_argv = ["infinite-bridge", "--pair", str(pair_file), "--steps", str(inputs.CLI_BRIDGE_STEPS),
                   "--seed", cli_seeds[3]]

    def check_cli_orders(r):
        out = _parse_json(*r)
        return "orders failed" if out is None else checks.within(out["estimate"], d_truth, out["stderr"], "cli d")

    def check_cli_moments(r):
        out = _parse_json(*r)
        if out is None:
            return "moments failed"
        return (checks.within(out["mu_moment"], exp_moments[0], out["mu_stderr"], "cli mu moment")
                or checks.within(out["nu_moment"], exp_moments[1], out["nu_stderr"], "cli nu moment"))

    def check_cli_pattern(r):
        out = _parse_json(*r)
        return "pattern-prob failed" if out is None else checks.within(out["estimate"], p_exact, p_se, "cli pattern")

    ops.append(Op("cli.orders", "cli.main", lambda: _cli_json(orders_argv), check_cli_orders, True))
    ops.append(Op("cli.moments", "cli.main", lambda: _cli_json(moments_argv), check_cli_moments, True))
    ops.append(Op("cli.pattern_mc", "cli.main", lambda: _cli_json(pattern_argv), check_cli_pattern, True))
    ops.append(Op("cli.infinite_bridge", "cli.main", lambda: _cli_json(bridge_argv),
                  lambda r: _cli_path_check(*r, inputs.CLI_BRIDGE_STEPS)))
    return ops


class SampleWorkload:
    min_rounds = SAMPLE_MIN_ROUNDS

    def __init__(self, seed: int, baseline: dict):
        self.seed = seed

    def prepare(self, rnd: int):
        data = inputs.sample_round(self.seed, rnd)
        WORK.mkdir(exist_ok=True)
        pair_file = WORK / f"pair-{os.getpid()}-{rnd}.json"
        with open(pair_file, "w", encoding="utf-8") as fh:
            json.dump(data["pair"], fh)
        return data, pair_file

    def ops(self, rnd: int, prepared) -> list[tuple[Op, dict]]:
        data, pair_file = prepared
        return [(op, {}) for op in sample_ops(data, pair_file)]

    def finish_round(self, rnd: int, results: list) -> list[str]:
        (WORK / f"pair-{os.getpid()}-{rnd}.json").unlink(missing_ok=True)
        return []


# ---------------------------------------------------------------- verify


def run_child(argv: list[str]) -> tuple[int, str, float]:
    """Run a child interpreter; returns (exit code, stdout, peak RSS in MiB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def child_samples(path: Path) -> list:
    """The reference-loop timings a verify child wrote, or none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return []
    finally:
        path.unlink(missing_ok=True)


def check_verify_output(code: int, text: str, floors: dict) -> str | None:
    lines = text.splitlines()
    families = [ln for ln in lines if ln.endswith((" identities: OK", " identities: FAIL"))]
    if code != 0 or not lines or not lines[-1].endswith(" 0 families failing"):
        return f"verify exited {code} or reported failing families"
    if len(families) != len(FAMILIES):
        return f"verify reported {len(families)} families, expected {len(FAMILIES)}"
    counts = [int(ln.rsplit(": ", 2)[1].split()[0]) for ln in families]
    for fam, count in zip(FAMILIES, counts):
        if count < floors[fam]:
            return f"verify family {fam} checked {count} identities, below its floor {floors[fam]}"
    if sum(counts) < VERIFY_MIN_IDENTITIES:
        return f"verify checked {sum(counts)} identities, fewer than {VERIFY_MIN_IDENTITIES}"
    return None


def verify_families() -> None:
    """Traced form of `verify`: each family called and timed in this fresh interpreter."""
    out = {}
    SPEED.start()
    for fam in FAMILIES:
        start = time.perf_counter()
        res = getattr(verify, f"check_{fam}")()
        out[fam] = {"start": start, "end": time.perf_counter(), "identities": res.checked, "ok": res.ok}
    SPEED.stop()
    info = subword_count.cache_info()
    print(json.dumps({"families": out, "hits": info.hits, "misses": info.misses, "samples": SPEED.samples}))


# ---------------------------------------------------------------- the loop


def median(values):
    return statistics.median(values) if values else 0.0


def run_verify(args, baseline: dict, ready: float, trace: Trace | None) -> dict:
    floors = baseline["verify_floors"]
    WORK.mkdir(exist_ok=True)
    samples_file = WORK / f"speed-{os.getpid()}.json"
    cli_argv = [sys.executable, str(HERE / "cold_cli.py"), str(samples_file), "verify"]
    traced_argv = [sys.executable, str(HERE / "worker.py"), "--verify-families"]
    attempted, failures, walls, traced_walls, rss = 0, [], [], [], []
    layer: dict[str, float] = {}
    spans: dict[str, list[tuple[float, float]]] = {}
    rnd = 0
    while True:
        elapsed = time.perf_counter() - ready
        unit = median([b - a for a, b in walls + traced_walls])
        if rnd >= VERIFY_MIN_ROUNDS and elapsed + unit > args.seconds:
            break
        traced = trace is not None and rnd % 2 == 1
        start = time.perf_counter()
        code, out, peak = run_child(traced_argv if traced else cli_argv)
        end = time.perf_counter()
        attempted += 1
        if traced:
            traced_walls.append((start, end))
            parent = trace.add("verify.run_verification", start, end, rnd, None)
            trace.op_kinds[rnd] = "verify"
            try:
                data = json.loads(out.splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"traced verify exited {code} without a report")
                data = {"families": {}, "hits": 0, "misses": 0, "samples": []}
            SPEED.merge(data["samples"])
            for fam, rec in data["families"].items():
                trace.add(f"verify.check_{fam}", rec["start"], rec["end"], rnd, parent)
                spans.setdefault(f"verify.{fam}.busy_s", []).append((rec["start"], rec["end"]))
                if not rec["ok"] or rec["identities"] < floors[fam]:
                    failures.append(f"traced verify family {fam} failed or fell below its floor")
                layer.setdefault(f"verify.{fam}.identities", rec["identities"])
            layer.setdefault("words.subword_count.hits", data["hits"])
            layer.setdefault("words.subword_count.misses", data["misses"])
        else:
            SPEED.merge(child_samples(samples_file))
            walls.append((start, end))
            rss.append(peak)
            problem = check_verify_output(code, out, floors)
            if problem:
                failures.append(problem)
        rnd += 1
    if not SPEED.samples:
        raise SystemExit("error: no verify child wrote reference-loop timings")
    walls = [SPEED.scaled(a, b) for a, b in walls]
    for name, values in spans.items():
        layer[name] = median([SPEED.scaled(a, b) for a, b in values])
    if trace is not None:
        layer["trace.overhead_s"] = median([SPEED.scaled(a, b) for a, b in traced_walls]) - median(walls)
    return {"attempted": attempted, "failures": failures, "latencies": [[w] for w in walls],
            "round_walls": walls, "peak_rss_mb": max(rss), "layers": layer}


def run_rounds(workload, args, ready: float, prepared, trace: Trace | None) -> dict:
    attempted, failures, round_times = 0, [], []
    timed: list[tuple[int, bool, str, float, float]] = []  # (round, traced, layer, start, end)
    counts: dict[str, int] = {}
    peak_rss = None
    least = 2 if trace is not None else workload.min_rounds
    rnd = op_id = 0
    while True:
        round_start = time.perf_counter()
        if rnd:
            if rnd >= least and round_start - ready + median(round_times) > args.seconds:
                break
            prepared = workload.prepare(rnd)
        traced = trace is not None and rnd % 2 == 1
        counted = traced and rnd == 1
        parent = trace.add("round", round_start, round_start, None, None) if traced else None
        cache_before = subword_count.cache_info()
        results = []
        for op, work in workload.ops(rnd, prepared):
            attempted += 1
            try:
                with SPEED.paused() if op.parallel else contextlib.nullcontext():
                    start = time.perf_counter()
                    try:
                        result = op.call()
                    finally:
                        end = time.perf_counter()
            except Exception as exc:  # an op that raises is a failed op; keep the loop running
                failures.append(f"round {rnd} {op.kind}: {type(exc).__name__}: {exc}")
                result = None
            else:
                problem = op.check(result)
                if problem:
                    failures.append(f"round {rnd} {op.kind}: {problem}")
            timed.append((rnd, traced, op.layer, start, end))
            results.append(result)
            if traced:
                trace.add(op.span, start, end, op_id, parent)
                trace.op_kinds[op_id] = op.kind
                if counted:
                    for key, value in work.items():
                        counts[key] = counts.get(key, 0) + value
            op_id += 1
        failures.extend(workload.finish_round(rnd, results))
        if traced:
            trace.spans[parent] = ("round", round_start, time.perf_counter(), None, None)
            if counted:
                cache_after = subword_count.cache_info()
                counts["words.subword_count.hits"] = cache_after.hits - cache_before.hits
                counts["words.subword_count.misses"] = cache_after.misses - cache_before.misses
        if peak_rss is None:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del results
        round_times.append(time.perf_counter() - round_start)
        rnd += 1
    SPEED.stop()

    latencies: dict[int, list[float]] = {}
    walls: dict[int, float] = {}
    traced_walls: dict[int, float] = {}
    sums: dict[tuple[int, str], float] = {}
    for r, traced, layer, start, end in timed:
        t = SPEED.scaled(start, end)
        if traced:
            traced_walls[r] = traced_walls.get(r, 0.0) + t
            sums[r, layer] = sums.get((r, layer), 0.0) + t
        else:
            walls[r] = walls.get(r, 0.0) + t
            latencies.setdefault(r, []).append(t)
    busy: dict[str, list[float]] = {}
    for (_, layer), total in sums.items():
        busy.setdefault(layer, []).append(total)
    layers = {name: median(values) for name, values in busy.items()}
    layers.update(counts)
    if trace is not None:
        layers["trace.overhead_s"] = median(list(traced_walls.values())) - median(list(walls.values()))
        ib = [(n, layers.get(f"bridges.infinite_bridge.n{n}.busy_s")) for n in inputs.IB_SIZES]
        if all(t for _, t in ib):
            layers["bridges.infinite_bridge.exponent"] = loglog_slope(ib)
        if layers.get("cli.orders.busy_s"):
            layers["cli.pool_speedup"] = layers["orders.estimate_d.busy_s"] / layers["cli.orders.busy_s"]
    return {"attempted": attempted, "failures": failures, "latencies": list(latencies.values()),
            "round_walls": list(walls.values()), "peak_rss_mb": peak_rss, "layers": layers}


def loglog_slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


WORKLOADS = {"exact": ExactWorkload, "sample": SampleWorkload}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["verify", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--verify-families", action="store_true")
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if Path(wordchain.__file__).resolve().parent.parent != src:
        print(f"error: wordchain imported from {wordchain.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.verify_families:
        verify_families()
        return 0
    baseline = load_baseline()
    workload = WORKLOADS[args.workload](args.seed, baseline) if args.workload != "verify" else None
    prepared = workload.prepare(0) if workload else None
    ready = time.perf_counter()
    SPEED.ticks(speed.PRIME)  # the speed at the end of set-up scales set-up time
    setup_speed = SPEED.speed()
    if args.setup_only:
        if workload:
            workload.finish_round(0, [])
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0
    trace = Trace() if args.trace else None
    if workload is None:
        out = run_verify(args, baseline, ready, trace)
    else:
        SPEED.start()
        out = run_rounds(workload, args, ready, prepared, trace)
    if trace is not None:
        trace.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    out["ready"] = ready
    out["speed"] = setup_speed
    out["run_speed"] = SPEED.speed()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
