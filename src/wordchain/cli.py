"""Command-line interface.

One binary, eleven subcommands, deterministic output: every stochastic
command derives its generators from (--seed, fixed labels), so identical
invocations produce identical bytes and adding new commands never perturbs
existing streams.  ``--jobs`` only sets the worker-pool size for Monte
Carlo replicas; the replica split is fixed, so results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import boundary as boundary_mod
from . import bridges, kernels, orders, plackett_luce, verify, words
from .errors import CapExceededError, WordchainError
from .measures import (
    CanonicalPair,
    Exponential,
    MCEstimate,
    StepMeasure,
    empirical_pair,
    format_fraction,
    parse_fraction,
    pattern_matches,
    pattern_prob_exact,
)
from .rng import derive_rng

MC_REPLICAS = 8  # fixed fan-out for Monte Carlo commands, independent of --jobs


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _format_path(path: list[str], fmt: str, seed: int) -> str:
    if fmt == "csv":
        lines = ["step,word"] + [f"{k},{w}" for k, w in enumerate(path)]
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps({"seed": seed, "path": path}, sort_keys=True)
    return "\n".join(f"{k} {words.display_word(w)}" for k, w in enumerate(path))


def _read_file(path: str, parse):
    """parse(fh) on the UTF-8 text file at `path`; a malformed file's error names it.

    Undecodable bytes, bad JSON and bad fields all raise ValueError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except ValueError as exc:
        raise WordchainError(f"{path}: {exc}") from None


def _load_pair(path: str) -> CanonicalPair:
    return _read_file(path, lambda fh: CanonicalPair.from_json(json.load(fh)))


def _parse_measure_spec(spec: str):
    """"exp:RATE" for an exponential law, otherwise a step-measure JSON file."""
    if spec.startswith("exp:"):
        return Exponential(parse_fraction(spec.split(":", 1)[1]))
    return _read_file(spec, lambda fh: StepMeasure.from_json(json.load(fh)))


def _order_sources(args):
    if args.pair:
        if args.zeta or args.eta:
            raise WordchainError("--pair excludes --zeta and --eta")
        pair = _load_pair(args.pair)
        return pair.mu, pair.nu
    if not (args.zeta and args.eta):
        raise WordchainError("provide either --pair FILE or both --zeta and --eta")
    return _parse_measure_spec(args.zeta), _parse_measure_spec(args.eta)


def _order_task(sample, sources, stat_args, count, rng):
    """Replica task for an order statistic: `sample` on a fresh order sampler."""
    return sample(orders.OrderSampler(*sources, rng), *stat_args, count)


def _replica(job: tuple) -> list:
    """One Monte Carlo replica; top-level so process pools can pickle it."""
    task, seed, label, count = job
    return task(count, derive_rng(seed, label))


def _replicate(task, trials: int, seed: int, label: str, jobs: int) -> list:
    """Samples of `task(count, rng)` over MC_REPLICAS replicas, in replica order.

    Replica i runs trials // MC_REPLICAS trials, one more for i below the
    remainder, on the generator derive_rng(seed, f"{label}/{i}").  The split
    is fixed, so ``jobs`` only sizes the process pool (never above the
    replica count) and never changes the samples.  A zero-trial call on a
    generator of its own runs the task's argument checks in this process.
    """
    task(0, derive_rng(seed, f"{label}/check"))
    per, extra = divmod(trials, MC_REPLICAS)
    work = [
        (task, seed, f"{label}/{i}", per + (i < extra))
        for i in range(MC_REPLICAS)
        if per + (i < extra)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            chunks = list(pool.map(_replica, work))
    else:
        chunks = map(_replica, work)
    return [sample for chunk in chunks for sample in chunk]


def _cmd_subword(args) -> int:
    _emit(args, str(words.subword_count(args.word, args.subword)))
    return 0


def _cmd_kernel(args) -> int:
    fns = {
        "one-step": kernels.one_step_prob,
        "multi-step": kernels.multi_step_prob,
        "dm": kernels.dm_kernel,
        "backward": kernels.backward_prob,
    }
    _emit(args, format_fraction(fns[args.quantity](args.source, args.target)))
    return 0


def _cmd_simulate(args) -> int:
    path = bridges.simulate_forward(args.steps, derive_rng(args.seed, "simulate"))
    _emit(args, _format_path(path, args.format, args.seed))
    return 0


def _cmd_bridge(args) -> int:
    path = bridges.sample_finite_bridge(args.target, derive_rng(args.seed, "bridge"))
    _emit(args, _format_path(path, args.format, args.seed))
    return 0


def _cmd_infinite_bridge(args) -> int:
    pair = _load_pair(args.pair)
    bridge = bridges.InfiniteBridge(pair, derive_rng(args.seed, "infinite-bridge"))
    bridge.extend_to(args.steps)
    _emit(args, _format_path(bridge.words, args.format, args.seed))
    return 0


def _cmd_pattern_prob(args) -> int:
    if args.word_pair is not None:
        pair = empirical_pair(args.word_pair)
    else:
        pair = _load_pair(args.pair)
    if not args.trials:
        _emit(args, format_fraction(pattern_prob_exact(pair, args.word)))
        return 0
    task = partial(pattern_matches, pair, args.word)
    estimate = MCEstimate.binomial(
        _replicate(task, args.trials, args.seed, "pattern-prob", args.jobs)
    )
    _emit_json(
        args,
        {
            "word": args.word,
            "estimate": _sig6(estimate.value),
            "stderr": _sig6(estimate.stderr),
            "trials": args.trials,
        },
    )
    return 0


def _cmd_orders(args) -> int:
    sources = _order_sources(args)
    x = orders.LabeledLetter.parse(args.x)
    if args.stat == "d":
        if not args.y:
            raise WordchainError("--stat d needs both --x and --y")
        y = orders.LabeledLetter.parse(args.y)
        task = partial(_order_task, orders.d_samples, sources, (x, y, args.depth))
    else:
        if args.y is not None:
            raise WordchainError("--y belongs to --stat d only")
        task = partial(_order_task, orders.f_samples, sources, (x, args.depth))
    estimate = MCEstimate.from_samples(
        _replicate(task, args.trials, args.seed, "orders", args.jobs)
    )
    payload = {
        "stat": args.stat,
        "x": str(x),
        "estimate": _sig6(estimate.value),
        "stderr": _sig6(estimate.stderr),
        "depth": args.depth,
        "trials": args.trials,
    }
    if args.stat == "d":
        payload["y"] = str(y)
    _emit_json(args, payload)
    return 0


def _cmd_moments(args) -> int:
    task = partial(_order_task, orders.moment_samples, _order_sources(args), (args.order,))
    samples = _replicate(task, args.trials, args.seed, "moments", args.jobs)
    mu_est = MCEstimate.from_samples([mu for mu, _ in samples])
    nu_est = MCEstimate.from_samples([nu for _, nu in samples])
    _emit_json(
        args,
        {
            "order": args.order,
            "mu_moment": _sig6(mu_est.value),
            "mu_stderr": _sig6(mu_est.stderr),
            "nu_moment": _sig6(nu_est.value),
            "nu_stderr": _sig6(nu_est.stderr),
            "trials": args.trials,
        },
    )
    return 0


def _cmd_plackett_luce(args) -> int:
    rates = plackett_luce.RatePair(parse_fraction(args.alpha), parse_fraction(args.beta))
    needed = {"prob": 1, "harmonic": 1, "transition": 2, "sample": 0}[args.action]
    if len(args.words) != needed:
        raise WordchainError(f"{args.action} takes {needed} word argument(s)")
    if args.action == "sample":
        rng = derive_rng(args.seed, "plackett-luce")
        _emit(args, plackett_luce.pl_sample(rates, args.size, rng, method=args.method))
        return 0
    exact = {"prob": pattern_prob_exact, "harmonic": bridges.harmonic_h,
             "transition": bridges.htransform_step_prob}[args.action]
    _emit(args, format_fraction(exact(rates, *args.words)))
    return 0


def _cmd_boundary(args) -> int:
    seq = _read_file(args.seq, lambda fh: [line.strip() for line in fh if line.strip()])
    pair = _load_pair(args.pair)
    report = boundary_mod.convergence_report(seq, pair, args.mmax)
    _emit_json(args, report.to_json())
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_verification()
    lines = []
    failed = 0
    total = 0
    for res in results:
        status = "OK" if res.ok else "FAIL"
        lines.append(f"{res.name}: {res.checked} identities: {status}")
        total += res.checked
        if not res.ok:
            failed += 1
            lines.extend(f"  {failure}" for failure in res.failures)
    lines.append(
        f"{len(results)} identity families, {total} identities checked, "
        f"{failed} families failing"
    )
    _emit(args, "\n".join(lines))
    return 1 if failed else 0


def _int_at_least(minimum: int):
    """argparse type for integers no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _add_order_sources(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", help="canonical pair JSON file")
    p.add_argument("--zeta", help='measure spec: "exp:RATE" or step-measure JSON path')
    p.add_argument("--eta", help='measure spec: "exp:RATE" or step-measure JSON path')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordchain",
        description="Simulate and exactly verify the growing-word Markov chain, "
        "its bridges, boundary kernels, and the Plackett-Luce special case.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument(
        "--jobs", type=_positive, default=1, help="worker processes for MC replicas"
    )

    p = sub.add_parser("subword", parents=[common], help="count subword embeddings")
    p.add_argument("word")
    p.add_argument("subword")
    p.set_defaults(fn=_cmd_subword)

    p = sub.add_parser("kernel", parents=[common], help="print an exact kernel value")
    p.add_argument("quantity", choices=["one-step", "multi-step", "dm", "backward"])
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("simulate", parents=[common], help="run the base chain forward")
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("bridge", parents=[common], help="sample a bridge to a target word")
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser(
        "infinite-bridge", parents=[common], help="simulate the h-transform of a measure pair"
    )
    p.add_argument("--pair", required=True, help="canonical pair JSON file")
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.add_argument("--emit", dest="format", choices=["csv", "json", "text"], default="csv")
    p.set_defaults(fn=_cmd_infinite_bridge)

    p = sub.add_parser(
        "pattern-prob", parents=[common], help="interleaving-pattern probability of a word"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pair", help="canonical pair JSON file")
    source.add_argument("--word-pair", help="balanced word whose empirical pair to use")
    p.add_argument("--word", required=True)
    p.add_argument(
        "--trials", type=_nonnegative, default=0, help="Monte Carlo trials (0 = exact)"
    )
    p.set_defaults(fn=_cmd_pattern_prob)

    p = sub.add_parser("orders", parents=[common], help="estimate the order metric d or map f")
    p.add_argument("--stat", choices=["d", "f"], required=True)
    p.add_argument("--x", required=True, help="labeled letter, e.g. a1")
    p.add_argument("--y", help="labeled letter (for --stat d)")
    p.add_argument("--depth", type=_positive, default=500)
    p.add_argument("--trials", type=_positive, default=1000)
    _add_order_sources(p)
    p.set_defaults(fn=_cmd_orders)

    p = sub.add_parser("moments", parents=[common], help="estimate canonical-pair moments")
    p.add_argument("--order", type=int, required=True, help="moment order n")
    p.add_argument("--trials", type=_positive, default=100_000)
    _add_order_sources(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser(
        "plackett-luce", parents=[common], help="exponential-pair bridge closed forms"
    )
    p.add_argument("--alpha", required=True, help="rate for a-letters, e.g. 2 or 3/2")
    p.add_argument("--beta", required=True, help="rate for b-letters")
    p.add_argument("action", choices=["prob", "sample", "harmonic", "transition"])
    p.add_argument("words", nargs="*", help="word arguments for prob/harmonic/transition")
    p.add_argument("--size", type=_nonnegative, default=1, help="word size for sample")
    p.add_argument("--method", choices=["sequential", "sort"], default="sequential")
    p.set_defaults(fn=_cmd_plackett_luce)

    p = sub.add_parser("boundary", parents=[common], help="convergence report for a sequence")
    p.add_argument("--seq", required=True, help="file with one word per line")
    p.add_argument("--pair", required=True, help="canonical pair JSON file")
    p.add_argument("--mmax", type=int, default=2)
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("verify", parents=[common], help="run the exact-identity suite")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.seed &= 0xFFFFFFFFFFFFFFFF  # seeds are 64-bit
    # exact values print in full: lift the int-to-str digit limit (0 means none) for this call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # _read_file wraps file errors in WordchainError; library validation still
    # raises plain ValueError, so that stays caught too
    except (WordchainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
