"""Command-line interface.

One binary, eleven subcommands, deterministic output: every stochastic
command derives its generators from (--seed, fixed labels), so identical
invocations produce identical bytes and adding new commands never perturbs
existing streams.  ``--jobs`` only sizes the worker pool; its default is
set where the pool is sized: 1 (serial) for Monte Carlo replicas, the
usable CPUs (at most one per family) for ``verify``.  The replica split
and the report order are fixed, so results do not depend on it.  Only a
pool of two or more workers imports the process pool.

Each ``_cmd_*`` function returns its output and writes nothing: a string,
or a dict printed as indented JSON with sorted keys (``verify`` also returns
its exit code).  ``main`` is the one output path: it writes that text and
one newline to stdout, or to the ``--out`` file, and picks the exit code.

argparse parses each integer flag; ``words.check_count`` checks its range,
in the library call that reads it (here for ``--jobs`` and ``--trials``).
Every error, the parser's included, prints as one line
``error: <message>`` on stderr: exit 3 for a size cap, otherwise 2.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
from collections.abc import Sequence
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
    pattern_matches,
    pattern_prob_exact,
)
from .rng import derive_rng

MC_REPLICAS = 8  # fixed fan-out for Monte Carlo commands, independent of --jobs


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _format_path(path: list[str], fmt: str, seed: int) -> str:
    if fmt == "csv":
        lines = ["step,word"] + [f"{k},{w}" for k, w in enumerate(path)]
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps({"seed": seed, "path": path}, sort_keys=True)
    return "\n".join(f"{k} {words.display_word(w)}" for k, w in enumerate(path))


def _read_file(path: str, parse):
    """parse(fh) on the UTF-8 text file at `path`; a malformed file's error names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, WordchainError) as exc:
        # a WordchainError keeps its class, so a size cap inside a file still exits 3
        cls = type(exc) if isinstance(exc, WordchainError) else WordchainError
        raise cls(f"{path}: {exc}") from None


def _read_json(path: str, build):
    """build(data) for the JSON file at `path`; its integers load as Decimal, at any size."""
    return _read_file(path, lambda fh: build(json.load(fh, parse_int=decimal.Decimal)))


def _parse_measure_spec(spec: str):
    """"exp:RATE" for an exponential law, otherwise a step-measure JSON file."""
    if spec.startswith("exp:"):
        return Exponential(spec.removeprefix("exp:"))
    return _read_json(spec, StepMeasure.from_json)


def _order_sources(args):
    if args.pair:
        if args.zeta or args.eta:
            raise WordchainError("--pair excludes --zeta and --eta")
        pair = _read_json(args.pair, CanonicalPair.from_json)
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


def _pool_map(fn, items: Sequence, jobs: int) -> list:
    """[fn(item) for item in items], on min(jobs, len(items)) worker processes.

    With fewer than two workers it runs in this process and leaves the pool
    unimported.  Results come back in item order and an exception raised by
    fn propagates, on either path; fn must be top-level so the pool can
    pickle it.  The workers start by fork where the platform has it, unless
    a start method was set explicitly (multiprocessing.set_start_method):
    Python 3.14 makes forkserver the Linux default, and forkserver or spawn
    workers import the package afresh, about 0.14 s more per cold verify.
    The CLI starts no thread, so forking it is safe.
    """
    workers = min(jobs, len(items))
    if workers < 2:
        return list(map(fn, items))
    import multiprocessing  # only pool runs pay these imports
    from concurrent.futures import ProcessPoolExecutor

    context = None  # the method set explicitly, or the platform default
    if (multiprocessing.get_start_method(allow_none=True) is None
            and "fork" in multiprocessing.get_all_start_methods()):
        context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate(task, trials: int, seed: int, label: str, jobs: int | None) -> list:
    """Samples of `task(count, rng)` over MC_REPLICAS replicas, in replica order.

    Replica i runs trials // MC_REPLICAS trials (a count of at least 1), one
    more for i below the remainder, on the generator derive_rng(seed,
    f"{label}/{i}").  The split is fixed, so ``jobs`` (None: 1) only sizes
    the process pool (never above the replica count) and never changes the
    samples.  A zero-trial call on a generator of its own runs the task's
    argument checks in this process, and compiles any step quantile map the
    task needs before the pool forks.
    """
    trials = words.check_count(trials, "trials", 1)
    task(0, derive_rng(seed, f"{label}/check"))
    per, extra = divmod(trials, MC_REPLICAS)
    work = [
        (task, seed, f"{label}/{i}", per + (i < extra))
        for i in range(MC_REPLICAS)
        if per + (i < extra)
    ]
    return [sample for chunk in _pool_map(_replica, work, jobs or 1) for sample in chunk]


def _estimate(estimate: MCEstimate, **fields) -> dict:
    """A Monte Carlo payload: the estimate and its stderr to six digits, plus `fields`."""
    return {"estimate": _sig6(estimate.value), "stderr": _sig6(estimate.stderr), **fields}


def _cmd_subword(args) -> str:
    return format_fraction(words.subword_count(args.word, args.subword))


def _cmd_kernel(args) -> str:
    fns = {
        "one-step": kernels.one_step_prob,
        "multi-step": kernels.multi_step_prob,
        "dm": kernels.dm_kernel,
        "backward": kernels.backward_prob,
    }
    return format_fraction(fns[args.quantity](args.source, args.target))


def _cmd_simulate(args) -> str:
    path = bridges.simulate_forward(args.steps, derive_rng(args.seed, "simulate"))
    return _format_path(path, args.format, args.seed)


def _cmd_bridge(args) -> str:
    path = bridges.sample_finite_bridge(args.target, derive_rng(args.seed, "bridge"))
    return _format_path(path, args.format, args.seed)


def _cmd_infinite_bridge(args) -> str:
    pair = _read_json(args.pair, CanonicalPair.from_json)
    bridge = bridges.InfiniteBridge(pair, derive_rng(args.seed, "infinite-bridge"))
    bridge.extend_to(args.steps)
    return _format_path(bridge.words, args.format, args.seed)


def _cmd_pattern_prob(args) -> str | dict:
    words.check_count(args.trials, "trials")  # 0 trials: the exact value
    if args.word_pair is not None:
        pair = empirical_pair(args.word_pair)
    else:
        pair = _read_json(args.pair, CanonicalPair.from_json)
    if not args.trials:
        return format_fraction(pattern_prob_exact(pair, args.word))
    task = partial(pattern_matches, pair, args.word)
    estimate = MCEstimate.from_samples(
        _replicate(task, args.trials, args.seed, "pattern-prob", args.jobs)
    )
    return _estimate(estimate, word=args.word, trials=args.trials)


def _cmd_orders(args) -> dict:
    sources = _order_sources(args)
    x = orders.LabeledLetter.parse(args.x)
    fields = {"stat": args.stat, "x": str(x), "depth": args.depth, "trials": args.trials}
    if args.stat == "d":
        if not args.y:
            raise WordchainError("--stat d needs both --x and --y")
        y = orders.LabeledLetter.parse(args.y)
        fields["y"] = str(y)
        task = partial(_order_task, orders.d_samples, sources, (x, y, args.depth))
    else:
        if args.y is not None:
            raise WordchainError("--y belongs to --stat d only")
        task = partial(_order_task, orders.f_samples, sources, (x, args.depth))
    estimate = MCEstimate.from_samples(
        _replicate(task, args.trials, args.seed, "orders", args.jobs)
    )
    return _estimate(estimate, **fields)


def _cmd_moments(args) -> dict:
    task = partial(_order_task, orders.moment_samples, _order_sources(args), (args.order,))
    samples = _replicate(task, args.trials, args.seed, "moments", args.jobs)
    payload = {"order": args.order, "trials": args.trials}
    for side, estimate in zip(("mu", "nu"), orders.split_moments(samples)):
        payload[f"{side}_moment"] = _sig6(estimate.value)
        payload[f"{side}_stderr"] = _sig6(estimate.stderr)
    return payload


def _cmd_plackett_luce(args) -> str:
    words.check_count(args.size, "word size")  # whatever the action
    rates = plackett_luce.RatePair(args.alpha, args.beta)
    needed = {"prob": 1, "harmonic": 1, "transition": 2, "sample": 0}[args.action]
    if len(args.words) != needed:
        raise WordchainError(f"{args.action} takes {needed} word argument(s)")
    if args.action == "sample":
        rng = derive_rng(args.seed, "plackett-luce")
        return plackett_luce.pl_sample(rates, args.size, rng, method=args.method)
    exact = {"prob": pattern_prob_exact, "harmonic": bridges.harmonic_h,
             "transition": bridges.htransform_step_prob}[args.action]
    return format_fraction(exact(rates, *args.words))


def _cmd_boundary(args) -> dict:
    seq = _read_file(args.seq, lambda fh: [line.strip() for line in fh if line.strip()])
    pair = _read_json(args.pair, CanonicalPair.from_json)
    return boundary_mod.convergence_report(seq, pair, args.mmax).to_json()


def _cmd_verify(args) -> tuple[str, int]:
    # the pool takes the longest families first; the report keeps FAMILIES order
    order = verify._LONGEST_FIRST
    done = dict(zip(order, _pool_map(verify.run_family, order, args.jobs or _usable_cpus())))
    results = [done[name] for name in verify.FAMILIES]
    lines = []
    for res in results:
        lines.append(f"{res.name}: {res.checked} identities: {'OK' if res.ok else 'FAIL'}")
        lines.extend(f"  {failure}" for failure in res.failures)
    failed = sum(not res.ok for res in results)
    lines.append(
        f"{len(results)} identity families, {sum(res.checked for res in results)} "
        f"identities checked, {failed} families failing"
    )
    return "\n".join(lines), 1 if failed else 0


def _add_order_sources(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", help="canonical pair JSON file")
    p.add_argument("--zeta", help='measure spec: "exp:RATE" or step-measure JSON path')
    p.add_argument("--eta", help='measure spec: "exp:RATE" or step-measure JSON path')


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print as main's do: one `error:` line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # add_subparsers builds each subcommand's parser as a _Parser too
    parser = _Parser(
        prog="wordchain",
        description="Simulate and exactly verify the growing-word Markov chain, "
        "its bridges, boundary kernels, and the Plackett-Luce special case.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    jobs_help = "worker processes (default 1; verify: the usable CPUs, at most one per family)"
    common.add_argument("--jobs", type=int, help=jobs_help)

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
    p.add_argument("--steps", type=int, required=True)
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
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--emit", dest="format", choices=["csv", "json", "text"], default="csv")
    p.set_defaults(fn=_cmd_infinite_bridge)

    p = sub.add_parser(
        "pattern-prob", parents=[common], help="interleaving-pattern probability of a word"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pair", help="canonical pair JSON file")
    source.add_argument("--word-pair", help="balanced word whose empirical pair to use")
    p.add_argument("--word", required=True)
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = exact)")
    p.set_defaults(fn=_cmd_pattern_prob)

    p = sub.add_parser("orders", parents=[common], help="estimate the order metric d or map f")
    p.add_argument("--stat", choices=["d", "f"], required=True)
    p.add_argument("--x", required=True, help="labeled letter, e.g. a1")
    p.add_argument("--y", help="labeled letter (for --stat d)")
    p.add_argument("--depth", type=int, default=500)
    p.add_argument("--trials", type=int, default=1000)
    _add_order_sources(p)
    p.set_defaults(fn=_cmd_orders)

    p = sub.add_parser("moments", parents=[common], help="estimate canonical-pair moments")
    p.add_argument("--order", type=int, required=True, help="moment order n")
    p.add_argument("--trials", type=int, default=100_000)
    _add_order_sources(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser(
        "plackett-luce", parents=[common], help="exponential-pair bridge closed forms"
    )
    p.add_argument("--alpha", required=True, help="rate for a-letters, e.g. 2 or 3/2")
    p.add_argument("--beta", required=True, help="rate for b-letters")
    p.add_argument("action", choices=["prob", "sample", "harmonic", "transition"])
    p.add_argument("words", nargs="*", help="word arguments for prob/harmonic/transition")
    p.add_argument("--size", type=int, default=1, help="word size for sample")
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
    try:
        if args.jobs is not None:
            words.check_count(args.jobs, "jobs", 1)
        output = args.fn(args)
        output, code = output if isinstance(output, tuple) else (output, 0)
        if isinstance(output, dict):
            output = json.dumps(output, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
        else:
            sys.stdout.write(output + "\n")
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (WordchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
