"""Plant one known fault at a time in a copy of the repo and check that the tests see it.

Usage: python tools/mutants.py

Each entry of MUTANTS names a file under src/, an exact source text that
occurs there once, its replacement, and the test files that should fail
with it.  Per entry the tool copies the repo (without .git) to a temporary
directory, applies the one replacement, runs ``python -m pytest -x -q`` on
the named files with that copy's src first on PYTHONPATH, and prints
killed or survived with the seconds taken and the first failing test.
An entry with a reason is an equivalent mutant, which no test can kill.
The exit status is 1 when a non-equivalent mutant survives or an entry no
longer applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repo root, under src/
    source: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # relative to the repo root
    equivalent: str | None = None  # why no test can kill it


SCALE = ("tests/test_identities_at_scale.py",)

MUTANTS = (
    Mutant("band-dp-stop", "src/wordchain/words.py",
           "i - d if i > d else 0, -1):", "i - d + 1 if i > d else 0, -1):", SCALE),
    Mutant("band-dp-start", "src/wordchain/words.py",
           "range(i + 1 if i < k else k,", "range(i if i < k else k,", SCALE),
    Mutant("one-step-suffix-bound", "src/wordchain/words.py",
           "first_hi = k + 1 - _agreement(", "first_hi = k + 2 - _agreement(", SCALE),
    Mutant("one-step-run-start", "src/wordchain/words.py",
           "start = first_hi - 1 - _agreement(", "start = first_hi - _agreement(", SCALE),
    Mutant("position-dp-order", "src/wordchain/words.py",
           "for j in range(k, 0, -1):\n        holding",
           "for j in range(1, k + 1):\n        holding", SCALE),
    Mutant("walk-pick-table", "src/wordchain/words.py",
           "letter_positions(y, d), count()))", "letter_positions(y, d), count(1)))", SCALE),
    Mutant("packed-letter-mask", "src/wordchain/words.py",
           "on_a ^ (((1 << 8 * k) - 1) << 8)", "on_a ^ ((1 << 8 * k) - 1)",
           ("tests/test_words.py",)),
    Mutant("packed-fields-mask", "src/wordchain/words.py",
           'fields.translate(_LETTER_MASKS["b"]), "little"))',
           'fields.translate(_LETTER_MASKS["b"]), "little") >> 8)',
           ("tests/test_words.py",)),
    Mutant("walk-same-letter-child", "src/wordchain/words.py",
           "(child, cum[:-1] if child[-1] == x[-1]", "(child, cum[1:] if child[-1] == x[-1]",
           ("tests/test_words.py",)),
    Mutant("step-trie-horner", "src/wordchain/measures.py",
           "acc = (acc + c * prefix[k]) * mass[letter]", "acc = acc + c * prefix[k] * mass[letter]",
           ("tests/test_measures.py",)),
    Mutant("step-map-compare", "src/wordchain/measures.py",
           "if u < C{mid} else", "if u <= C{mid} else",
           ("tests/test_measures.py", "tests/test_block_draws.py")),
    Mutant("step-map-bisect", "src/wordchain/measures.py",
           "bisect_right = bisect.bisect_right\n        return lambda us: [L[",
           "bisect_right = bisect.bisect_left\n        return lambda us: [L[",
           ("tests/test_measures.py",)),
    Mutant("step-map-bisect-from-0", "src/wordchain/measures.py",
           "bisect_right(C, u, 1, size) - 1)]", "bisect_right(C, u, 0, size) - 1)]",
           ("tests/test_measures.py",),
           equivalent="C[0] is 0.0, so bisect_right never stops at index 0 for a uniform u >= 0"),
    Mutant("exponential-map", "src/wordchain/measures.py",
           "[-log(1.0 - u) / rate for u in us]", "[-log(u) / rate for u in us]",
           ("tests/test_measures.py",)),
    Mutant("empirical-dist-left-limit", "src/wordchain/measures.py",
           "range(0, n * one, one)", "range(one, (n + 1) * one, one)",
           ("tests/test_measures.py",)),
    Mutant("canonicalize-slope", "src/wordchain/measures.py",
           "slope = (dz + de) / 2", "slope = max(dz, de)", ("tests/test_measures.py",)),
    Mutant("value-rows-replay-start", "src/wordchain/measures.py",
           "itertools.chain(us[t * width:],", "itertools.chain(us[(t + 1) * width:],",
           ("tests/test_block_draws.py", "tests/test_streams.py")),
    Mutant("replicate-remainder", "src/wordchain/cli.py",
           'f"{label}/{i}", per + (i < extra))', 'f"{label}/{i}", per + (i <= extra))',
           ("tests/test_cli.py", "tests/test_golden.py")),
    Mutant("mc-estimate-variance", "src/wordchain/measures.py",
           "var = sum((s - mean) ** 2 for s in samples) / n",
           "var = sum((s - mean) ** 2 for s in samples) / (n - 1)",
           ("tests/test_measures.py",)),
    Mutant("word-sequence-nondecreasing", "src/wordchain/boundary.py",
           "if any(s2 < s1 for", "if any(s2 <= s1 for", ("tests/test_boundary.py",)),
    Mutant("row-reader-field-ends", "src/wordchain/words.py",
           "(end - 1 for end in", "(end - 2 for end in", ("tests/test_verify.py",)),
    Mutant("recurrence-bulk-exts", "src/wordchain/verify.py",
           'ext = row_w[1 + (x == "b")', 'ext = row_w[1 + (x == "a")', ("tests/test_verify.py",)),
    Mutant("recurrence-failure-order", "src/wordchain/verify.py",
           "for i, x, y in sorted(failing):", "for i, x, y in failing:", ("tests/test_verify.py",)),
    Mutant("bridge-reach-skip", "src/wordchain/verify.py",
           "if multi_step_prob(v, w) == 0:", "if multi_step_prob(v, w) != 0:",
           ("tests/test_kernels.py", "tests/test_verify.py")),
    Mutant("empirical-cross-multiply", "src/wordchain/verify.py",
           "served.numerator * scale != counts[w] * weight * served.denominator",
           "served.numerator * weight != counts[w] * scale * served.denominator",
           ("tests/test_measures.py",)),
    Mutant("redraw-repeats-seen", "src/wordchain/measures.py",
           "seen.add(v)\n                kept.append(v)", "kept.append(v)",
           ("tests/test_block_draws.py",)),
    Mutant("share-between-open", "src/wordchain/orders.py",
           "self.values_a if lo < v < hi]", "self.values_a if lo <= v <= hi]",
           ("tests/test_orders.py",)),
    Mutant("h-table-central-binomial", "src/wordchain/bridges.py",
           "math.comb(len(w), len(w) // 2)", "math.comb(len(w) + 1, len(w) // 2)",
           ("tests/test_bridges.py",)),
    Mutant("pool-map-workers", "src/wordchain/cli.py",
           "workers = min(jobs, len(items))", "workers = jobs", ("tests/test_cli.py",)),
    Mutant("check-count-minimum", "src/wordchain/words.py",
           "if n < minimum:", "if n < minimum - 1:", ("tests/test_library_contract.py",)),
    Mutant("insertion-pairs-first-lo", "src/wordchain/words.py",
           "return range(start, last + 1), firsts,", "return range(start + 1, last + 1), firsts,",
           ("tests/test_orders.py",)),
    Mutant("densities-on-support", "src/wordchain/measures.py",
           "if lo <= b < hi else zero", "if lo < b < hi else zero", ("tests/test_measures.py",)),
    Mutant("htransform-step-ratio", "src/wordchain/bridges.py",
           "return p * h[v] / h[u]", "return p * h[u] / h[v]", ("tests/test_bridges.py",)),
    Mutant("check-rational-finite", "src/wordchain/measures.py",
           "and not decimal.Decimal(x).is_finite():", "and decimal.Decimal(x).is_nan():",
           ("tests/test_library_contract.py",)),
    Mutant("pool-map-result-order", "src/wordchain/cli.py",
           "return list(pool.map(fn, items))", "return list(pool.map(fn, items))[::-1]",
           ("tests/test_cli.py",)),
    Mutant("pl-cancel-trailing-factors", "src/wordchain/plackett_luce.py",
           "*fv[len(u):]]", "*fv[len(u) + 1:]]", ("tests/test_plackett_luce.py",)),
    Mutant("pool-map-start-method", "src/wordchain/cli.py",
           "if (multiprocessing.get_start_method(allow_none=True) is None\n            and ",
           "if (", ("tests/test_cli.py",)),
    Mutant("parse-exponent-cap", "src/wordchain/measures.py",
           "exponent) > EXPONENT_CAP):", "exponent) > EXPONENT_CAP + 1):",
           ("tests/test_measures.py",)),
    Mutant("suffix-factor-letters", "src/wordchain/measures.py",
           '{"a": ps, "b": rq}.__getitem__', '{"a": rq, "b": ps}.__getitem__',
           ("tests/test_plackett_luce.py",)),
    Mutant("bridge-word-first-n", "src/wordchain/bridges.py",
           "drawn = {*self.x_samples[:n],", "drawn = {*self.x_samples[:n + 1],",
           ("tests/test_bridges.py",)),
    Mutant("atomic-quantiles-letter", "src/wordchain/measures.py",
           'if letter not in ("a", "b"):\n            raise WordchainError('
           'f"letter must be \'a\' or \'b\', got {letter!r}")\n        n = self.size',
           "n = self.size", ("tests/test_measures.py",)),
    Mutant("distribution-early-refusal", "src/wordchain/measures.py",
           '    _check_pattern_size(pair, check_count(m, "size"))\n', "",
           ("tests/test_measures.py",)),
    Mutant("htransform-row-early-refusal", "src/wordchain/bridges.py",
           "    _check_pattern_size(pair, m)  # before the successors", "    pass  #",
           ("tests/test_bridges.py",)),
    Mutant("boundary-early-refusal", "src/wordchain/boundary.py",
           "    _check_pattern_size(pair, m_max)  # before", "    pass  #",
           ("tests/test_boundary.py",)),
)


def run(mutant: Mutant) -> tuple[str, float, str]:
    """('killed' | 'survived' | 'error: ...', seconds, the first failing test) for one mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info"))
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.source) != 1:
            return f"error: source text occurs {text.count(mutant.source)} times", 0.0, ""
        target.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # 1: a test failed; 2: collection failed (the mutant broke an import)
    code = proc.returncode
    verdict = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"error: pytest exit {code}")
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return verdict, time.perf_counter() - start, first


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        verdict, seconds, first = run(mutant)
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.name:<28} {verdict:<9} {seconds:5.1f} s  {first}{note}", flush=True)
        bad += verdict != "killed" and not (verdict == "survived" and mutant.equivalent)
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
