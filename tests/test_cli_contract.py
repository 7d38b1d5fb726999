"""Fuzz tests of the CLI contract: exit 0, 2 or 3, never a traceback.

``test_exit_codes`` draws vectors that follow the subcommand grammar with
small sizes and mix valid tokens with bad ones: negatives, zeros, unknown
letters, malformed numbers, missing or conflicting measure sources, and
input files that are truncated JSON or not UTF-8.  A vector with several
bad tokens stops at the first check, so a rare token seldom reaches its
own.  ``test_single_bad_token`` therefore draws a vector that is valid, as
``test_valid_vectors_exit_zero`` checks, replaces exactly one token with a
bad one, and asserts the exit code that token causes.  ``verify`` is left
out; ``test_cli.test_verify_command`` covers it.
"""

import contextlib
import io
import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordchain.cli import main
from wordchain.measures import StepMeasure, fixture_pairs
from wordchain.words import enumerate_balanced, successors

WORDS = st.one_of(
    st.sampled_from(["", "ab", "ba", "abab", "aabb", "abba", "aabbab", "ababab"]),
    st.text(alphabet="abc", max_size=6),
)
COUNTS = st.integers(min_value=-2, max_value=20).map(str) | st.sampled_from(["x", "1.5"])
SMALL = st.integers(min_value=-1, max_value=6).map(str)
LETTERS = st.sampled_from(["a1", "b1", "a2", "b3", "a9", "a0", "c1", "a", "", "bx"])
RATES = st.sampled_from(["1", "2", "3/2", "0", "-1", "1/0", "x", "1e400", "1e-400"])
SPECS = st.sampled_from(["exp:1", "exp:2", "exp:1/3", "exp:0", "exp:-1", "exp:1/0", "exp:x",
                         "exp:1e400", "exp:1e-400",
                         "{missing}", "{pair}", "{truncated}", "{not_utf8}"])
PAIR_FILES = st.sampled_from(["{pair}", "{truncated}", "{not_utf8}", "{missing}"])


def _flag(name, values):
    """Either nothing or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _order_source():
    return st.one_of(
        PAIR_FILES.map(lambda p: ["--pair", p]),
        st.tuples(SPECS, SPECS).map(lambda zs: ["--zeta", zs[0], "--eta", zs[1]]),
        SPECS.map(lambda z: ["--zeta", z]),
        SPECS.map(lambda z: ["--pair", "{pair}", "--eta", z]),
        st.just([]),
    )


def _command():
    simulate = st.tuples(st.just(["simulate", "--steps"]), SMALL,
                         _flag("--format", st.sampled_from(["text", "csv", "json"])))
    bridge = st.tuples(st.just(["bridge", "--target"]), WORDS)
    infinite = st.tuples(st.just(["infinite-bridge"]),
                         st.one_of(PAIR_FILES.map(lambda p: ["--pair", p]), st.just([])),
                         st.just(["--steps"]), SMALL)
    pattern = st.tuples(
        st.just(["pattern-prob"]),
        st.one_of(PAIR_FILES.map(lambda p: ["--pair", p]), WORDS.map(lambda w: ["--word-pair", w]),
                  WORDS.map(lambda w: ["--pair", "{pair}", "--word-pair", w]), st.just([])),
        WORDS.map(lambda w: ["--word", w]),
        _flag("--trials", COUNTS),
    )
    order_stat = st.tuples(
        st.just(["orders", "--stat"]), st.sampled_from(["d", "f"]),
        LETTERS.map(lambda x: ["--x", x]), _flag("--y", LETTERS),
        _flag("--depth", SMALL), _flag("--trials", COUNTS), _order_source(),
    )
    moments = st.tuples(
        st.just(["moments", "--order"]), SMALL, _flag("--trials", COUNTS), _order_source(),
    )
    plackett = st.tuples(
        st.just(["plackett-luce", "--alpha"]), RATES, st.just(["--beta"]), RATES,
        st.sampled_from(["prob", "harmonic", "transition", "sample"]),
        st.lists(WORDS, max_size=2), _flag("--size", SMALL),
        _flag("--method", st.sampled_from(["sequential", "sort"])),
    )
    boundary = st.tuples(
        st.just(["boundary", "--seq"]),
        st.sampled_from(["{seq}", "{truncated}", "{not_utf8}", "{missing}"]),
        PAIR_FILES.map(lambda p: ["--pair", p]),
        st.just(["--mmax"]), SMALL,
    )
    exact = st.one_of(
        st.tuples(st.just(["subword"]), WORDS, WORDS),
        st.tuples(st.just(["kernel"]),
                  st.sampled_from(["one-step", "multi-step", "dm", "backward"]), WORDS, WORDS),
    )
    return st.one_of(simulate, bridge, infinite, pattern, order_stat, moments, plackett,
                     boundary, exact)


def _flatten(parts) -> list[str]:
    out = []
    for part in parts:
        out.extend(part if isinstance(part, list) else [part])
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    pair = root / "pair.json"
    pair.write_text(json.dumps(fixture_pairs()["three-cell"].to_json()))
    seq = root / "seq.txt"
    seq.write_text("abab\naabbab\n")
    truncated = root / "truncated.json"
    truncated.write_text(pair.read_text()[:40])
    not_utf8 = root / "not_utf8.json"
    not_utf8.write_bytes(b'{"mu": "\xff\xfe"}\nab\xe9ab\n')
    measure = root / "measure.json"
    measure.write_text(json.dumps(StepMeasure.uniform_on(0, 2).to_json()))
    return {"pair": str(pair), "seq": str(seq), "missing": str(root / "missing.json"),
            "truncated": str(truncated), "not_utf8": str(not_utf8), "measure": str(measure)}


def _run(argv) -> tuple[int, str]:
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(parts=_command(), seed=st.integers(min_value=-3, max_value=3))
def test_exit_codes(files, parts, seed):
    argv = [token.format(**files) for token in _flatten(parts)]
    argv += ["--seed", str(seed), "--jobs", "1"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()


# Each bad token, by the kind of slot it replaces, with the exit code it causes
# in every valid vector below: 2 for a usage error, 3 for the size cap.
BAD_FILES = {"{missing}": 2, "{truncated}": 2, "{not_utf8}": 2}
BAD_WORDS = {"abc": 2, "aab": 2, "c": 2}
BAD = {
    "seed": {"x": 2, "1.5": 2},
    "jobs": {"0": 2, "-1": 2, "x": 2},
    "count": {"-1": 2, "x": 2, "1.5": 2},  # --steps, --size: nonnegative
    "positive": {"0": 2, "-4": 2, "x": 2},  # --trials, --depth of orders and moments
    "mc_trials": {"-1": 2, "x": 2},  # pattern-prob --trials: nonnegative
    "format": {"xml": 2},
    "pair": {**BAD_FILES, "{seq}": 2, "{measure}": 2},
    "seq": BAD_FILES,
    "spec": {**BAD_FILES, "{pair}": 2, "exp:0": 2, "exp:-1": 2, "exp:1/0": 2, "exp:x": 2,
             "exp:1e400": 2, "exp:1e-400": 2, "exp:1e-310": 2, "exp:nan": 2, "lognormal": 2,
             "exp:1e999999999": 3},  # a decimal exponent past the exponent cap
    "word": BAD_WORDS,
    "letters": {"abc": 2, "c": 2},  # subword takes unbalanced words too
    "step_word": {**BAD_WORDS, "ab" * 7: 3},  # exact step pattern: size cap 6
    "word_pair": {**BAD_WORDS, "": 2},  # the empty word has no empirical pair
    "sub_word": {"abc": 2, "aaaabbbb": 2},  # larger than the word pair
    "source": {**BAD_WORDS, "aaaabbbb": 2},  # beside a target of size <= 3
    "target": {**BAD_WORDS, "": 2},  # beside a source of size >= 1
    "pl_source": {**BAD_WORDS, "aaaabbbb": 2},
    "pl_target": {**BAD_WORDS, "": 2, "aaaabbbb": 2},
    # depth <= 6; an index past the int-to-str digit limit still exits 2
    "letter": {"a0": 2, "c1": 2, "a": 2, "": 2, "bx": 2, "a9": 2, "a" + "1" * 5000: 2},
    "stat_d": {"f": 2, "g": 2},  # --y belongs to --stat d
    "depth": {"0": 2, "-4": 2, "x": 2},
    "order": {"0": 2, "5": 2, "x": 2},
    # exact actions: any positive rational, in Fraction's grammar
    "rate": {"0": 2, "-1": 2, "1/0": 2, "x": 2, "nan": 2, "inf": 2, "1__0": 2,
             "1e999999999": 3, "1e99999999999999999999999": 3},  # exponent cap; past Decimal's
    "float_rate": {"0": 2, "1/0": 2, "1e400": 2, "1e-400": 2},  # sort draws floats
    "one_word_action": {"transition": 2, "sample": 2, "frob": 2},
    "method": {"magic": 2, "": 2},
    "mmax": {"0": 2, "3": 2, "x": 2},  # the seq file's shortest word has size 2
}


class Slot(NamedTuple):
    """A token that the single-bad-token strategy may replace with one of BAD[kind]."""

    kind: str
    token: str


def _slot(kind: str, values) -> st.SearchStrategy:
    """A slot of `kind` holding one of the valid `values`."""
    return st.sampled_from(list(values)).map(lambda v: Slot(kind, v))


def _words(kind: str, sizes) -> st.SearchStrategy:
    return _slot(kind, [w for n in sizes for w in enumerate_balanced(n)])


def _step(source: str, target: str, sizes) -> st.SearchStrategy:
    """A word u and a successor v of u, as slots of the given kinds."""
    pairs = [(u, v) for n in sizes for u in enumerate_balanced(n) for v in successors(u)]
    return st.sampled_from(pairs).map(lambda uv: (Slot(source, uv[0]), Slot(target, uv[1])))


def _valid_command() -> st.SearchStrategy:
    count, trials = _slot("count", "0123"), _slot("positive", ["1", "5", "12"])
    pair = _slot("pair", ["{pair}"])
    rates = st.tuples(st.just("--alpha"), _slot("rate", ["1", "3/2", "1e400", "1e-400"]),
                      st.just("--beta"), _slot("rate", ["2", "1/3"]))
    sources = st.one_of(
        st.tuples(st.just("--pair"), pair),
        st.tuples(st.just("--zeta"), _slot("spec", ["exp:1", "exp:1/3", "{measure}"]),
                  st.just("--eta"), _slot("spec", ["exp:2", "{measure}"])),
    )
    letter = _slot("letter", ["a1", "b1", "a2", "b3"])
    orders = st.tuples(st.just("--depth"), _slot("depth", "3456"), st.just("--trials"), trials,
                       sources)
    commands = [
        st.tuples(st.just("simulate"), st.just("--steps"), count,
                  st.just("--format"), _slot("format", ["text", "csv", "json"])),
        st.tuples(st.just("bridge"), st.just("--target"), _words("word", range(3))),
        st.tuples(st.just("infinite-bridge"), st.just("--pair"), pair, st.just("--steps"), count),
        st.tuples(st.just("pattern-prob"), st.just("--pair"), pair,
                  st.just("--word"), _words("step_word", range(4))),
        st.tuples(st.just("pattern-prob"), st.just("--pair"), pair,
                  st.just("--word"), _words("word", range(3)),
                  st.just("--trials"), _slot("mc_trials", ["3", "10"])),
        st.tuples(st.just("pattern-prob"), st.just("--word-pair"), _words("word_pair", (2, 3)),
                  st.just("--word"), _words("sub_word", range(3)),
                  st.just("--trials"), _slot("mc_trials", ["3", "10"])),
        st.tuples(st.just("orders"), st.just("--stat"), st.just("f"), st.just("--x"), letter,
                  orders),
        st.tuples(st.just("orders"), st.just("--stat"), _slot("stat_d", "d"), st.just("--x"),
                  letter, st.just("--y"), letter, orders),
        st.tuples(st.just("moments"), st.just("--order"), _slot("order", "1234"),
                  st.just("--trials"), trials, sources),
        st.tuples(st.just("plackett-luce"), rates,
                  _slot("one_word_action", ["prob", "harmonic"]), _words("word", range(4))),
        st.tuples(st.just("plackett-luce"), rates, st.just("transition"),
                  _step("pl_source", "pl_target", range(3))),
        st.tuples(st.just("plackett-luce"), rates, st.just("sample"), st.just("--size"), count,
                  st.just("--method"), _slot("method", ["sequential"])),
        st.tuples(st.just("plackett-luce"), st.just("--alpha"), _slot("float_rate", ["1", "3/2"]),
                  st.just("--beta"), _slot("float_rate", ["2"]), st.just("sample"),
                  st.just("--size"), count, st.just("--method"), st.just("sort")),
        st.tuples(st.just("boundary"), st.just("--seq"), _slot("seq", ["{seq}"]),
                  st.just("--pair"), pair, st.just("--mmax"), _slot("mmax", "12")),
        st.tuples(st.just("subword"), _slot("letters", ["", "ab", "aab", "abba"]),
                  _slot("letters", ["", "b", "ab"])),
        st.tuples(st.just("kernel"), st.sampled_from(["one-step", "multi-step", "dm", "backward"]),
                  _step("source", "target", (1, 2))),
    ]
    return st.tuples(st.one_of(commands), st.just("--seed"), _slot("seed", ["0", "7", "-3"]),
                     st.just("--jobs"), _slot("jobs", ["1"]))


VALID = _valid_command()


def _tokens(parts) -> list:
    """Flatten nested tuples of fixed tokens (str) and slots."""
    out = []
    for part in parts:
        out.extend([part] if isinstance(part, (str, Slot)) else _tokens(part))
    return out


@st.composite
def _one_bad_token(draw):
    """A valid vector with one slot replaced by a bad token: (tokens, expected exit code)."""
    tokens = _tokens(draw(VALID))
    i = draw(st.sampled_from([i for i, token in enumerate(tokens) if isinstance(token, Slot)]))
    bad = draw(st.sampled_from(sorted(BAD[tokens[i].kind])))
    tokens[i] = tokens[i]._replace(token=bad)
    return tokens, BAD[tokens[i].kind][bad]


def _argv(tokens, files) -> list[str]:
    return [getattr(t, "token", t).format(**files) for t in tokens]


@settings(max_examples=100, deadline=None)
@given(parts=VALID)
def test_valid_vectors_exit_zero(files, parts):
    argv = _argv(_tokens(parts), files)
    assert _run(argv) == (0, ""), argv


@settings(max_examples=1000, deadline=None)
@given(case=_one_bad_token())
def test_single_bad_token(files, case):
    tokens, expected = case
    argv = _argv(tokens, files)
    code, err = _run(argv)
    assert code == expected, argv
    assert "Traceback" not in err and err.strip(), argv
