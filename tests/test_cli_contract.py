"""Fuzz test of the CLI contract: exit 0, 2 or 3, never a traceback.

Argument vectors follow the subcommand grammar with small sizes and mix
valid tokens with bad ones: negatives, zeros, unknown letters, malformed
numbers, missing or conflicting measure sources, and input files that are
truncated JSON or not UTF-8.  ``verify`` is left out;
``test_cli.test_verify_command`` covers it.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordchain.cli import main
from wordchain.measures import fixture_pairs

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
    return {"pair": str(pair), "seq": str(seq), "missing": str(root / "missing.json"),
            "truncated": str(truncated), "not_utf8": str(not_utf8)}


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
