"""End-to-end checks of the command-line surface."""

import ast
import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import verify_stubs
from conftest import int_str_digit_limit, main_apart, refuse_a_second_pool
from test_golden import MC_CASES
from wordchain import cli, verify
from wordchain.cli import main
from wordchain.kernels import multi_step_prob
from wordchain.measures import (
    CanonicalPair,
    RatePair,
    StepMeasure,
    fixture_pairs,
    format_fraction,
    pattern_prob_exact,
)
from wordchain.words import subword_count


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "leb.json"
    path.write_text(json.dumps(CanonicalPair.lebesgue().to_json()))
    return str(path)


@pytest.fixture
def separated_file(tmp_path):
    path = tmp_path / "sep.json"
    path.write_text(json.dumps(fixture_pairs()["separated"].to_json()))
    return str(path)


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of every process pool built, each pool run in this process."""
    built = []

    class RecordingPool:
        def __init__(self, **kwargs):
            built.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


def pool_sizes(pools) -> list[int]:
    return [pool["max_workers"] for pool in pools]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, argv):
    """(exit code, stderr) of main(argv); a parser error exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestExactCommands:
    def test_subword(self, capsys):
        code, out = run(capsys, ["subword", "abbaba", "bba"])
        assert code == 0 and out.strip() == "4"

    def test_kernel_dm_from_empty(self, capsys):
        for w in ["ab", "abab", "bbaaba"]:
            code, out = run(capsys, ["kernel", "dm", "", w])
            assert code == 0 and out.strip() == "1"

    def test_kernel_values(self, capsys):
        assert run(capsys, ["kernel", "one-step", "ab", "aabb"])[1].strip() == "1/3"
        assert run(capsys, ["kernel", "multi-step", "", "abab"])[1].strip() == "1/6"
        assert run(capsys, ["kernel", "dm", "ab", "aabb"])[1].strip() == "2"
        assert run(capsys, ["kernel", "backward", "ab", "abab"])[1].strip() == "3/4"

    def test_pattern_prob_exact(self, capsys, separated_file):
        code, out = run(capsys, ["pattern-prob", "--pair", separated_file, "--word", "aabb"])
        assert code == 0 and out.strip() == "1"

    def test_pattern_prob_word_pair(self, capsys):
        code, out = run(capsys, ["pattern-prob", "--word-pair", "abab", "--word", "ab"])
        assert code == 0 and out.strip() == "3/4"

    def test_plackett_luce(self, capsys):
        args = ["plackett-luce", "--alpha", "2", "--beta", "1"]
        assert run(capsys, args + ["prob", "ab"])[1].strip() == "2/3"
        assert run(capsys, args + ["harmonic", "ab"])[1].strip() == "4/3"
        assert run(capsys, args + ["transition", "", "ba"])[1].strip() == "1/3"
        code, out = run(capsys, args + ["sample", "--size", "3", "--seed", "5"])
        assert code == 0 and sorted(out.strip()) == list("aaabbb")

    @pytest.mark.parametrize("action,words,scale", [
        ("prob", ["ab"], 1), ("harmonic", ["ab"], 2), ("transition", ["", "ab"], 1),
    ])
    def test_plackett_luce_exact_rate_outside_float_range(self, capsys, action, words, scale):
        # the exact actions take any positive rational rate; only draws need floats
        big = 10**400
        argv = ["plackett-luce", "--alpha", "1e400", "--beta", "1", action, *words]
        assert run(capsys, argv) == (0, f"{scale * big}/{big + 1}\n")

    @pytest.mark.parametrize("argv, exact", [
        (["kernel", "multi-step", "", "ab" * 8000], lambda: multi_step_prob("", "ab" * 8000)),
        (["plackett-luce", "--alpha", "1e5000", "--beta", "1", "prob", "ab"],
         lambda: pattern_prob_exact(RatePair(10**5000, 1), "ab")),
    ], ids=["multi-step", "plackett-luce"])
    def test_values_past_the_digit_limit_print_in_full(self, capsys, argv, exact):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, argv)
        assert code == 0 and sys.get_int_max_str_digits() == limit
        value = exact()
        assert math.log10(value.denominator) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{value}\n"
        finally:
            sys.set_int_max_str_digits(limit)


    def test_subword_count_past_the_digit_limit_prints_in_full(self, capsys):
        n = 1100
        with int_str_digit_limit(640):
            code, out = run(capsys, ["subword", "a" * n + "b" * n, "a" * (n // 2) + "b" * (n // 2)])
            assert code == 0 and out == format_fraction(math.comb(n, n // 2) ** 2) + "\n"
            assert len(out) > 641


class TestStochasticCommands:
    def test_simulate_formats(self, capsys):
        code, out = run(capsys, ["simulate", "--steps", "3", "--seed", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,word"
        assert len(lines) == 5
        code, out = run(capsys, ["simulate", "--steps", "3", "--seed", "1", "--format", "json"])
        path = json.loads(out)["path"]
        assert len(path) == 4 and path[0] == ""

    def test_bridge_reaches_target(self, capsys):
        code, out = run(capsys, ["bridge", "--target", "abab", "--seed", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["path"][-1] == "abab"

    def test_infinite_bridge_separated(self, capsys, separated_file):
        code, out = run(
            capsys,
            ["infinite-bridge", "--pair", separated_file, "--steps", "3", "--seed", "4",
             "--emit", "json"],
        )
        assert code == 0
        assert json.loads(out)["path"] == ["", "ab", "aabb", "aaabbb"]

    def test_orders_json(self, capsys, pair_file):
        code, out = run(
            capsys,
            ["orders", "--stat", "d", "--x", "a1", "--y", "b1", "--depth", "60",
             "--trials", "100", "--pair", pair_file, "--seed", "3"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == 60
        assert 0 < payload["estimate"] < 1
        assert payload["stderr"] > 0

    def test_orders_parametric_source(self, capsys):
        code, out = run(
            capsys,
            ["orders", "--stat", "f", "--x", "a1", "--depth", "50", "--trials", "50",
             "--zeta", "exp:1", "--eta", "exp:2", "--seed", "3"],
        )
        assert code == 0
        assert 0 < json.loads(out)["estimate"] < 1

    def test_moments(self, capsys, pair_file):
        code, out = run(
            capsys,
            ["moments", "--order", "1", "--trials", "4000", "--pair", pair_file, "--seed", "8"],
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mu_moment"] - 0.5) < 0.05
        assert abs(payload["nu_moment"] - 0.5) < 0.05

    def test_boundary_report_to_file(self, capsys, tmp_path, pair_file):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("abab\naabbab\nabababab\n")
        out_file = tmp_path / "report.json"
        code, _ = run(
            capsys,
            ["boundary", "--seq", str(seq_file), "--pair", pair_file, "--mmax", "1",
             "--out", str(out_file)],
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["sizes"] == [2, 3, 4]
        assert "verdict" in report


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, pair_file):
        argv = ["orders", "--stat", "d", "--x", "a1", "--y", "b1", "--depth", "40",
                "--trials", "60", "--pair", pair_file, "--seed", "11"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_output_independent_of_jobs(self, capsys, pair_file):
        base = ["moments", "--order", "2", "--trials", "800", "--pair", pair_file,
                "--seed", "13"]
        _, serial = run(capsys, base)
        parallel = main_apart(base + ["--jobs", "3"])
        assert (parallel.returncode, parallel.stdout) == (0, serial)

    def test_pattern_prob_independent_of_jobs(self, capsys, pair_file):
        base = ["pattern-prob", "--pair", pair_file, "--word", "aabb",
                "--trials", "2000", "--seed", "17"]
        _, serial = run(capsys, base)
        parallel = main_apart(base + ["--jobs", "2"])
        assert (parallel.returncode, parallel.stdout) == (0, serial)

    def test_pool_no_larger_than_replica_count(self, pools, pair_file):
        base = ["pattern-prob", "--pair", pair_file, "--word", "ab", "--seed", "3"]
        assert main(base + ["--trials", "100", "--jobs", "64"]) == 0
        assert main(base + ["--trials", "3", "--jobs", "64"]) == 0
        assert pool_sizes(pools) == [cli.MC_REPLICAS, 3]
        # statistic argument errors are found before any pool is built
        assert main(["moments", "--order", "9", "--jobs", "2", "--pair", pair_file]) == 2
        assert main(["orders", "--stat", "f", "--x", "a9", "--depth", "3", "--jobs", "2",
                     "--pair", pair_file]) == 2
        assert pool_sizes(pools) == [cli.MC_REPLICAS, 3]

    def test_pool_forks_unless_a_method_is_set(self, pools, pair_file, each_start_method):
        argv = ["pattern-prob", "--pair", pair_file, "--word", "ab", "--trials", "16",
                "--jobs", "2"]
        for method in each_start_method:
            # a method set explicitly wins: the pool takes the default context
            assert main(argv) == 0
            assert pools.pop()["mp_context"] is None, method
        multiprocessing.set_start_method(None, force=True)
        assert main(argv) == 0
        context = pools.pop()["mp_context"]
        if "fork" in multiprocessing.get_all_start_methods():
            assert context.get_start_method() == "fork"
        else:
            assert context is None
        # the rule read no default: none was fixed for the process
        assert multiprocessing.get_start_method(allow_none=True) is None

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_cli_forks_with_no_other_thread(self, tmp_path):
        # fork copies only the calling thread: the CLI starts none before its pool
        code = textwrap.dedent(f"""\
            import concurrent.futures, threading
            from wordchain.cli import main
            real = concurrent.futures.ProcessPoolExecutor
            def pool(max_workers, mp_context):
                print(threading.active_count(), mp_context.get_start_method(), flush=True)
                return real(max_workers=max_workers, mp_context=mp_context)
            concurrent.futures.ProcessPoolExecutor = pool
            for argv in (["verify"], {MC_GOLDEN_ARGV!r}):
                assert main([*argv, "--jobs", "2", "--out", {str(tmp_path / "out")!r}]) == 0
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout == "1 fork\n1 fork\n"

    def test_second_pool_in_the_test_process_is_refused(self):
        class Pool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

        refuse_a_second_pool(Pool)
        assert Pool(2).max_workers == 2
        with pytest.raises(RuntimeError, match=r"^a second Pool in the test process: .*"
                                               r"conftest\.main_apart$"):
            Pool(3)
        # the suite's own pools carry the same guard
        assert hasattr(concurrent.futures.ProcessPoolExecutor.__init__, "__wrapped__")

    def test_import_leaves_pool_unloaded(self):
        # only --jobs > 1 imports the process pool
        code = ("import sys, wordchain.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout == "[]\n"

    def test_different_seeds_differ(self, capsys):
        _, a = run(capsys, ["simulate", "--steps", "5", "--seed", "1"])
        _, b = run(capsys, ["simulate", "--steps", "5", "--seed", "2"])
        assert a != b


class TestErrorHandling:
    def test_invalid_word_is_usage_error(self, capsys):
        assert main(["subword", "abc", "ab"]) == 2

    def test_size_mismatch_is_usage_error(self, capsys):
        assert main(["kernel", "one-step", "ab", "ab"]) == 2

    def test_cap_violation_exit_code(self, capsys, pair_file):
        # size 7 is above the step pattern cap of 6
        assert main(["pattern-prob", "--pair", pair_file, "--word", "ab" * 7]) == 3

    def test_word_pair_serves_closed_form(self, capsys):
        # (m!)^2 * binom(y, w) / N^(2m); no size cap beyond N
        y, w = "ab" * 6, "ab" * 5
        code, out = run(capsys, ["pattern-prob", "--word-pair", y, "--word", w])
        closed = Fraction(math.factorial(5) ** 2 * subword_count(y, w), 6 ** 10)
        assert code == 0 and out.strip() == str(closed)

    def test_atom_count_mismatch_is_usage_error(self, capsys):
        assert main(["pattern-prob", "--word-pair", "ab", "--word", "abab"]) == 2

    def test_moment_order_above_cap(self, capsys, pair_file):
        argv = ["moments", "--order", "9", "--trials", "10", "--pair", pair_file]
        assert main(argv) == 2
        assert main(argv + ["--jobs", "2"]) == 2
        assert capsys.readouterr().err.count("\n") == 2

    def test_malformed_letter(self, capsys):
        argv = ["orders", "--stat", "f", "--depth", "5", "--trials", "5",
                "--zeta", "exp:1", "--eta", "exp:2", "--x"]
        for token in ["", "a", "c1", "a0"]:
            assert main(argv + [token]) == 2

    def test_pair_excludes_parametric_sources(self, capsys, pair_file):
        for extra in (["--zeta", "exp:1"], ["--eta", "exp:2"]):
            argv = ["moments", "--order", "1", "--trials", "5", "--pair", pair_file]
            assert main(argv + extra) == 2
            assert main(["orders", "--stat", "f", "--x", "a1", "--depth", "5", "--trials", "5",
                         "--pair", pair_file] + extra) == 2

    @pytest.mark.parametrize("argv", [
        ["plackett-luce", "--alpha", "1e400", "--beta", "1", "sample", "--size", "3",
         "--method", "sort"],
        ["orders", "--stat", "f", "--x", "a1", "--depth", "3", "--trials", "3",
         "--zeta", "exp:1e400", "--eta", "exp:1"],
        ["moments", "--order", "1", "--trials", "3", "--zeta", "exp:1e-400", "--eta", "exp:1"],
        # a subnormal rate overflows most draws to inf
        ["orders", "--stat", "f", "--x", "a1", "--depth", "3", "--trials", "3",
         "--zeta", "exp:1", "--eta", "exp:1e-310"],
    ], ids=["pl-sort-overflow", "orders-overflow", "moments-underflow", "orders-subnormal"])
    def test_rate_outside_float_range(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_oversize_word_pair_with_trials(self, jobs):
        argv = ["pattern-prob", "--word-pair", "ab", "--word", "aabb", "--trials", "10",
                "--jobs", jobs]
        done = main_apart(argv)  # at --jobs 2 the pool's workers refuse the word
        assert done.returncode == 2 and done.stdout == "" and done.stderr.count("\n") == 1

    def test_y_belongs_to_stat_d(self, capsys):
        argv = ["orders", "--stat", "f", "--x", "a1", "--y", "b1", "--depth", "3", "--trials", "3",
                "--zeta", "exp:1", "--eta", "exp:2"]
        assert main(argv) == 2
        assert "--stat d" in capsys.readouterr().err

    def test_same_letter_checks_depth(self, capsys, pair_file):
        # d(x, x) is 0 without sampling, but its letter still has to fit the depth
        argv = ["orders", "--stat", "d", "--x", "a9", "--y", "a9", "--depth", "3",
                "--trials", "5", "--pair", pair_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: depth 3 is below the largest letter index 9")

    def test_zero_denominator_rate(self, capsys):
        assert main(["plackett-luce", "--alpha", "1/0", "--beta", "1", "prob", "ab"]) == 2
        assert main(["moments", "--order", "1", "--trials", "5",
                     "--zeta", "exp:1/0", "--eta", "exp:1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["orders", "--stat", "f", "--x", "a1", "--zeta", "exp:1", "--eta", "exp:2",
             "--trials", "0"],
            ["orders", "--stat", "f", "--x", "a1", "--zeta", "exp:1", "--eta", "exp:2",
             "--depth", "0"],
            ["moments", "--order", "1", "--zeta", "exp:1", "--eta", "exp:2", "--trials", "0"],
            ["moments", "--order", "1", "--zeta", "exp:1", "--eta", "exp:2", "--trials", "-4"],
            ["simulate", "--steps", "3", "--jobs", "0"],
            ["simulate", "--steps", "-3"],
            ["simulate", "--steps", "x"],
            ["infinite-bridge", "--pair", "p.json", "--steps", "-1"],
            ["pattern-prob", "--word-pair", "abab", "--word", "ab", "--trials", "-1"],
            ["pattern-prob", "--word", "ab"],
            ["pattern-prob", "--word-pair", "abab", "--pair", "p.json", "--word", "ab"],
            ["plackett-luce", "--alpha", "1", "--beta", "1", "sample", "--size", "-2"],
            ["plackett-luce", "--alpha", "1", "--beta", "1", "prob", "ab", "--size", "-2"],
            ["verify", "--jobs", "0"],
            ["simulate", "--steps", "3", "--seed", "x"],
            ["boundary", "--seq", "s.txt", "--pair", "p.json", "--mmax", "1.5"],
            [],
        ],
    )
    def test_argparse_rejects(self, capsys, argv):
        # exit 2 and one `error:` line, whether the parser or the library rejects the value
        code, err = run_err(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "usage:" not in err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--steps", "-1"], "steps must be nonnegative, got -1"),
        (["simulate", "--steps", "x"], "argument --steps: invalid int value: 'x'"),
        (["verify", "--jobs", "0"], "jobs must be at least 1, got 0"),
        (["moments", "--order", "1", "--zeta", "exp:1", "--eta", "exp:2", "--trials", "0"],
         "trials must be at least 1, got 0"),
        # 0 trials is the exact value, so the bound is 0
        (["pattern-prob", "--word-pair", "abab", "--word", "ab", "--trials", "-1"],
         "trials must be nonnegative, got -1"),
    ])
    def test_range_messages_are_the_library_s(self, capsys, argv, message):
        assert run_err(capsys, argv) == (2, f"error: {message}\n")

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "-h"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wordchain simulate ")

    def test_missing_order_sources(self, capsys):
        assert main(["orders", "--stat", "f", "--x", "a1"]) == 2

    def test_noncanonical_pair_file_rejected(self, capsys, tmp_path):
        # both components are valid measures, but densities do not add to 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "mu": {"breakpoints": ["0", "1"], "densities": ["1"]},
            "nu": {"breakpoints": ["0", "1/2", "1"], "densities": ["2", "0"]},
        }))
        assert main(["pattern-prob", "--pair", str(bad), "--word", "ab"]) == 2

    def test_malformed_measure_file_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({
            "mu": {"breakpoints": ["0", "1"], "densities": ["1/2"]},
            "nu": {"breakpoints": ["0", "1"], "densities": ["1"]},
        }))
        assert main(["pattern-prob", "--pair", str(bad), "--word", "ab"]) == 2

    @pytest.mark.parametrize(
        "content, field",
        [
            ({"mu": {"breakpoints": [0, 1], "densities": [1]},
              "nu": {"breakpoints": ["0", "1"], "densities": ["1"]}}, "mu.breakpoints[0]"),
            ([{"breakpoints": ["0", "1"], "densities": ["1"]}], "a pair"),
        ],
    )
    def test_pair_file_types_checked(self, capsys, tmp_path, content, field):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(content))
        assert main(["pattern-prob", "--pair", str(bad), "--word", "ab"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    def test_pair_file_ignores_unknown_keys(self, capsys, tmp_path):
        # a pair file carrying an extra key, such as "resolution", loads as the same pair
        pair = fixture_pairs()["three-cell"].to_json()
        outputs = []
        for name, content in [("plain", pair), ("extra", {**pair, "resolution": 256})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content))
            outputs.append([
                run(capsys, ["pattern-prob", "--pair", str(path), "--word", "abab"]),
                run(capsys, ["infinite-bridge", "--pair", str(path), "--steps", "20",
                             "--seed", "1"]),
            ])
        assert outputs[0] == outputs[1]
        assert all(code == 0 and out for code, out in outputs[0])

    @pytest.mark.parametrize("flag, content", [
        ("--eta", b'{"breakpoints": ["0", "1"], "dens'),
        ("--eta", b"\xff\xfe{}"),
        ("--eta", b'{"breakpoints": [0, 1], "densities": ["1"]}'),
        ("--seq", b"ab\n\xe9\n"),
    ])
    def test_unreadable_file_is_named(self, capsys, tmp_path, pair_file, flag, content):
        zeta = tmp_path / "zeta.json"
        zeta.write_text(json.dumps(StepMeasure.lebesgue().to_json()))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {
            "--eta": ["moments", "--order", "1", "--zeta", str(zeta), "--eta", str(bad)],
            "--seq": ["boundary", "--seq", str(bad), "--pair", pair_file],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")

    def test_letter_index_past_the_digit_limit(self, capsys):
        big = "a" + "1" * 5000
        argv = ["orders", "--depth", "3", "--trials", "2", "--zeta", "exp:1", "--eta", "exp:2"]
        with int_str_digit_limit(640):
            # d(x, x) needs no sampling, but its depth is checked as for f
            for stat in (["--stat", "f", "--x", big], ["--stat", "d", "--x", big, "--y", big]):
                assert main(argv + stat) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and err.endswith(f"letter index {big[1:]}\n")

    def test_pair_file_integer_past_the_digit_limit(self, capsys, tmp_path):
        bad = tmp_path / "big.json"
        bad.write_text('{"mu": {"breakpoints": [1' + "0" * 5000 + '], "densities": []}}')
        with int_str_digit_limit(640):
            assert main(["pattern-prob", "--pair", str(bad), "--word", "ab"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and 'mu.breakpoints[0] must be a string such as "1/2"' in err

    def test_huge_exponent_in_pair_file_is_a_cap_violation(self, capsys, tmp_path):
        # the file names itself in the message and keeps the cap's exit code
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({
            "mu": {"breakpoints": ["0", "1e999999999", "1"], "densities": ["1", "1"]},
            "nu": {"breakpoints": ["0", "1"], "densities": ["1"]},
        }))
        assert main(["pattern-prob", "--pair", str(bad), "--word", "ab"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: mu.breakpoints[1] ")

    def test_plain_value_error_is_a_bug(self, capsys, monkeypatch):
        # only WordchainError and OSError are usage errors; anything else propagates
        monkeypatch.setattr(cli, "_cmd_subword", lambda args: int("x"))
        with pytest.raises(ValueError, match="invalid literal for int"):
            main(["subword", "ab", "a"])
        assert capsys.readouterr().err == ""

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


# a Monte Carlo golden invocation that needs no input file
MC_GOLDEN_ARGV = MC_CASES["orders-f-exp"][0]

# Identity counts per family may grow but never drop; a change to them
# must update this text on purpose.
VERIFY_STDOUT = """\
subword recurrence closure: 239785 identities: OK
subword convolution identity: 2230 identities: OK
exp(H) = P on words of length <= 5: 3969 identities: OK
Chapman-Kolmogorov composition: 2230 identities: OK
Doob-Martin kernel ratio law: 7571 identities: OK
backward kernel normalization: 98 identities: OK
bridge conditional = deletion dynamics: 4516 identities: OK
pattern probability normalization: 15 identities: OK
empirical pattern identity: 10180 identities: OK
Plackett-Luce closed forms: 99 identities: OK
harmonicity of fixture boundary functions: 87 identities: OK
11 identity families, 270780 identities checked, 0 families failing
"""


def test_verify_command():
    # the default --jobs runs a pool wherever more than one CPU is usable
    done = main_apart(["verify"])
    assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY_STDOUT, "")


@pytest.mark.parametrize("jobs", ["1", "2", "3", "20"])
def test_verify_independent_of_jobs(jobs):
    # the families run on min(jobs, 11) workers and report in FAMILIES order
    done = main_apart(["verify", "--jobs", jobs])
    assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY_STDOUT, "")


def test_verify_jobs_default(capsys, monkeypatch, pools):
    # without --jobs, verify runs on min(usable CPUs, 11) workers; below two, in-process
    _stub_families(monkeypatch)
    for cpus in (cli._usable_cpus(), 1, 3, 20):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        pools.clear()
        assert main(["verify"]) == 0
        assert pool_sizes(pools) == ([min(cpus, 11)] if cpus > 1 else []), cpus
    # the Monte Carlo commands stay serial unless --jobs says otherwise
    pools.clear()
    assert main(["moments", "--order", "1", "--trials", "16", "--zeta", "exp:1",
                 "--eta", "exp:2"]) == 0
    assert pools == []
    capsys.readouterr()


def _stub_families(monkeypatch, **overrides):
    """Every verify family replaced by a one-identity stub, or by its override.

    The CLI reads verify.run_family when verify runs; the stand-in is a
    function of verify_stubs, which pool workers import by name, so the
    stubs reach them under every start method.
    """
    monkeypatch.setattr(verify, "run_family", partial(verify_stubs.run_family, overrides=overrides))


@pytest.fixture
def each_start_method():
    """Iterates over the platform's start methods, forcing each in turn; then restores the default."""
    saved = multiprocessing.get_start_method(allow_none=True)

    def force_each():
        for method in multiprocessing.get_all_start_methods():
            multiprocessing.set_start_method(method, force=True)
            yield method

    yield force_each()
    multiprocessing.set_start_method(saved, force=True)


def test_verify_failure_independent_of_jobs(capsys, monkeypatch):
    _stub_families(monkeypatch, plackett_luce=verify_stubs.failing)
    serial = run(capsys, ["verify", "--jobs", "1"])
    for method in multiprocessing.get_all_start_methods():
        done = main_apart(["verify", "--jobs", "2"], method, {"plackett_luce": "failing"})
        assert (done.returncode, done.stdout) == serial, method
    code, out = serial
    assert code == 1
    assert out.splitlines()[9:] == [
        "failing family: 2 identities: FAIL",
        "  first failure",
        "  second failure",
        "harmonicity: 1 identities: OK",
        "11 identity families, 12 identities checked, 1 families failing",
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_in_family_order(jobs):
    # the pool takes the families longest first, and the first one here finishes
    # last; the report still lists them in FAMILIES order
    done = main_apart(["verify", "--jobs", jobs], stubs={"recurrence_closure": "slow"})
    assert done.returncode == 0
    assert [line.split(":")[0] for line in done.stdout.splitlines()[:-1]] == list(verify.FAMILIES)


def test_verify_and_mc_bytes_under_each_start_method(capsys, tmp_path):
    # each start method forced on a fresh interpreter through sitecustomize
    _, mc_serial = run(capsys, [*MC_GOLDEN_ARGV, "--jobs", "1"])
    code = ("import multiprocessing, sys; from wordchain.cli import main; "
            "print(multiprocessing.get_start_method(allow_none=True)); "
            "main(['verify', '--jobs', '2']); "
            f"main({[*MC_GOLDEN_ARGV, '--jobs', '2']!r})")
    for method in multiprocessing.get_all_start_methods():
        site = tmp_path / method
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            f"import multiprocessing\nmultiprocessing.set_start_method({method!r})\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(site), str(Path(cli.__file__).parents[1])]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert (out.returncode, out.stderr) == (0, ""), method
        assert out.stdout == f"{method}\n{VERIFY_STDOUT}{mc_serial}", method


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_family_exception_propagates(jobs):
    # a bug in a family is not a WordchainError: it leaves main, from a worker too
    for method in multiprocessing.get_all_start_methods():
        done = main_apart(["verify", "--jobs", jobs], method, {"harmonicity": "raising"})
        assert done.returncode == 1, method
        assert done.stderr.splitlines()[-1].startswith("ZeroDivisionError"), method


def test_serial_verify_leaves_pool_unloaded(tmp_path):
    out_file = tmp_path / "verify.txt"
    code = ("import sys; from wordchain.cli import main; "
            f"code = main(['verify', '--jobs', '1', '--out', {str(out_file)!r}]); "
            "print(code, sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "0 []\n"
    assert out_file.read_text(encoding="utf-8") == VERIFY_STDOUT


@pytest.mark.parametrize("launch", [
    ["-m", "wordchain.cli"],
    # runpy without alter_sys leaves the -c module as __main__, where a pool
    # task defined in the CLI module could not be found to pickle it
    ["-c", "import runpy; runpy.run_module('wordchain.cli', run_name='__main__')"],
], ids=["dash-m", "runpy"])
def test_verify_as_main_module(launch):
    # the CLI module runs as __main__; --jobs 2 builds a pool on any machine
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, *launch, "verify", "--jobs", "2"],
                         capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, VERIFY_STDOUT, "")


def test_commands_return_their_output():
    # main is the one output path: a command neither prints nor opens or writes a file
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(commands) == 11
    writes = [
        f"{command.name}: {ast.unparse(node.func)}"
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Call) and (
            ast.unparse(node.func) in ("print", "open", "_emit", "_emit_json")
            or ast.unparse(node.func).endswith(".write")
        )
    ]
    assert writes == []
