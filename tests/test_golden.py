"""Golden output of the README commands at fixed seeds.

Each case runs ``cli.main`` in-process and compares the SHA-256 of its
stdout with a recorded digest, so any change to a seeded stream, the
replica split or the number formatting shows up here.  A digest may change
only together with a CHANGES.md entry that declares the new stream.  Monte
Carlo commands run at ``--jobs 1`` and ``--jobs 2`` against the same digest,
the pool of ``--jobs 2`` in a fresh interpreter (``conftest.main_apart``).
Every case also runs with ``--out``, whose file must hold the stdout bytes.
"""

import hashlib
import json
import random

import pytest

from conftest import main_apart
from wordchain.bridges import sample_finite_bridge
from wordchain.cli import main
from wordchain.measures import fixture_pairs
from wordchain.orders import label_uniformly

MC_CASES = {
    "pattern-prob-mc": (
        ["pattern-prob", "--pair", "{pair}", "--word", "abab", "--trials", "2003", "--seed", "2"],
        "ee5d8dff71b02c528a5f8f3a88e6d78e4e62c69d99933d33e95c5dd1d4f95b04",
    ),
    "pattern-prob-mc-word-pair": (
        ["pattern-prob", "--word-pair", "aabbab", "--word", "ab", "--trials", "5", "--seed", "6"],
        "e3dd57420d1f3344d7473a088fd385d9f678a14d53520b8aeef51634f6e75596",
    ),
    "pattern-prob-mc-word-pair-200": (
        ["pattern-prob", "--word-pair", "{word_pair}", "--word", "abab", "--trials", "2003",
         "--seed", "2"],
        "5f12a95aaa3f95c00ca83fa54c1d04b24ae5230208198e716ba03dfa66c01630",
    ),
    "orders-d-pair": (
        ["orders", "--stat", "d", "--x", "a1", "--y", "b1", "--depth", "40", "--trials", "203",
         "--pair", "{pair}", "--seed", "3"],
        "8e87b44f7da424d38c86efca863e62a0be9ae52f7c845bde240218435d652487",
    ),
    "orders-d-zero": (
        ["orders", "--stat", "d", "--x", "a1", "--y", "a1", "--depth", "40", "--trials", "50",
         "--pair", "{pair}", "--seed", "3"],
        "183f875701657fcb9dfff1e341f68cc0b6d00a32fffe60f4c76dcd6716445b82",
    ),
    "orders-f-exp": (
        ["orders", "--stat", "f", "--x", "a2", "--depth", "40", "--trials", "101",
         "--zeta", "exp:1", "--eta", "exp:2", "--seed", "3"],
        "c44dae4894a027e24867a528e4deafb1df242fef4772026e7f8efd7905309a84",
    ),
    "moments-pair": (
        ["moments", "--order", "2", "--trials", "1005", "--pair", "{pair}", "--seed", "4"],
        "f131ac6005397168eddaec97c161dfa3650b9fa2747f47880d4f4fc970579374",
    ),
    "orders-d-exp-b3-a2": (
        ["orders", "--stat", "d", "--x", "b3", "--y", "a2", "--depth", "200", "--trials", "203",
         "--zeta", "exp:1", "--eta", "exp:2", "--seed", "5"],
        "1db0050cd3a146b824af840d1b337f025ba382f3b4e775257161e79e4d194157",
    ),
    "orders-f-pair-b1": (
        ["orders", "--stat", "f", "--x", "b1", "--depth", "200", "--trials", "203",
         "--pair", "{pair}", "--seed", "5"],
        "1c566a890934b6702ea0571452f0840e757d68f3b6c3c75ec5e57a17d733671d",
    ),
    "moments-pair-order4": (
        ["moments", "--order", "4", "--trials", "1005", "--pair", "{pair}", "--seed", "6"],
        "7710f5481a2dccb9a62f798bcf17c1a6fe83f405394eda047ef361a7574952b0",
    ),
    "moments-exp": (
        ["moments", "--order", "3", "--trials", "7", "--zeta", "exp:1", "--eta", "exp:2",
         "--seed", "4"],
        "a96eb8f1b5f099f9d54b1671f5acf4adbfc8535a0b723513a2a1277efeb75290",
    ),
}

SERIAL_CASES = {
    "simulate-csv": (
        ["simulate", "--steps", "5", "--seed", "7", "--format", "csv"],
        "3f20c92bab9edbbc1f90580e7c668f361e36631f22f9a1f3d05298e343647185",
    ),
    "simulate-text": (
        ["simulate", "--steps", "6", "--seed", "1"],
        "63e187c25292ba593945f35a79bff5647953433e41527fd3bde2be2fa4602716",
    ),
    "bridge-text": (
        ["bridge", "--target", "abab", "--seed", "5"],
        "1c81aaf3b8595123f5a58579528701c2f92cbd6f88d60e2d2e2df24eaccafc65",
    ),
    "bridge-json": (
        ["bridge", "--target", "aabbab", "--seed", "8", "--format", "json"],
        "9a435618cc701a9128fb3cdfba8b1b19ef7b25ed27a2eb29b307288e717b35ec",
    ),
    "infinite-bridge-csv": (
        ["infinite-bridge", "--pair", "{pair}", "--steps", "20", "--seed", "1", "--emit", "csv"],
        "7eee53689688d3db8e858f4df28c377175f0a08b421da6bd21df10b183378b19",
    ),
    "infinite-bridge-csv-500": (
        ["infinite-bridge", "--pair", "{pair}", "--steps", "500", "--seed", "11", "--emit", "csv"],
        "0762543ec0a2f02b120878c788012a9a2ac9f1207043386c8519d99a74c0f00d",
    ),
    "infinite-bridge-json-500": (
        ["infinite-bridge", "--pair", "{pair}", "--steps", "500", "--seed", "11", "--emit", "json"],
        "c88dd6c97611d87f4eed329cea40a4e54b9144d7222a151b0e185600c4c0fcbe",
    ),
    "bridge-json-300": (
        ["bridge", "--target", "{target}", "--seed", "12", "--format", "json"],
        "4eed1346da3c8ab2b623e77cbe11f686a4aa63591a0dada1b6c09b31f980da6d",
    ),
    "bridge-json-2000": (
        ["bridge", "--target", "{target2000}", "--seed", "13", "--format", "json"],
        "366a2356320af67f8e91480846b8fda8d35415f8b63f4d68af684fb290732e77",
    ),
    "pattern-prob-exact": (
        ["pattern-prob", "--pair", "{pair}", "--word", "abab"],
        "fe461f5bac3c62638a6ca177a19075d65731db94d0e1b93d24af60ab2d9fbb3a",
    ),
    "pattern-prob-word-pair": (
        ["pattern-prob", "--word-pair", "abab", "--word", "ab"],
        "1fd076bb6623b6e815f472b878a5cf87740da344ff173c72fbdee473bd8a9a02",
    ),
    "plackett-luce-sequential": (
        ["plackett-luce", "--alpha", "2", "--beta", "1", "sample", "--size", "10", "--seed", "9"],
        "57b9e5c0cbed47bd4b4d5e917d27ec9b2a1ce11b961c1b51358f94adf2a3488f",
    ),
    "plackett-luce-sort": (
        ["plackett-luce", "--alpha", "3/2", "--beta", "1", "sample", "--size", "6",
         "--method", "sort", "--seed", "9"],
        "6b645122a29ec1f1950bc24f8673dd9409935ca3d22923df1ad60ca30cd091ed",
    ),
    "boundary": (
        ["boundary", "--seq", "{seq}", "--pair", "{pair}", "--mmax", "2"],
        "13b0f3d7b4852ae659467aa3b885f7d7a5b9befa273da067e7099eba60e2419f",
    ),
    "boundary-long-mmax3": (
        ["boundary", "--seq", "{long_seq}", "--pair", "{pair}", "--mmax", "3"],
        "ed4b33921f90cba566035a61303da2b5a4c7b54d38d8ac9a84037c551186a319",
    ),
    "boundary-long-mmax4": (
        ["boundary", "--seq", "{long_seq}", "--pair", "{pair}", "--mmax", "4"],
        "1104c0617e3ba14d06e4ab77ba1632e47ec78d038eca2ca40edf9df139e13d11",
    ),
    "plackett-luce-transition-600": (
        ["plackett-luce", "--alpha", "3", "--beta", "2", "transition", "{pl_u}", "{pl_v}"],
        "6a1f0ef24057c1a5cdf8a068c53ce618939d24011aa6fc303f4ccb150cf06eed",
    ),
    "kernel-multi-step-500": (
        ["kernel", "multi-step", "{kernel_v}", "{kernel_w}"],
        "1ffcf047a1c4ee05f813abbb2e2f78a0ffb06d9d972cc63d856867a8278a4b5a",
    ),
}


def _shuffled(size: int, seed: int) -> str:
    """A fixed balanced word of the given size."""
    letters = list("ab" * size)
    random.Random(seed).shuffle(letters)
    return "".join(letters)


def _long_words() -> dict[str, str]:
    """Seeded long inputs for the integer exact paths.

    A size-600 word with a one-step successor (one a, then one b inserted at
    seeded slots), a size-500 word with a size-50 subword read at seeded
    letter positions, and a sequence of words of sizes 200 to 800.
    """
    rng = random.Random(6)
    u = _shuffled(600, 601)
    mid = rng.randint(0, len(u))
    mid = u[:mid] + "a" + u[mid:]
    cut = rng.randint(0, len(mid))
    w = _shuffled(500, 501)
    keep = sorted(
        rng.sample([i for i, ch in enumerate(w) if ch == "a"], 50)
        + rng.sample([i for i, ch in enumerate(w) if ch == "b"], 50)
    )
    return {
        "pl_u": u,
        "pl_v": mid[:cut] + "b" + mid[cut:],
        "kernel_w": w,
        "kernel_v": "".join(w[i] for i in keep),
        "long_seq": "\n".join(_shuffled(size, 800 + size) for size in (200, 350, 500, 800)) + "\n",
    }


@pytest.fixture
def files(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(fixture_pairs()["three-cell"].to_json()))
    seq = tmp_path / "seq.txt"
    seq.write_text("aabbab\nabaabbab\nababaabbab\n")
    targets = {
        name: _shuffled(size, size)
        for name, size in (("word_pair", 200), ("target", 300), ("target2000", 2000))
    }
    long_words = _long_words()
    long_seq = tmp_path / "long_seq.txt"
    long_seq.write_text(long_words.pop("long_seq"))
    return {"pair": str(pair), "seq": str(seq), "long_seq": str(long_seq), **targets, **long_words}


def _digest(capsys, argv, files):
    code = main([token.format(**files) for token in argv])
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SERIAL_CASES))
def test_golden_serial(name, capsys, files):
    argv, expected = SERIAL_CASES[name]
    assert _digest(capsys, argv, files) == expected


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(MC_CASES))
def test_golden_monte_carlo(name, jobs, capsys, files):
    argv, expected = MC_CASES[name]
    if jobs == "1":
        assert _digest(capsys, argv + ["--jobs", jobs], files) == expected
    else:  # a real pool, in an interpreter of its own
        done = main_apart([token.format(**files) for token in argv] + ["--jobs", jobs])
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(SERIAL_CASES.keys() | MC_CASES.keys()))
def test_out_file_gets_the_stdout_bytes(name, capsys, files, tmp_path):
    # --out writes exactly what stdout would get, and stdout then stays empty
    argv, _ = SERIAL_CASES.get(name) or MC_CASES[name]
    argv = [token.format(**files) for token in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out_file = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == stdout.encode("utf-8")


def test_input_error_writes_no_out_file(capsys, tmp_path):
    out_file = tmp_path / "out.txt"
    assert main(["subword", "abc", "ab", "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not out_file.exists()


def test_unopenable_out_path_exits_two(capsys, tmp_path):
    assert main(["subword", "ab", "a", "--out", str(tmp_path / "missing" / "out.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_golden_label_uniformly():
    path = sample_finite_bridge(_shuffled(100, 100), random.Random(14))
    text = "\n".join(prefix.to_string() for prefix in label_uniformly(path, random.Random(15)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == "aa3319a4b05ba9f9028101d2f5d2a75387b74752f70baef7684a79bbb95fe839"
