"""Golden seeded streams of the library samplers.

The CLI digests in ``test_golden.py`` pin output bytes, which round every
estimate to six digits.  These cases pin the samplers themselves: each
hashes the full per-trial output list of a sampler together with the
generator's final state, so a change to any draw, to the order in which
draws are read, or to the number of draws made shows up here.  A digest
may change only together with a CHANGES.md entry that declares the new
stream.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from wordchain.bridges import simulate_forward
from wordchain.measures import (
    CanonicalPair,
    RatePair,
    StepMeasure,
    empirical_pair,
    fixture_pairs,
    pattern_matches,
)
from wordchain.orders import LabeledLetter, OrderSampler, d_samples, f_samples, moment_samples

def _many_cell_pair(cells: int) -> CanonicalPair:
    """A canonical pair on ``cells`` cells of uneven widths, zero-density cells interleaved.

    Cells come in neighbouring twos of equal width with mu densities d and
    2 - d, so mu's densities average to 1 over each two; d cycles through
    values that put a zero-density cell of mu (d = 0) or of nu (d = 2) in
    every few cells.
    """
    ds = [Fraction(d) for d in ("1/3", "0", "3/4", "2/5", "2", "1", "1/8", "9/7", "5/3")]
    widths = [Fraction(1 + j % 5, 7) for j in range(cells // 2)]
    total = sum(widths)
    bps, mu = [Fraction(0)], []
    for j, width in enumerate(widths):
        d = ds[j % len(ds)]
        for dens in (d, 2 - d):
            bps.append(bps[-1] + width / (2 * total))
            mu.append(dens)
    return CanonicalPair.from_mu(StepMeasure(tuple(bps), tuple(mu)))


PAIRS = {
    "three-cell": lambda: fixture_pairs()["three-cell"],
    "cells-12": lambda: _many_cell_pair(12),  # at least 9 positive cells a side
    "cells-90": lambda: _many_cell_pair(90),  # more than 64 positive cells a side
    "skewed": lambda: fixture_pairs()["skewed"],
    "exp-1-2": lambda: RatePair(1, 2),
    "atomic": lambda: empirical_pair("aabbab"),  # ties: pattern_matches only
}
A1, B2 = LabeledLetter("a", 1), LabeledLetter("b", 2)


def _pattern(pair, rng):
    return pattern_matches(pair, "abab", 3001, rng)


def _moments(pair, rng):
    return moment_samples(OrderSampler.from_pair(pair, rng), 2, 2049)


def _d(pair, rng):
    return d_samples(OrderSampler.from_pair(pair, rng), A1, B2, 40, 201)


def _f(pair, rng):
    return f_samples(OrderSampler.from_pair(pair, rng), B2, 40, 201)


SAMPLERS = {"pattern": _pattern, "moments": _moments, "d": _d, "f": _f}

DIGESTS = {
    ("pattern", "three-cell", 7): "8ad077d127d99fc4533328ac88e71c9c48af4b3a6b6cadab02c761b9fd7c2b18",
    ("pattern", "three-cell", 8): "a1c9f67b9d4922b8f5576a7351198f98f1d24e6c17792f2d2f2719e22fab50d0",
    ("pattern", "skewed", 7): "1edcec5f15f0e40ed5cdc4c52e4aee2e135d3e27f86063e3ab3105d99d4b4b42",
    ("pattern", "skewed", 8): "85bacce84a6a9bddc0daf14e890ac0d5a4bf483b072ccb04eca8b3ea3280767e",
    ("pattern", "exp-1-2", 7): "5db396531224c9d9e69f02fca5b11473c5525756f1f25df6ee700348b651d922",
    ("pattern", "exp-1-2", 8): "7c18347d2f5a288f43f281193ed50ba2db933b3f82e522b9b9c74fb8904bda77",
    ("pattern", "atomic", 7): "7a292df7e46e69f2395ba07b04e29ed7b11d3e946e1a6ce43f6ad7b492df8398",
    ("pattern", "atomic", 8): "60d96a679165a07e47b26e3ccf5df17e951069f0d5289d8a21c14e4a1f722ab8",
    ("moments", "three-cell", 7): "bd050f81ca60d1d3c3a32674a9539d80f90754a5ee8f87e74c934c002cea03e1",
    ("moments", "three-cell", 8): "88c27b4896341413965543d37a2847d2a68e9b6034621e085c994f3678c05028",
    ("moments", "skewed", 7): "045f1f84151fbe41bb3e76048464c2628fd623fac0b11e500d4691dac2a84412",
    ("moments", "skewed", 8): "b61e84839ae1c1833b3d7b2baec67d278a56e24547d102f48e88d9efcbd655d0",
    ("moments", "exp-1-2", 7): "fff65f92a2b42cce27003d60e95aea051317f345d0d5477fff5508d51e21dbfb",
    ("moments", "exp-1-2", 8): "54576c54139d460cf0abafc7a6cd14cedc21fcc3048c70268e692429ece82990",
    ("d", "three-cell", 7): "a29c5bf91b11c8e4e921d91b17abe81a7e88031e7c668a54a52a2a190d571cfb",
    ("d", "three-cell", 8): "0b50b19cf9a7d7bb4fbc163da8050f574e670a8136ccb6942e8b253ff42d46fd",
    ("d", "skewed", 7): "945193d4dbcd5cd1127a294e00236b972f6945bf50cc99ff08c9e35bf19a1b21",
    ("d", "skewed", 8): "ea877e687a860f83ff5c2ab59b2aa103c0e0e3adef52e7cb81062b2d2c13b1cf",
    ("d", "exp-1-2", 7): "f8a67fccabc29f0988823ea3b10df0a7b588ebc439dba4c59f5544da4d831d6f",
    ("d", "exp-1-2", 8): "03e7cb51d147934e0dca9bdd8f94989807b283330ab99d399828dbb77b2db723",
    ("f", "three-cell", 7): "cebb2e565649edb006a8378c498c577700549078d6c44ed6d9621f42e463447b",
    ("f", "three-cell", 8): "09cb91230219560f6c58a5ed5ea58ae63611432e37af94b9d5320510c7bfcaab",
    ("f", "skewed", 7): "095acf6789b9bc81fbbddffa859881571cdc47e84f30f392f8b6220969c229c4",
    ("f", "skewed", 8): "1554a6a9a0e3ba4d4f62c0468403d11684e03b26ab922d17a6950577267cf9c4",
    ("f", "exp-1-2", 7): "61bf58859b65c3bebf32a8d340b3cb8db782bdfbc2022f0221519552d0ac0542",
    ("f", "exp-1-2", 8): "8589518ea27fa156b7814a235370c174d22463007a6358f66fcfed0b68ea1ae0",
    ("pattern", "cells-12", 7): "b80fbf79a82eb0105a0dcd55ac04676bbb405c6cdab2ce714dba4946896782d2",
    ("pattern", "cells-12", 8): "bb85ed8e978cd7b11fa3d796f51ffc031585a79efe4b9f3937f23f66ad6ab7f6",
    ("pattern", "cells-90", 7): "0b0198659fa5d7b1d816f30da8b0a022b54d9cfa8a9e1717cdb4d5a721e43e18",
    ("pattern", "cells-90", 8): "7bcea15f9b9d0dad9a8d346dd28ac6a63241a851687384773b9a07473658f337",
    ("moments", "cells-12", 7): "90dcd263522fc029ce5db23b7a6f880bb41e0964c74ca4785f6369230e0a2202",
    ("moments", "cells-12", 8): "a7a8afe26ecce067285af59da44df2574e2f4c6810f3ab0c72432ce671526b95",
    ("moments", "cells-90", 7): "aa078583c2921d81c26af70314da8b7df4692a89bb4349cb67e2da7835528e9d",
    ("moments", "cells-90", 8): "b940a580520582a5f446cf56d76003dc0109906bd553928089570c65736c8205",
    ("d", "cells-12", 7): "0216096e075e9abcc22f0043d03a651e01ccaa1e243f0873ead5e7e6570aa324",
    ("d", "cells-12", 8): "8e9f5303d30aa392dd759bb611fc5625020042828cc2c9d8a6e35e813bbee200",
    ("d", "cells-90", 7): "2c53b63dbc7825d5702044fec2429cff05a0c1a400edc0621aedfd1a3da3e79d",
    ("d", "cells-90", 8): "06bc5de4cfa62a790891fde15acf2ae3ef1b918aa54a7c1e2106d14f37b5b8bc",
}
FORWARD_DIGESTS = {
    7: "e202aae8fb4bf0e4ec4f3b63cb130ce0f2ccc71edce4ee180e5668cdc99d20bc",
    8: "42ff80b14550d9d8944d9fb20f8789db1d44d83555f5ba5f02d9efe01944856d",
}


def _hash(out, rng: random.Random) -> str:
    return hashlib.sha256(repr((out, rng.getstate())).encode()).hexdigest()


def _digest(sampler: str, pair_name: str, seed: int) -> str:
    rng = random.Random(seed)
    return _hash(SAMPLERS[sampler](PAIRS[pair_name](), rng), rng)


@pytest.mark.parametrize(("sampler", "pair_name", "seed"), sorted(DIGESTS))
def test_stream_unchanged(sampler, pair_name, seed):
    assert _digest(sampler, pair_name, seed) == DIGESTS[sampler, pair_name, seed]


@pytest.mark.parametrize("seed", sorted(FORWARD_DIGESTS))
def test_forward_stream_unchanged(seed):
    rng = random.Random(seed)
    assert _hash(simulate_forward(300, rng), rng) == FORWARD_DIGESTS[seed]
