"""The stdlib seed stream against numpy's ``default_rng(seed).uniform``."""

import math
import random

import numpy as np
import pytest

from cvrobust._pcg64 import default_rng

#: 0-299, 300 random 31-bit seeds, and seeds that span 1 to 7 entropy words.
SEEDS = (
    list(range(300))
    + random.Random(20101).sample(range(2**31), 300)
    + [2**32 - 1, 2**32, 2**64, 2**64 + 12345, 2**128, 2**200 + 17]
)


def draw_sequence(rng):
    """The draws of ``random_physical_state`` (at two ranges) and of 8 robustify restarts."""
    out = []
    for nu_max, squeeze_max in ((2.5, 1.0), (1.0, 11.0)):
        out += list(rng.uniform(1.0, nu_max, 2))
        out += list(rng.uniform(-math.pi, math.pi, 5))
        out += list(rng.uniform(-squeeze_max, squeeze_max, 2))
    for _ in range(8):
        for bound in (math.pi, 1.0, math.pi, math.pi, 1.0, math.pi):
            out += list(rng.uniform(-bound, bound, 1))
    return out


def test_stream_matches_numpy_draw_for_draw():
    wrong = [s for s in SEEDS if draw_sequence(default_rng(s)) != draw_sequence(np.random.default_rng(s))]
    assert not wrong


def test_infinite_range_raises_like_numpy():
    for rng in (default_rng(1), np.random.default_rng(1)):
        with pytest.raises(OverflowError, match="range exceeds valid bounds"):
            rng.uniform(-1e308, 1e308, 2)
