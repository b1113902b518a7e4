"""The pure-Python episode stream and sum, pinned against numpy itself."""

from __future__ import annotations

import random

import numpy as np

from tollgate._stream import add_reduce, uniform_stream

# Seeds and episodes of one to seven uint32 words: 2**96 and up push the
# SeedSequence entropy past its 4-word pool, so the extra-entropy mixing runs.
_SEEDS = (0, 1, 301, 2**32 - 1, 2**32, 2**32 + 5, 2**60, 2**64 + 7, 2**96, 2**96 + 11, 2**200 + 3)
_EPISODES = (0, 1, 7, 4999, 2**32 - 1, 2**32, 2**40 + 3, 2**70)


def _pairs() -> list[tuple[int, int]]:
    rnd = random.Random(20260811)
    seed_bits, episode_bits = (8, 31, 32, 33, 64, 97, 160), (4, 20, 32, 40, 70)
    drawn = [
        (rnd.getrandbits(rnd.choice(seed_bits)), rnd.getrandbits(rnd.choice(episode_bits)))
        for _ in range(400)
    ]
    return [(s, e) for s in _SEEDS for e in _EPISODES] + drawn


def test_stream_matches_numpy_draw_for_draw():
    pairs = _pairs()
    assert (0, 0) in pairs
    assert any(s >= 2**96 for s, _ in pairs) and any(e >= 2**32 for _, e in pairs)
    for seed, episode in pairs:
        expected = np.random.default_rng(np.random.SeedSequence([seed, episode])).random(16)
        uniform = uniform_stream(seed, episode)
        assert [uniform() for _ in range(16)] == expected.tolist(), (seed, episode)


def test_add_reduce_matches_numpy_sum():
    rng = np.random.default_rng(5)
    for width in list(range(0, 300)) + [513, 1000, 4097, 9000]:
        values = rng.random(width) * 10.0 ** rng.integers(-8, 8, width)
        values[rng.random(width) < 0.2] = 0.0
        assert add_reduce(values.tolist()) == values.sum(), width
