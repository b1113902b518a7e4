"""numpy's episode stream and float64 sum, reproduced in pure Python.

:func:`uniform_stream` returns the draws of
``numpy.random.default_rng(numpy.random.SeedSequence([seed, episode])).random``
bit for bit: the seed and episode are cut into little-endian uint32 words,
hashed into a 4-word ``SeedSequence`` pool, expanded by
``generate_state(4, uint64)`` into the state and increment of a PCG64
generator (O'Neill 2014: a 128-bit LCG with the XSL-RR output), and each
64-bit output ``x`` becomes the double ``(x >> 11) * 2**-53``.

:func:`add_reduce` is numpy's float64 ``add.reduce``: pairwise summation
(Higham 1993) over blocks of at most 128 elements, each summed in eight
interleaved accumulators. Its rounding, not the exact sum, is what
``Generator.choice`` normalises by.

``run`` samples through these, so the package does not depend on numpy.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Sequence

from .exceptions import ModelValidationError

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MASK53 = (1 << 53) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)

_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _words(n: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: the uint32 words of ``n``, least
    significant first; ``[0]`` for zero."""
    n = index(n)
    if n < 0:
        raise ModelValidationError(f"a seed or episode must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` (xor, multiply) constant pairs of a SeedSequence
    hash: each hash xors in its constant, advances it by ``mult`` and
    multiplies by the advanced one."""
    pairs = []
    for _ in range(count):
        advanced = (init * mult) & _MASK32
        pairs.append((init, advanced))
        init = advanced
    return tuple(pairs)


# mix_entropy hashes the 4 pool words, then once for each ordered pair of
# distinct pool words, then once per pool word for each entropy word past
# the pool; generate_state hashes 8 words with a constant of its own.
_FILL = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE)
_CROSS = tuple(
    zip(
        [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if s != d],
        _hash_consts(_FILL[-1][1], _MULT_A, _POOL_SIZE * (_POOL_SIZE - 1)),
    )
)
_STATE = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _state_words(entropy: list[int]) -> list[int]:
    """``SeedSequence(entropy).generate_state(8, uint32)``: the pool mixed
    from ``entropy`` and hashed out in a cycle."""
    pool = []
    for (x, m), word in zip(_FILL, entropy + [0] * _POOL_SIZE):
        v = ((word ^ x) * m) & _MASK32
        pool.append(v ^ v >> 16)
    for (src, dst), (x, m) in _CROSS:
        v = ((pool[src] ^ x) * m) & _MASK32
        v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        pool[dst] = v ^ v >> 16
    extra = entropy[_POOL_SIZE:]
    if extra:
        consts = iter(_hash_consts(_CROSS[-1][1][1], _MULT_A, _POOL_SIZE * len(extra)))
        for word in extra:
            for dst in range(_POOL_SIZE):
                x, m = next(consts)
                v = ((word ^ x) * m) & _MASK32
                v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
                pool[dst] = v ^ v >> 16
    words = []
    for word, (x, m) in zip(pool + pool, _STATE):
        v = ((word ^ x) * m) & _MASK32
        words.append(v ^ v >> 16)
    return words


def uniform_stream(seed: int, episode: int) -> Callable[[], float]:
    """The zero-argument ``random()`` of
    ``default_rng(SeedSequence([seed, episode]))``; both must be >= 0."""
    w = _state_words(_words(seed) + _words(episode))
    # generate_state(4, uint64) pairs the words little-endian; PCG64's
    # set_seed takes the state from uint64s 0:1 and the stream from 2:3,
    # high word first
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128

    def uniform() -> float:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        # XSL-RR rotates x right by the state's top 6 bits: the low 64 bits
        # of (x:x) >> rot. Shifting 11 further keeps the 53 bits of the double.
        return ((x << 64 | x) >> ((state >> 122) + 11) & _MASK53) * _DOUBLE_UNIT

    return uniform


def add_reduce(values: Sequence[float]) -> float:
    """numpy's ``add.reduce`` of a float64 row: below 8 elements a plain loop
    from ``-0.0``; up to 128, eight interleaved accumulators combined as a
    tree, then the tail; above, the two halves (split on a multiple of 8)
    summed alike and added."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= _BLOCK:
        stop = n - n % 8
        r = list(values[:8])
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[stop:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return add_reduce(values[:half]) + add_reduce(values[half:])
