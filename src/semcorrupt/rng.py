"""Seeded deterministic randomness for every stochastic operation.

All randomness flows through :class:`Stream`, a SplitMix64 generator with a
documented output sequence, so seeded operations are bit-reproducible:

* state update: ``state <- (state + GOLDEN) mod 2**64``
* output word: ``mix64(state)`` (the SplitMix64 finalizer)
* ``uniform``: ``(next_u64() >> 11) * 2.0**-53``, a float in ``[0, 1)``
* ``below(n)``: rejection sampling on whole 64-bit words followed by ``% n``,
  which is unbiased; ``below(1)`` returns 0 without consuming a word
* ``shuffle``: Fisher-Yates from the top index down; position ``i`` swaps
  with ``j = below(i + 1)`` for ``i = len-1 .. 1``
* ``normals``: Box-Muller pairs ``(r*cos(2*pi*u2), r*sin(2*pi*u2))`` with
  ``r = sqrt(-2*log(1 - u1))``; the pair consumes uniforms ``u1`` then ``u2``

Sub-seeds for per-example or per-epoch randomness come from
:func:`derive_seed`, an order-sensitive chain of ``mix64`` calls.

Word ``k`` (from 1) of the stream seeded ``s`` is ``mix64(s + k * GOLDEN)``,
a pure function of (seed, counter), so batches of words, of sub-seeds
(:func:`derive_seeds`) and of ``below`` draws are computed as arrays with the
same bits as the scalar loops.  :func:`below_rows` is the one batched
``below`` draw and the one rejected-word fallback (such a row is drawn by the
scalar stream); patch and n-gram shuffles and minibatch plans draw through it.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    v = value & MASK64
    v ^= v >> 30
    v = (v * _MUL1) & MASK64
    v ^= v >> 27
    v = (v * _MUL2) & MASK64
    v ^= v >> 31
    return v


def derive_seed(*parts: int) -> int:
    """Combine integer parts into a sub-seed; sensitive to order and arity."""
    acc = GOLDEN
    for part in parts:
        acc = mix64((acc + GOLDEN) ^ mix64(part & MASK64))
    return acc


def _mix64_vec(words: np.ndarray) -> np.ndarray:
    v = words.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MUL1)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MUL2)
    v ^= v >> np.uint64(31)
    return v


def as_words(values) -> np.ndarray:
    """Integers (an int, a sequence or an integer array) as a uint64 array of
    at least one dimension, reduced mod 2**64 as :func:`derive_seed` reduces
    its parts."""
    if isinstance(values, np.ndarray):
        return np.atleast_1d(values.astype(np.uint64))
    if np.ndim(values) == 0:
        return np.array([int(values) & MASK64], dtype=np.uint64)
    try:
        return np.array(values, dtype=np.uint64)
    except OverflowError:   # values below 0 or at 2**64 and above
        return np.array([int(v) & MASK64 for v in values], dtype=np.uint64)


def derive_seeds(*parts) -> np.ndarray:
    """Vectorized :func:`derive_seed`: each part is an int or an integer
    array, broadcast together; element ``i`` equals ``derive_seed`` of the
    parts' ``i``-th elements."""
    acc = np.array([GOLDEN], dtype=np.uint64)
    for part in parts:
        acc = _mix64_vec((acc + np.uint64(GOLDEN)) ^ _mix64_vec(as_words(part)))
    return acc


def stream_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` words of the stream at each seed, one row per
    seed (a lone int is one seed)."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    return _mix64_vec(as_words(seeds)[..., np.newaxis] + steps)


def below_rows(seeds: np.ndarray, bounds) -> np.ndarray:
    """``Stream(seed).below(b)`` for each ``b`` of ``bounds`` in order, one
    int64 row per seed.  The words are one array; a row with a word that
    ``below`` rejects takes its draws from the scalar stream.  Every bound
    must be at least 2: ``below(1)`` takes no word."""
    if np.any(np.less(bounds, 2)):
        raise ValueError("below_rows() needs every bound >= 2")
    seeds, bounds = as_words(seeds), as_words(bounds)
    words = stream_words(seeds, len(bounds))
    wrap = (np.uint64(MASK64) % bounds + np.uint64(1)) % bounds   # 2**64 % bound
    draws = (words % bounds).astype(np.int64)
    for r in np.flatnonzero((words > np.uint64(MASK64) - wrap).any(axis=1)).tolist():
        stream = Stream(int(seeds[r]))
        draws[r] = [stream.below(b) for b in bounds.tolist()]
    return draws


def uniform_words(words: np.ndarray) -> np.ndarray:
    """``uniform`` on one word each: ``(word >> 11) * 2**-53``."""
    return (words >> np.uint64(11)) * 2.0**-53


def box_muller(u: np.ndarray) -> np.ndarray:
    """The ``normals`` Box-Muller map on consecutive uniform pairs along
    the last axis."""
    u1, u2 = u[..., 0::2], u[..., 1::2]
    # in place, with the same bits: sqrt(-2 log(1 - u1)) and theta are the
    # only scratch (products commute exactly)
    r = 1.0 - u1
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = (2.0 * np.pi) * u2
    out = np.empty(u.shape)
    np.multiply(r, np.cos(theta, out=out[..., 0::2]), out=out[..., 0::2])
    np.multiply(r, np.sin(theta, out=theta), out=out[..., 1::2])
    return out


class Stream:
    """SplitMix64 stream; every drawing method documents its word usage."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized ``uniform``; identical to ``count`` sequential draws."""
        if count == 0:
            return np.empty(0)
        words = stream_words(self._state, count)[0]
        self._state = (self._state + GOLDEN * count) & MASK64
        return uniform_words(words)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n < 1:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = self.next_u64()
            if word < limit:
                return word % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: position ``i`` swaps with ``below(i + 1)``
        for ``i = len-1 .. 1``, drawn one at a time, so the stream is left
        where those scalar draws leave it."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def normals(self, count: int) -> np.ndarray:
        """Standard normal draws via Box-Muller on consecutive uniform pairs."""
        if count == 0:
            return np.empty(0)
        return box_muller(self.uniforms(2 * ((count + 1) // 2)))[:count]
