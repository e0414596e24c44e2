"""Deterministic per-node randomness.

Every randomized algorithm takes a single root seed, and a run is a
pure function of it (the test suite asserts byte-identical transcripts).
:func:`derive_int`/:func:`derive_rng` hash ``(seed, labels...)`` into
one value or :class:`random.Random` stream for centralized helpers.

Node streams are keyed counters: node ``v`` under root seed ``s`` has
the key ``key_v = mix64(derive_int(s, "node"), v mod 2⁶⁴)`` (one
sha256 per network) and its draw ``i`` is the word ``mix64(key_v, i)``
(SplitMix64's output function).  Two forms consume the words the same
way, so they agree by construction: :class:`CounterRandom`, the
``ctx.rng`` of a node program, whose inherited stdlib methods
(``randrange``, ``choice``, ``sample``, ``shuffle``, ...) all go
through its ``getrandbits``; and :class:`CounterStreams`, one key and
one counter per node that a kernel draws from in one array pass.
``getrandbits(k)`` is the top ``k`` bits of the next ``⌈k/64⌉`` words
read big-endian; ``random()`` is ``getrandbits(53) · 2⁻⁵³``.  A
stream's whole state is ``(key, counter)``, so a handoff between the
forms copies two integers and replays nothing.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_TWO_53 = 2.0**-53


def derive_int(seed: Any, *labels: Any) -> int:
    """Derive a 64-bit integer from ``seed`` and ``labels`` by hashing."""
    material = repr((seed,) + labels).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: Any, *labels: Any) -> random.Random:
    """Derive an independent RNG stream from ``seed`` and ``labels``."""
    return random.Random(derive_int(seed, *labels))


def mix64(key: int, i: int) -> int:
    """Word ``i`` of the stream keyed ``key``: SplitMix64's output
    for the state ``key + (i + 1)·γ``."""
    z = (key + (i + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def mix64_array(keys, counters):
    """:func:`mix64` over ``uint64`` arrays (wrapping arithmetic)."""
    z = keys + (counters + np.uint64(1)) * np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def node_keys(seed: Any, nodes) -> "np.ndarray":
    """The ``uint64`` stream keys of ``nodes`` under root ``seed``."""
    if isinstance(nodes, range):
        labels = np.arange(
            nodes.start, nodes.stop, nodes.step, dtype=np.int64
        ).astype(np.uint64)
    else:
        labels = np.array([v & _MASK for v in nodes], dtype=np.uint64)
    return mix64_array(np.uint64(derive_int(seed, "node")), labels)


class CounterRandom(random.Random):
    """The scalar keyed-counter stream: draw ``i`` is
    ``mix64(key, i)``.

    Only the word source is overridden; every derived method is the
    stdlib's.  The inherited Mersenne-Twister state is never read.
    """

    def __new__(cls, key: int = 0, counter: int = 0):
        # Before 3.11 the base ``__new__`` takes at most one argument
        # and seeds the unused Mersenne-Twister state with it; a
        # constant keeps that cheap and off ``os.urandom``.
        return super().__new__(cls, 0)

    def __init__(self, key: int = 0, counter: int = 0):
        self.seed(key, counter)

    def seed(self, key: int = 0, counter: int = 0) -> None:
        self.key = key & _MASK
        self.counter = counter
        self.gauss_next = None

    def getstate(self):
        return (self.key, self.counter, self.gauss_next)

    def setstate(self, state) -> None:
        self.key, self.counter, self.gauss_next = state

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        words = -(-k // 64)
        i = self.counter
        self.counter = i + words
        if words == 1:
            return mix64(self.key, i) >> (64 - k)
        value = 0
        for j in range(i, i + words):
            value = (value << 64) | mix64(self.key, j)
        return value >> (64 * words - k)

    def random(self) -> float:
        i = self.counter
        self.counter = i + 1
        return (mix64(self.key, i) >> 11) * _TWO_53


class CounterStreams:
    """The numpy form: one keyed counter stream per dense node index.

    :meth:`words` and :meth:`randrange` draw once for each index in
    ``idx`` (indices must be distinct), aligned with ``idx``.
    """

    __slots__ = ("keys", "counters")

    def __init__(self, keys):
        self.keys = keys
        self.counters = np.zeros(len(keys), dtype=np.uint64)

    def words(self, idx):
        """The next 64-bit word of each index (``uint64``)."""
        counters = self.counters[idx]
        self.counters[idx] = counters + np.uint64(1)
        return mix64_array(self.keys[idx], counters)

    def randrange(self, idx, bounds):
        """``CounterRandom.randrange(bound)`` per index: ``k =
        bound.bit_length()``, the top ``k`` bits of the next word,
        retried while ``>= bound``.  ``bounds`` (scalar or aligned
        array) lies in ``[1, 2⁶³)``; returns ``int64``."""
        idx = np.asarray(idx, dtype=np.int64)
        bounds = np.broadcast_to(
            np.asarray(bounds, dtype=np.uint64), idx.shape
        )
        # bit_length: frexp's exponent, less one where the float
        # conversion rounded the value up to a power of two.
        _, k = np.frexp(bounds.astype(np.float64))
        k = k.astype(np.uint64)
        k -= (bounds >> (k - np.uint64(1))) == 0
        shift = np.uint64(64) - k
        out = np.empty(idx.shape, dtype=np.int64)
        pending = np.arange(idx.size)
        while pending.size:
            r = self.words(idx[pending]) >> shift[pending]
            ok = r < bounds[pending]
            out[pending[ok]] = r[ok]
            pending = pending[~ok]
        return out

    def scalars(self):
        """Every stream as a :class:`CounterRandom` at its counter."""
        return list(
            map(CounterRandom, self.keys.tolist(), self.counters.tolist())
        )
