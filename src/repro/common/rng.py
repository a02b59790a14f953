"""Deterministic random streams and fixed-point accumulators.

Reproducibility rule: every stochastic model component draws from its
own named stream, derived from a single root seed.  Adding a new
component therefore never perturbs the draws of existing ones, and two
runs with the same configuration produce bit-identical statistics.

The paper's reference mix (0.95 instruction reads, 0.78 data reads,
0.40 data writes per instruction) and base TPI of 11.9 are fractional
per-instruction quantities.  :class:`FractionalAccumulator` converts
them into integer per-instruction counts whose long-run average is
exact, without randomness — which keeps the calibration of the analytic
model against the cycle simulator tight.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence

from repro.common.errors import ConfigurationError


class RandomStream:
    """A named, seeded pseudo-random stream (wraps :mod:`random.Random`).

    Draw-for-draw identity is load-bearing: every BENCH metric and the
    calibration tests pin exact values, so each method below must
    consume exactly the same Mersenne-Twister words as the plain
    :mod:`random.Random` call it stands in for.  The fast paths are
    therefore *provably identical* rewrites, not approximations:

    - ``random``/``shuffle`` are the underlying C methods, pre-bound;
    - ``randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)``, which is
      precisely what ``Random.randrange`` computes after its (pure,
      draw-free) argument validation;
    - ``choice(seq)`` is ``seq[_randbelow(len(seq))]``, ditto.
    """

    __slots__ = ("name", "_rng", "random", "shuffle", "_randbelow",
                 "_expovariate")

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        # Derive a stable 64-bit seed from (root_seed, name) so streams
        # are independent of creation order.
        digest = zlib.crc32(name.encode("utf-8"))
        rng = random.Random((root_seed << 32) ^ digest)
        self._rng = rng
        #: Uniform float in [0, 1) — the C method itself, no wrapper.
        self.random = rng.random
        #: In-place Fisher-Yates shuffle — the C-backed method itself.
        self.shuffle = rng.shuffle
        self._randbelow = rng._randbelow
        self._expovariate = rng.expovariate

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self._randbelow(hi - lo + 1)

    def choice(self, seq: Sequence):
        """Uniform choice from a non-empty sequence."""
        return seq[self._randbelow(len(seq))]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self.random() < p

    def expovariate(self, mean: float) -> float:
        """Exponentially distributed value with the given mean."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be positive, got {mean}")
        return self._expovariate(1.0 / mean)

    def geometric(self, mean: float) -> int:
        """Geometric run length (>= 1) with the given mean."""
        if mean < 1:
            raise ConfigurationError(f"geometric mean must be >= 1, got {mean}")
        if mean == 1:
            return 1
        p = 1.0 / mean
        n = 1
        draw = self.random
        while draw() >= p:
            n += 1
        return n


class StreamFactory:
    """Creates named :class:`RandomStream` objects from one root seed.

    >>> streams = StreamFactory(seed=42)
    >>> a = streams.stream("cpu0.data")
    >>> b = streams.stream("cpu1.data")
    >>> a.random() != b.random()
    True
    """

    __slots__ = ("seed", "_issued")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._issued: set = set()

    def stream(self, name: str) -> RandomStream:
        """Create the stream for ``name``; duplicate names are an error."""
        if name in self._issued:
            raise ConfigurationError(f"random stream {name!r} requested twice")
        self._issued.add(name)
        return RandomStream(self.seed, name)


class FractionalAccumulator:
    """Deterministic conversion of a fractional rate into integer counts.

    ``next()`` returns integers whose running mean converges to ``rate``
    (within one unit, binary floating point being what it is), using
    error-diffusion (Bresenham-style):

    >>> acc = FractionalAccumulator(0.4)
    >>> [acc.next() for _ in range(5)]
    [0, 0, 1, 0, 1]
    >>> acc = FractionalAccumulator(0.25)
    >>> sum(acc.next() for _ in range(100))
    25
    """

    __slots__ = ("rate", "_residue")

    def __init__(self, rate: float, phase: float = 0.0) -> None:
        if rate < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate}")
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {phase}")
        self.rate = rate
        self._residue = phase

    def next(self) -> int:
        """Return the integer count for the next step."""
        self._residue += self.rate
        whole = int(self._residue)
        self._residue -= whole
        return whole

    def reset(self, phase: float = 0.0) -> None:
        """Restart the error diffusion from ``phase``."""
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {phase}")
        self._residue = phase
