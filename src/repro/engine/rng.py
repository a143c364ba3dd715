"""Deterministic random number generation for workloads.

All stochastic workload behaviour (compute-time draws, lock selection) goes
through :class:`WorkloadRng` so that a run is fully reproducible from its
seed, and so that per-thread streams are independent of thread interleaving.
"""

from __future__ import annotations

import random


class WorkloadRng:
    """A seeded random stream with the handful of draws workloads need."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def spawn(self, index: int) -> "WorkloadRng":
        """Derive an independent per-thread stream.

        The derivation hashes the parent seed with the child index so the
        child stream does not depend on how many draws the parent made.
        """
        return WorkloadRng(self._rng.randrange(2**62) ^ (index * 0x9E3779B97F4A7C15))

    def uniform_int(self, low: int, high: int) -> int:
        """Inclusive uniform integer draw."""
        return self._rng.randint(low, high)

    def exponential_int(self, mean: float, minimum: int = 0) -> int:
        """Exponential draw rounded to an int, floored at ``minimum``."""
        return max(minimum, int(self._rng.expovariate(1.0 / mean)))

    def random(self) -> float:
        return self._rng.random()
