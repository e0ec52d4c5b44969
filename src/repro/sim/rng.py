"""Deterministic random-number management.

Every stochastic decision in the reproduction -- fault injection, synthetic
workload generation, arrival jitter -- flows through an :class:`RngStream`.
A stream is created from an integer *seed* plus a string *scope*; two
streams created with the same ``(seed, scope)`` pair produce identical
sequences, and streams with different scopes are statistically independent.

This "stream splitting" design means an experiment can be re-run with the
same seed and reproduce its fault pattern bit-for-bit even when unrelated
parts of the code add or remove random draws: each subsystem owns its own
stream, so draws never interleave across subsystems.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["RngStream", "derive_seed"]


def derive_seed(seed: int, scope: str) -> int:
    """Derive a child seed from a root ``seed`` and a string ``scope``.

    The derivation hashes both inputs with SHA-256 so that nearby root
    seeds (0, 1, 2, ...) still yield uncorrelated child seeds, and so the
    mapping is stable across Python versions (unlike :func:`hash`).

    Args:
        seed: Root integer seed (any non-negative integer).
        scope: Arbitrary label identifying the consumer, e.g.
            ``"faults/channel-A"``.

    Returns:
        A 63-bit non-negative integer seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    digest = hashlib.sha256(f"{seed}:{scope}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngStream:
    """A named, reproducible random stream.

    Wraps :class:`numpy.random.Generator` with the small set of draw
    primitives the simulator needs, plus cheap child-stream splitting.

    Example:
        >>> root = RngStream(seed=42, scope="experiment")
        >>> faults = root.split("faults")
        >>> faults.bernoulli(0.5) in (True, False)
        True
    """

    def __init__(self, seed: int, scope: str = "root") -> None:
        self._seed = seed
        self._scope = scope
        self._generator = np.random.default_rng(derive_seed(seed, scope))

    @property
    def seed(self) -> int:
        """Root seed this stream was derived from."""
        return self._seed

    @property
    def scope(self) -> str:
        """Scope label identifying this stream."""
        return self._scope

    def split(self, scope: str) -> "RngStream":
        """Create an independent child stream.

        Args:
            scope: Label appended to this stream's scope with ``/``.

        Returns:
            A new :class:`RngStream` whose draws are independent of the
            parent's and of any sibling's.
        """
        return RngStream(self._seed, f"{self._scope}/{scope}")

    def bernoulli(self, probability: float) -> bool:
        """Draw a Bernoulli trial.

        Args:
            probability: Success probability in ``[0, 1]``.

        Returns:
            ``True`` with the given probability.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            return False
        if probability == 1.0:
            return True
        return bool(self._generator.random() < probability)

    def uniforms(self, count: int) -> List[float]:
        """Draw ``count`` floats uniformly from ``[0, 1)``.

        One vectorized ``Generator.random(count)`` call: numpy yields
        the same sequence for it as for ``count`` scalar ``random()``
        calls, so ``u < p`` over these uniforms reproduces the
        :meth:`bernoulli` sequence of the non-degenerate probabilities
        (the injector's fault column relies on this; its draw-order
        tests pin it).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._generator.random(count).tolist()

    def uniform(self, low: float, high: float) -> float:
        """Draw a float uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high})")
        return float(self._generator.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._generator.integers(low, high + 1))

    def choice(self, options: Sequence) -> object:
        """Draw one element uniformly from a non-empty sequence."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self._generator.integers(0, len(options)))
        return options[index]

    def sample(self, options: Sequence, count: int) -> List:
        """Draw ``count`` distinct elements uniformly, order randomized."""
        if count > len(options):
            raise ValueError(
                f"cannot sample {count} items from a sequence of {len(options)}"
            )
        indices = self._generator.permutation(len(options))[:count]
        return [options[int(i)] for i in indices]

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        permutation = self._generator.permutation(len(items))
        items[:] = [items[int(i)] for i in permutation]

    def exponential(self, mean: float) -> float:
        """Draw from an exponential distribution with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._generator.exponential(mean))

    def poisson_count(self, mean: float) -> int:
        """Draw a Poisson-distributed count with the given mean."""
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        return int(self._generator.poisson(mean))

    def geometric_failures(self, success_probability: float,
                           cap: Optional[int] = None) -> int:
        """Number of failures before the first success.

        Used to draw "how many consecutive corrupted transmissions" without
        simulating each trial when the success probability is very close to
        one (the common case at automotive BERs).

        Args:
            success_probability: Per-trial success probability in ``(0, 1]``.
            cap: Optional upper bound on the returned count.

        Returns:
            Failure count ``>= 0`` (capped if ``cap`` is given).
        """
        if not 0.0 < success_probability <= 1.0:
            raise ValueError(
                f"success probability must be in (0, 1], got {success_probability}"
            )
        if success_probability == 1.0:
            return 0
        draw = int(self._generator.geometric(success_probability)) - 1
        if cap is not None:
            draw = min(draw, cap)
        return draw

    def normal(self, mean: float, std: float) -> float:
        """Draw from a normal distribution."""
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        if std == 0:
            return mean
        return float(self._generator.normal(mean, std))

    def log_uniform_int(self, low: int, high: int) -> int:
        """Draw an integer log-uniformly from ``[low, high]``.

        Used for message sizes, which in real automotive traces span
        multiple orders of magnitude.
        """
        if low <= 0 or high < low:
            raise ValueError(f"invalid log-uniform range [{low}, {high}]")
        exponent = self.uniform(math.log(low), math.log(high + 1))
        return min(high, max(low, int(math.exp(exponent))))
