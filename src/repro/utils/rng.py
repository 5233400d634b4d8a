"""Deterministic random-number management.

Every stochastic component of the reproduction (trace generation, the
evolutionary search, the DRL baseline, the progress predictor's sampling
step) draws from a :class:`numpy.random.Generator`.  To keep experiments
reproducible while still letting independent components draw independent
streams, we derive named child generators from a single root seed using
``numpy``'s ``SeedSequence`` spawning machinery.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a ``SeedSequence``
    or an existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def _name_to_offset(name: str) -> int:
    """Map a stream name to a stable 32-bit integer offset."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def spawn_generator(seed: SeedLike, name: str) -> np.random.Generator:
    """Derive an independent, named child generator from ``seed``.

    The same ``(seed, name)`` pair always yields the same stream, and two
    different names yield streams that are statistically independent.
    """
    if isinstance(seed, np.random.Generator):
        # Derive a child deterministically from the generator's state by
        # drawing a seed value from it.  This keeps child streams decoupled
        # from later draws on the parent only if called before further use;
        # factories should prefer integer root seeds.
        base = int(seed.integers(0, 2**32 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    elif seed is None:
        base = int(np.random.SeedSequence().generate_state(1)[0])
    else:
        base = int(seed)
    mixed = np.random.SeedSequence([base, _name_to_offset(name)])
    return np.random.default_rng(mixed)
