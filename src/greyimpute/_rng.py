"""Seed plumbing.

Every random draw in the package flows through :func:`make_rng`, which
builds a counter-based Philox generator so results are identical across
platforms and independent of call order between named streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "derive_seed"]

_STREAMS = {
    "generate": 0x67656E,
    "inject": 0x696E6A,
    "folds": 0x666F6C,
}


def make_rng(seed: int, stream: str) -> np.random.Generator:
    """Generator for ``seed`` in the named stream."""
    entropy = [int(seed), _STREAMS[stream]]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *extra: int) -> int:
    """Stable 63-bit sub-seed for (seed, extra...)."""
    ss = np.random.SeedSequence([int(seed), *[int(e) for e in extra]])
    return int(ss.generate_state(1)[0]) & 0x7FFFFFFFFFFFFFFF
