"""Synthetic datasets for desk-scale training and evaluation.

The ring dataset (eight Gaussian modes on the unit circle, class labels =
mode index) is the standard testbed for conditional flow training; the 1-D
two-point dataset is the smallest case where distillation quality can be
measured against exact endpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

N_MODES = 8
MODE_SIGMA = 0.1
RING_RADIUS = 1.0


_ANGLES = 2.0 * np.pi * np.arange(N_MODES) / N_MODES
_CENTERS = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1) * RING_RADIUS
_CENTERS.flags.writeable = False


def ring_centers() -> np.ndarray:
    """The N_MODES mode centers, equally spaced on the circle of radius
    RING_RADIUS, shape (N_MODES, 2); one read-only array, made once."""
    return _CENTERS


def sample_ring(rng: np.random.Generator, n: int):
    """Draw n points from the Gaussian ring mixture (N_MODES modes of
    standard deviation MODE_SIGMA).

    Returns (x0, labels) where labels are the mode indices, usable directly
    as condition ids.  Draw order (labels, then offsets) is part of the
    seeded contract.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    labels = rng.integers(0, N_MODES, n)
    x0 = _CENTERS[labels] + MODE_SIGMA * rng.standard_normal((n, 2))
    return x0, labels


def sample_two_point(rng: np.random.Generator, n: int):
    """1-D dataset of exactly two points at -1 and +1, labels 0 and 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    labels = rng.integers(0, 2, n)
    x0 = np.where(labels[:, None] == 0, -1.0, 1.0).astype(np.float64)
    return x0, labels
