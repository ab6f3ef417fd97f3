"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def cheb_points(count: int, a: float, b: float, interior: bool = False) -> np.ndarray:
    """Chebyshev sample points on [a, b], increasing.

    Second-kind points (endpoints included) by default; first-kind points
    (strictly interior) when ``interior`` is set.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if interior:
        k = np.arange(count)
        x = np.cos((2 * k + 1) * np.pi / (2 * count))
    elif count == 1:
        x = np.zeros(1)
    else:
        x = np.cos(np.arange(count) * np.pi / (count - 1))
    x = x[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def count_zero_sites(values: np.ndarray, tol: float) -> int:
    """Number of distinct zero locations suggested by a sampled function.

    A zero site is either a run of consecutive samples below ``tol`` in
    magnitude or a sign change between adjacent samples above it.
    """
    values = np.asarray(values)
    near = np.abs(values) <= tol
    runs = np.count_nonzero(near[1:] & ~near[:-1]) + int(near[:1].any())
    far = ~near
    positive = values > 0
    flips = np.count_nonzero(far[1:] & far[:-1] & (positive[1:] != positive[:-1]))
    return int(runs + flips)
