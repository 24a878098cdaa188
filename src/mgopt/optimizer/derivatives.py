"""Central finite differences with relative steps."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

# Coordinate i steps by DEFAULT_REL_STEP * max(1, |x_i|).
DEFAULT_REL_STEP = 1e-5


def gradient(objective: Callable[[np.ndarray], float], x: Sequence[float]) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    return jacobian(lambda z: [objective(z)], x, m=1)[0]


def jacobian(
    function: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    m: Optional[int] = None,
) -> np.ndarray:
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    h = DEFAULT_REL_STEP * np.maximum(1.0, np.abs(x))
    if m is None:
        m = np.asarray(function(x), dtype=float).size
    J = np.empty((m, x.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp = np.asarray(function(xp), dtype=float)
        fm = np.asarray(function(xm), dtype=float)
        J[:, i] = (fp - fm) / (2.0 * h[i])
    return J
