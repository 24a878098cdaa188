"""Importance weights from a pairwise judgment matrix.

The analytic hierarchy process turns a reciprocal matrix of pairwise
preferences into a weight vector: the principal eigenvector, normalised to
sum to one.  The consistency ratio measures how self-contradictory the
judgments are; ratios above the conventional 0.1 threshold draw a warning
but still produce weights, since mild inconsistency is expected of human
judgments.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

# Average random-matrix consistency indices (Saaty), indexed by size.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24,
                7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

CONSISTENCY_LIMIT = 0.1

EIGEN_TOL = 1e-10
EIGEN_MAX_ITERATIONS = 1000

# Pairwise preferences over (cost, loss, outage cost, voltage deviation)
# giving roughly (0.16, 0.48, 0.27, 0.09): losses matter most, then supply
# reliability, then cost, with voltage deviation as a tie-breaker.
DEFAULT_JUDGMENTS = (
    (1.0, 1.0 / 3.0, 1.0 / 2.0, 2.0),
    (3.0, 1.0, 2.0, 5.0),
    (2.0, 1.0 / 2.0, 1.0, 3.0),
    (1.0 / 2.0, 1.0 / 5.0, 1.0 / 3.0, 1.0),
)


def validate_matrix(matrix: Sequence[Sequence[float]]) -> None:
    """Raise ValueError unless ``matrix`` is a square, positive, finite,
    reciprocal judgment matrix of a size with a random consistency index."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"judgment matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("judgment matrix needs at least two criteria")
    if n > max(RANDOM_INDEX):
        raise ValueError(f"no random consistency index for {n} criteria")
    if not np.all(np.isfinite(matrix)) or np.any(matrix <= 0):
        raise ValueError("judgment entries must be positive and finite")
    recip = matrix * matrix.T
    if not np.allclose(recip, 1.0, rtol=1e-6, atol=1e-9):
        raise ValueError("judgment matrix must be reciprocal: a[j,i] == 1/a[i,j]")


def principal_eigen(matrix: np.ndarray) -> Tuple[float, np.ndarray]:
    """Dominant eigenvalue and sum-one eigenvector by power iteration.

    A positive matrix has a simple dominant eigenvalue with a positive
    eigenvector, so power iteration from the uniform vector converges.
    """
    n = matrix.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(EIGEN_MAX_ITERATIONS):
        w = matrix @ v
        lam_new = float(w.sum())
        w /= lam_new
        done = abs(lam_new - lam) <= EIGEN_TOL * max(1.0, abs(lam_new)) and np.abs(w - v).max() <= EIGEN_TOL
        v, lam = w, lam_new
        if done:
            break
    # With v normalised to sum 1, the dominant eigenvalue is the sum of the
    # mapped vector.
    lam = float((matrix @ v).sum())
    return lam, v


def consistency_ratio(matrix: Sequence[Sequence[float]]) -> float:
    """Saaty consistency ratio; 0 for a perfectly consistent matrix."""
    return derive_weights(matrix, limit=math.inf)[1]


def derive_weights(
    matrix: Optional[Sequence[Sequence[float]]] = None,
    limit: float = CONSISTENCY_LIMIT,
) -> Tuple[np.ndarray, float]:
    """(weights, consistency ratio) from a judgment matrix.

    Without an argument the built-in judgment set is used.  A ratio above
    ``limit`` warns but still returns the eigenvector weights.
    """
    arr = np.asarray(DEFAULT_JUDGMENTS if matrix is None else matrix, dtype=float)
    validate_matrix(arr)
    lam, vector = principal_eigen(arr)
    n = arr.shape[0]
    ri = RANDOM_INDEX[n]
    ratio = 0.0 if ri == 0.0 else float((lam - n) / (n - 1) / ri)
    if ratio > limit:
        warnings.warn(
            f"judgment matrix consistency ratio {ratio:.4f} exceeds {limit}; "
            "the derived weights reflect contradictory preferences",
            stacklevel=2,
        )
    return vector, ratio
