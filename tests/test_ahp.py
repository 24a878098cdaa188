import numpy as np
import pytest

from mgopt.ahp import DEFAULT_JUDGMENTS, consistency_ratio, derive_weights, principal_eigen
from mgopt.objectives import weights_from_sequence

from oracles import consistent_matrix


def test_consistent_matrix_recovers_weights():
    """Weights used to build a consistent matrix come back out unchanged."""
    target = np.array([0.157, 0.483, 0.272, 0.088])
    target = target / target.sum()
    matrix = consistent_matrix(target)
    weights, ratio = derive_weights(matrix)
    assert np.abs(weights - target).max() < 1e-6
    assert abs(ratio) < 1e-9


def test_random_consistent_matrices_recover():
    rng = np.random.default_rng(11)
    for _ in range(50):
        target = rng.uniform(0.05, 1.0, size=rng.integers(2, 7))
        target /= target.sum()
        weights, ratio = derive_weights(consistent_matrix(target))
        assert np.abs(weights - target).max() < 1e-8
        assert abs(ratio) < 1e-9


def test_default_judgments_weights():
    weights, ratio = derive_weights()
    assert np.abs(weights - [0.1569, 0.4832, 0.2717, 0.0882]).max() < 5e-4
    assert 0.0 < ratio < 0.1
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_eigenvalue_at_least_n():
    """Saaty: the dominant eigenvalue of a reciprocal matrix is >= n."""
    rng = np.random.default_rng(3)
    scale = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=float)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        arr = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(scale)
                if rng.random() < 0.5:
                    v = 1.0 / v
                arr[i, j] = v
                arr[j, i] = 1.0 / v
        lam, vector = principal_eigen(arr)
        assert lam >= n - 1e-9
        assert np.all(vector > 0)
        residual = arr @ vector - lam * vector
        assert np.abs(residual).max() < 1e-8


def test_inconsistent_matrix_warns():
    # Circular preference a > b > c > a is maximally self-contradictory.
    matrix = (
        (1.0, 3.0, 1.0 / 3.0),
        (1.0 / 3.0, 1.0, 3.0),
        (3.0, 1.0 / 3.0, 1.0),
    )
    assert consistency_ratio(matrix) > 0.1
    with pytest.warns(UserWarning, match="consistency ratio"):
        weights, _ = derive_weights(matrix)
    assert weights == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-9)


def test_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        derive_weights([[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least two"):
        derive_weights([[1.0]])
    with pytest.raises(ValueError, match="positive"):
        derive_weights([[1.0, -2.0], [-0.5, 1.0]])
    with pytest.raises(ValueError, match="reciprocal"):
        derive_weights([[1.0, 2.0], [2.0, 1.0]])


def test_objective_weights_keys():
    mapping = weights_from_sequence(derive_weights()[0])
    assert list(mapping) == ["cost", "loss", "ens", "vdev"]
    assert sum(mapping.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="4 weights"):
        weights_from_sequence(derive_weights([[1.0, 1.0], [1.0, 1.0]])[0])
