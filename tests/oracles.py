"""Dense oracles shared by the lifting and score tests."""

import numpy as np


def dense_element(basis, k):
    """A_k as a dense d1 x d2 matrix: 1/sqrt(omega_k) on its cells."""
    at = basis.element == k
    a = np.zeros(basis.dims)
    a[basis.rows[at], basis.cols[at]] = 1.0 / np.sqrt(basis.support_counts[k])
    return a


def dense_side_norms(basis, q, left):
    """||Q^H A_n||_F^2 (left) or ||A_n Q||_F^2 (right) for every n, densely."""
    a = np.stack([dense_element(basis, k) for k in range(basis.n)])
    prod = q.conj().T @ a if left else a @ q
    return np.linalg.norm(prod, axis=(1, 2)) ** 2
