"""Dense oracles shared by the lifting and score tests."""

import numpy as np


def dense_element(basis, k):
    """A_k as a dense d1 x d2 matrix: 1/sqrt(omega_k) on its cells."""
    at = basis.element == k
    a = np.zeros(basis.dims)
    a[basis.rows[at], basis.cols[at]] = 1.0 / np.sqrt(basis.support_counts[k])
    return a
