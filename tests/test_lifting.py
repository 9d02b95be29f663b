import dataclasses

import numpy as np
import pytest

from wlift.lifting import (LiftOperator, adjoint, double_hankel_basis,
                           hankel_basis, lift, validate_basis)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_hankel_smallest_nontrivial():
    basis = hankel_basis(3, 2)
    assert basis.dims == (2, 2)
    np.testing.assert_array_equal(basis.support_counts, [1, 2, 1])
    np.testing.assert_allclose(basis.coefficients, [1, np.sqrt(2), 1])
    a2 = basis.element_dense(1)
    np.testing.assert_allclose(a2, [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]])


def test_hankel_paper_dimensions():
    basis = hankel_basis(59, 30)
    assert basis.dims == (30, 30)
    expected = np.minimum(np.arange(1, 60), 60 - np.arange(1, 60))
    expected = np.minimum(expected, 30)
    np.testing.assert_array_equal(basis.support_counts, expected)


def test_hankel_row_vector_lift():
    basis = hankel_basis(5, 1)
    assert basis.dims == (1, 5)
    np.testing.assert_array_equal(basis.support_counts, np.ones(5))
    np.testing.assert_allclose(basis.coefficients, np.ones(5))


def test_hankel_rejects_bad_pencil():
    with pytest.raises(ValueError):
        hankel_basis(5, 0)
    with pytest.raises(ValueError):
        hankel_basis(5, 6)


def test_hankel_lift_is_antidiagonal_matrix():
    basis = hankel_basis(3, 2)
    np.testing.assert_allclose(lift(basis, [1, 2, 3]), [[1, 2], [2, 3]])
    rng = np.random.default_rng(0)
    x = random_complex(rng, 9)
    m = lift(hankel_basis(9, 4), x)
    for i in range(4):
        for j in range(6):
            assert m[i, j] == x[i + j]


def test_lift_zero_and_length_check():
    basis = hankel_basis(4, 2)
    np.testing.assert_array_equal(lift(basis, np.zeros(4)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        lift(basis, np.zeros(5))


def test_double_hankel_shapes_and_pattern():
    basis = double_hankel_basis(59, 40)
    assert basis.dims == (40, 40)
    basis = double_hankel_basis(3, 2)
    assert basis.dims == (2, 4)
    r, c = basis.pattern(1)  # x_2
    cells = set(zip(r.tolist(), c.tolist()))
    assert cells == {(0, 1), (1, 0), (0, 3), (1, 2)}
    assert basis.support_counts[1] == 4


def test_double_hankel_lift_concatenates_conjugate_reversal():
    # oracle: build H(x) and H(conj(reverse x)) explicitly and concatenate
    rng = np.random.default_rng(1)
    for n, d in [(3, 2), (9, 5), (11, 4)]:
        x = random_complex(rng, n)
        expected = np.concatenate(
            [lift(hankel_basis(n, d), x),
             lift(hankel_basis(n, d), np.conj(x[::-1]))],
            axis=1)
        np.testing.assert_allclose(lift(double_hankel_basis(n, d), x),
                                   expected, atol=1e-14)


def test_double_hankel_real_vector_spec_example():
    np.testing.assert_allclose(lift(double_hankel_basis(3, 2), [1, 2, 3]),
                               [[1, 2, 3, 2], [2, 3, 2, 1]])


def test_double_hankel_lift_has_component_rank():
    # conjugate reversal keeps both blocks on the same exponential bases,
    # so the lifted rank equals the component count for unit-modulus bases
    rng = np.random.default_rng(2)
    for k in (1, 2, 4):
        freqs = rng.random(k)
        x = np.zeros(21, dtype=complex)
        for f in freqs:
            x += np.exp(2j * np.pi * f * np.arange(1, 22))
        s = np.linalg.svd(lift(double_hankel_basis(21, 14), x),
                          compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == k


def test_adjoint_single_element():
    basis = hankel_basis(3, 2)
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = 1
    np.testing.assert_allclose(adjoint(basis, m), [1, 0, 0])
    np.testing.assert_array_equal(adjoint(basis, np.zeros((2, 2))), np.zeros(3))


@pytest.mark.parametrize("make,n,d", [
    (hankel_basis, 59, 30),
    (double_hankel_basis, 59, 40),
])
def test_adjoint_inverts_lift(make, n, d):
    basis = make(n, d)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = random_complex(rng, n)
        back = adjoint(basis, lift(basis, x))
        assert np.max(np.abs(back - x)) <= 1e-12


@pytest.mark.parametrize("make,n,d", [
    (hankel_basis, 59, 30),
    (double_hankel_basis, 59, 40),
    (hankel_basis, 7, 3),
    (double_hankel_basis, 8, 5),
])
def test_constructed_bases_validate(make, n, d):
    report = validate_basis(make(n, d))
    assert report.all_pass
    assert report.first_failure is None


def test_basis_entry_normalization():
    for basis in (hankel_basis(59, 30), double_hankel_basis(59, 40)):
        for k in range(basis.n):
            dense = basis.element_dense(k)
            nz = dense[dense != 0]
            assert nz.size == basis.support_counts[k]
            np.testing.assert_allclose(
                nz, 1 / np.sqrt(basis.support_counts[k]), rtol=1e-14)
            assert abs(np.linalg.norm(dense) - 1.0) <= 1e-14


def test_hankel_patterns_tile_grid_once():
    basis = hankel_basis(59, 30)
    cover = np.zeros(basis.dims, dtype=int)
    np.add.at(cover, (basis.rows, basis.cols), 1)
    assert np.all(cover == 1)
    # tiling implies sum a_n^2 = d1 * d2
    assert abs(np.sum(basis.coefficients ** 2) - 30 * 30) < 1e-9


def test_validate_flags_injected_duplicate():
    basis = hankel_basis(3, 2)
    rows = basis.rows.copy()
    cols = basis.cols.copy()
    rows[-1], cols[-1] = rows[0], cols[0]  # duplicate a cell across elements
    broken = dataclasses.replace(basis, rows=rows, cols=cols)
    report = validate_basis(broken)
    assert not report.orthogonal
    assert report.first_failure is not None


def test_adjoint_dim_mismatch():
    with pytest.raises(ValueError):
        adjoint(hankel_basis(3, 2), np.zeros((3, 3)))


@pytest.mark.parametrize("make,n,d", [
    (hankel_basis, 21, 10),
    (double_hankel_basis, 21, 14),
])
def test_lift_operator_real_adjoint(make, n, d):
    # Re<forward(x), M> == Re<x, adjoint(M)> under positive cell weights,
    # including the conjugating cells of the double-Hankel lift
    basis = make(n, d)
    rng = np.random.default_rng(12)
    op = LiftOperator(basis, rng.uniform(0.1, 2.0, size=basis.rows.size))
    for _ in range(20):
        x = random_complex(rng, n)
        m = (rng.normal(size=basis.dims)
             + 1j * rng.normal(size=basis.dims))
        lhs = np.vdot(op.forward(x), m).real
        rhs = np.vdot(x, op.adjoint(m)).real
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("make,n,d", [
    (hankel_basis, 21, 10),
    (double_hankel_basis, 21, 14),
])
def test_lift_operator_normal_diag(make, n, d):
    basis = make(n, d)
    rng = np.random.default_rng(13)
    op = LiftOperator(basis, rng.uniform(0.1, 2.0, size=basis.rows.size))
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        expected = np.zeros(n)
        expected[k] = op.normal_diag[k]
        np.testing.assert_allclose(op.adjoint(op.forward(e)), expected,
                                   rtol=1e-14, atol=0)
    np.testing.assert_array_equal(LiftOperator(basis).normal_diag,
                                  basis.support_counts)
