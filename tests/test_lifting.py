import dataclasses
import gc
import weakref

import numpy as np
import pytest

from wlift.lifting import (LiftingBasis, LiftOperator, adjoint,
                           double_hankel_basis, hankel_basis, lift)
from wlift.scores import (leverage_scores, subspace_of,
                          weighted_leverage_scores)
from wlift.signal import Mixture, SampleSet
from wlift.weights import identity_weights

from oracles import dense_element


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_hankel_smallest_nontrivial():
    basis = hankel_basis(3, 2)
    assert basis.dims == (2, 2)
    np.testing.assert_array_equal(basis.support_counts, [1, 2, 1])
    a2 = dense_element(basis, 1)
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


def test_hankel_rejects_bad_pencil():
    with pytest.raises(ValueError):
        hankel_basis(5, 0)
    with pytest.raises(ValueError):
        hankel_basis(5, 6)
    # a float size would build float dims, or a basis with empty elements
    with pytest.raises(ValueError, match="integers"):
        hankel_basis(21, np.float64(10.0))
    with pytest.raises(ValueError, match="integers"):
        hankel_basis(59, 2.5)
    # a bool is Integral, but True is no size
    for n, pencil in ((True, 1), (21, True)):
        with pytest.raises(ValueError, match="integers"):
            hankel_basis(n, pencil)
    assert hankel_basis(np.int64(21), np.int64(10)).dims == (10, 12)


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
    at = basis.element == 1  # x_2
    r, c = basis.rows[at], basis.cols[at]
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


def test_basis_is_freed_by_reference_count_after_a_lift():
    basis = hankel_basis(21, 10)
    lift(basis, np.ones(21))
    ref = weakref.ref(basis)
    gc.disable()
    try:
        del basis
        assert ref() is None
    finally:
        gc.enable()


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
    # building checked the conditions; recount them from the stored cells
    basis = make(n, d)
    d2 = basis.dims[1]
    np.testing.assert_array_equal(basis.support_counts,
                                  np.bincount(basis.element, minlength=n))
    assert np.all(basis.support_counts >= 1)
    assert np.unique(basis.rows * d2 + basis.cols).size == basis.rows.size
    assert np.unique(basis.element * d2 + basis.cols).size == basis.rows.size


def test_basis_entry_normalization():
    for basis in (hankel_basis(59, 30), double_hankel_basis(59, 40)):
        for k in range(basis.n):
            dense = dense_element(basis, k)
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
    # tiling implies sum omega_n = d1 * d2
    assert basis.support_counts.sum() == 30 * 30


def _reference_cells(n, d):
    """(element, row, col, conjugated) per cell, built element by element.

    Each antidiagonal lists its cells in ascending row order; double-Hankel
    puts an element's first-block cells ahead of its mirror-block cells.
    """
    d2 = n - d + 1
    hankel, double = [], []
    for e in range(n):
        first = [(e, i, e - i, False) for i in range(d) if 0 <= e - i < d2]
        a = n - 1 - e  # the mirror block's antidiagonal holding conj(x_e)
        mirror = [(e, i, d2 + a - i, True) for i in range(d) if 0 <= a - i < d2]
        hankel += first
        double += first + mirror
    return hankel, double


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_builders_pin_cell_order(n):
    # the per-element sums (normal_diag, the scores) add each element's
    # cells in this order, so another order would move them in their last bits
    for d in range(1, n + 1):
        hankel, double = _reference_cells(n, d)
        for basis, ref in ((hankel_basis(n, d), hankel),
                           (double_hankel_basis(n, d), double)):
            cells = zip(basis.element.tolist(), basis.rows.tolist(),
                        basis.cols.tolist(), basis.conjugated.tolist())
            assert list(cells) == ref


def test_basis_rejects_bad_cells():
    # element 1 empty, an element index past N, a negative one
    for element in ([0, 0], [0, 2], [-1, 1]):
        with pytest.raises(ValueError):
            LiftingBasis(2, (2, 2), [0, 1], [0, 1], element)
    # a row or a mask entry missing
    with pytest.raises(ValueError):
        LiftingBasis(2, (2, 2), [0], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        LiftingBasis(2, (2, 2), [0, 1], [0, 1], [0, 1], conjugated=[True])
    # a column or a row outside the 2 x 2 grid, which a flat index wraps
    for rows, cols in (([0, 0], [0, 3]), ([0, -1], [0, 1])):
        with pytest.raises(ValueError, match="2 x 2 grid"):
            LiftingBasis(2, (2, 2), rows, cols, [0, 1])
    # a float, a bool, a zero or a missing grid dimension
    for dims in ((2, 2.0), (True, 2), (2, 0), (2,)):
        with pytest.raises(ValueError, match="dims"):
            LiftingBasis(2, dims, [0, 1], [0, 1], [0, 1])


@pytest.mark.parametrize("build", [
    lambda: LiftingBasis(2.0, (2, 2), [0, 1], [0, 1], [0, 1]),
    lambda: LiftingBasis("2", (2, 2), [0, 1], [0, 1], [0, 1]),
    lambda: LiftingBasis(True, (1, 1), [0], [0], [0]),
    lambda: LiftingBasis(0, (1, 1), [], [], []),
    lambda: Mixture("5", [(1, 1j)]),
    lambda: Mixture(None, [(1, 1j)]),
    lambda: SampleSet("5", [1]),
    lambda: SampleSet(None, []),
], ids=["basis-float", "basis-str", "basis-bool", "basis-zero",
        "mixture-str", "mixture-none", "sampleset-str", "sampleset-none"])
def test_constructors_reject_bad_counts(build):
    # a count that is no number gets the ValueError every other bad
    # argument gets, not numpy's TypeError from comparing or indexing it
    with pytest.raises(ValueError):
        build()


def test_basis_stores_n_as_int():
    assert type(LiftingBasis(np.int64(2), (2, 2), [0, 1], [0, 1],
                             [0, 1]).n) is int


def test_basis_comparison_is_identity():
    # a basis compares by identity, as its array fields have no truth value
    basis = hankel_basis(3, 2)
    assert (basis == hankel_basis(3, 2)) is False
    assert (basis == basis) is True


def test_basis_stores_dims_as_int_tuple():
    # a list or numpy ints would fail the weights' and subspace's dims checks
    basis = LiftingBasis(2, [2, np.int64(2)], [0, 1], [0, 1], [0, 1])
    assert basis.dims == (2, 2)
    assert all(type(v) is int for v in basis.dims)
    sub = subspace_of(basis, np.array([1.0, 2.0]))
    mu = weighted_leverage_scores(basis, identity_weights(basis.dims), sub)
    np.testing.assert_allclose(mu.values, leverage_scores(basis, sub).values)


def test_basis_derives_support_counts():
    # omega_n counts element n's cells, so it cannot be passed in or set
    basis = LiftingBasis(3, (2, 2), [1, 0, 0, 1], [1, 1, 0, 0], [2, 1, 0, 1])
    np.testing.assert_array_equal(basis.support_counts, [1, 2, 1])
    with pytest.raises(TypeError):
        LiftingBasis(3, (2, 2), [0, 1, 0], [0, 1, 1], [0, 1, 2],
                     support_counts=np.ones(3))
    with pytest.raises(ValueError):
        dataclasses.replace(basis, support_counts=np.ones(3))


def _duplicate_cell():
    # dataclasses.replace runs the constructor's checks again
    basis = hankel_basis(3, 2)
    rows = basis.rows.copy()
    cols = basis.cols.copy()
    rows[-1], cols[-1] = rows[0], cols[0]  # duplicate a cell across elements
    return dataclasses.replace(basis, rows=rows, cols=cols)


def _shared_column():
    # element 1 puts both of its cells in column 0; no cell is shared
    return LiftingBasis(2, (2, 2), rows=[0, 0, 1], cols=[1, 0, 0],
                        element=[0, 1, 1])


@pytest.mark.parametrize("broken,fault", [
    (_duplicate_cell, r"two cells share grid position \(0, 0\)"),
    (_shared_column, "element 1 has two cells in column 0"),
], ids=["orthogonal", "column_sparsity"])
def test_validate_flags_injected_duplicate(broken, fault):
    with pytest.raises(ValueError, match=fault):
        broken()


def test_lift_path_rejects_a_shared_cell():
    # elements 0 and 1 both sit at (0, 0): a lift would keep one of them,
    # and complete() would drop the other from its program; such a basis
    # cannot be built, so lift, adjoint and complete never receive one
    with pytest.raises(ValueError, match=r"share grid position \(0, 0\)"):
        LiftingBasis(3, (2, 2), [0, 0, 1], [0, 0, 1], [0, 1, 2])


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


def _reference_forward(basis, cell, x):
    vals = x[basis.element]
    vals = np.where(basis.conjugated, np.conj(vals), vals)
    m = np.zeros(basis.dims, dtype=complex)
    m[basis.rows, basis.cols] = cell * vals
    return m


def _reference_adjoint(basis, cell, m):
    # per-part bincounts over the cells sorted into grid order
    at = np.argsort(basis.rows * basis.dims[1] + basis.cols)
    vals = cell[at] * m[basis.rows[at], basis.cols[at]]
    vals = np.where(basis.conjugated[at], np.conj(vals), vals)
    element = basis.element[at]
    return (np.bincount(element, weights=vals.real, minlength=basis.n)
            + 1j * np.bincount(element, weights=vals.imag, minlength=basis.n))


def _partial_cover():
    # 5 of 9 cells covered, two of them conjugating
    return LiftingBasis(3, (3, 3), rows=[0, 1, 2, 0, 2], cols=[0, 1, 0, 1, 2],
                        element=[0, 1, 1, 2, 2],
                        conjugated=[False, False, True, True, False])


@pytest.mark.parametrize("make", [
    lambda: hankel_basis(21, 10),
    lambda: double_hankel_basis(21, 14),
    _partial_cover,
], ids=["hankel", "double-hankel", "partial-cover"])
def test_lift_operator_matches_scatter_reference(make):
    # the gather lift and one-bincount adjoint add in the same order as a
    # 2-D scatter and per-part bincounts in grid order, so the results are
    # equal, not close
    basis = make()
    rng = np.random.default_rng(14)
    for cell in (rng.uniform(0.1, 2.0, size=basis.rows.size),
                 np.ones(basis.rows.size)):
        op = LiftOperator(basis, cell)
        for _ in range(10):
            x = random_complex(rng, basis.n)
            m = (rng.normal(size=basis.dims)
                 + 1j * rng.normal(size=basis.dims))
            assert np.all(op.forward(x) == _reference_forward(basis, cell, x))
            assert np.all(op.adjoint(m)
                          == _reference_adjoint(basis, cell, m))


REAL_FORM_CASES = [(59, 40), (21, 14), (21, 7), (10, 10)]


def _real_form_op(n, d, weighting):
    """A double-Hankel operator with unit or mirror-symmetric cell weights."""
    basis = double_hankel_basis(n, d)
    if weighting == "unit":
        return LiftOperator(basis)
    rng = np.random.default_rng(15)
    wl, wr = (w + w[::-1] for w in (rng.uniform(0.1, 1.0, basis.dims[0]),
                                    rng.uniform(0.1, 1.0, basis.dims[1])))
    return LiftOperator(basis, wl[basis.rows] * wr[basis.cols])


@pytest.mark.parametrize("weighting", ["unit", "mirror"])
@pytest.mark.parametrize("n,d", REAL_FORM_CASES)
def test_real_form_is_the_unitary_change_of_basis(n, d, weighting):
    # R = U^H M V with U = (I + iJ)/sqrt(2), V = [[I, iI], [iJ, J]]/sqrt(2)
    op = _real_form_op(n, d, weighting)
    real = op.real_form()
    d1, d2 = op.dims
    j1, jq, iq = np.eye(d1)[::-1], np.eye(d2 // 2)[::-1], np.eye(d2 // 2)
    u = (np.eye(d1) + 1j * j1) / np.sqrt(2)
    v = np.block([[iq, 1j * iq], [1j * jq, jq]]) / np.sqrt(2)
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = random_complex(rng, n)
        m, r = op.forward(x), real.forward(x)
        assert r.dtype == np.float64 and r.shape == (d1, d2)
        np.testing.assert_allclose(r, u.conj().T @ m @ v, rtol=0,
                                   atol=1e-14 * np.abs(m).max())
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(np.linalg.svd(r, compute_uv=False), s,
                                   rtol=0, atol=1e-13 * s[0])


@pytest.mark.parametrize("weighting", ["unit", "mirror"])
@pytest.mark.parametrize("n,d", REAL_FORM_CASES)
def test_real_form_adjoint_and_normal_diag(n, d, weighting):
    op = _real_form_op(n, d, weighting)
    real = op.real_form()
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = random_complex(rng, n)
        z = rng.normal(size=op.dims)
        lhs = np.sum(real.forward(x) * z)
        rhs = np.vdot(x, real.adjoint(z)).real
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    for k in range(n):
        for unit in (1.0, 1j):
            e = np.zeros(n, dtype=complex)
            e[k] = unit
            np.testing.assert_allclose(real.adjoint(real.forward(e)),
                                       op.normal_diag[k] * e, rtol=0,
                                       atol=1e-14 * op.normal_diag[k])


@pytest.mark.parametrize("weighting", ["unit", "mirror"])
@pytest.mark.parametrize("n,d", REAL_FORM_CASES)
def test_real_form_is_bit_exact(n, d, weighting):
    # R = [Re A + J Im A, J Re A - Im A] for the left half A of the complex
    # lift, term by term: another summation order would move solve bits
    op = _real_form_op(n, d, weighting)
    real = op.real_form()
    rng = np.random.default_rng(18)
    for _ in range(5):
        x = random_complex(rng, n)
        a = op.forward(x)[:, :op.dims[1] // 2]
        flip = np.flipud
        expected = np.hstack((a.real + flip(a.imag), flip(a.real) - a.imag))
        assert np.all(real.forward(x) == expected)


@pytest.mark.parametrize("make", [
    lambda: LiftOperator(hankel_basis(21, 10)),
    lambda: LiftOperator(_partial_cover()),
    # left weights that are not mirror-symmetric
    lambda: LiftOperator(double_hankel_basis(21, 14),
                         (1.0 + np.arange(14))[double_hankel_basis(21, 14).rows]),
], ids=["hankel", "partial-cover", "asymmetric-weights"])
def test_real_form_needs_a_centro_hermitian_lift(make):
    assert make().real_form() is None
