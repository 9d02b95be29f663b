import math

import numpy as np
import pytest

from wlift.experiments import random_mixture
from wlift.lifting import double_hankel_basis, hankel_basis
from wlift.scores import (ORTHONORMAL_TOL, ScoreVector, SubspacePair,
                          _side_norms, a_norm_2, a_norm_inf, leverage_scores,
                          lifting_coefficient, probability_floor,
                          scores_to_text, subspace_of, weighted_leverage_scores)
from wlift.signal import synthesize
from wlift.weights import WeightPair, identity_weights

from oracles import dense_element, dense_side_norms


def dense_leverage_scores(basis, sub):
    """Oracle: materialize each basis element and use dense matrix products."""
    return basis.n / sub.rank * np.maximum(
        dense_side_norms(basis, sub.left, True),
        dense_side_norms(basis, sub.right, False))


def test_subspace_all_ones():
    basis = hankel_basis(3, 2)
    sub = subspace_of(basis, np.ones(3))
    assert sub.rank == 1
    np.testing.assert_allclose(np.abs(sub.left[:, 0]), 1 / np.sqrt(2) * np.ones(2))


def test_subspace_rank_matches_component_count():
    rng = np.random.default_rng(5)
    for k in (1, 2, 4, 7):
        mix = random_mixture(59, k, rng, min_separation=0.02)
        sub = subspace_of(hankel_basis(59, 30), synthesize(mix))
        assert sub.rank == k


def test_subspace_rejects_zero():
    with pytest.raises(ValueError):
        subspace_of(hankel_basis(3, 2), np.zeros(3))


def test_subspace_pair_rank_is_its_column_count():
    # a stored rank apart from the columns would rescale every score
    sub = subspace_of(hankel_basis(21, 10), synthesize(random_mixture(
        21, 3, np.random.default_rng(4))))
    assert SubspacePair(sub.left, sub.right).rank == 3
    for left, right in ((sub.left, sub.right[:, :2]),
                        (sub.left[:, 0], sub.right[:, 0])):
        with pytest.raises(ValueError, match="column counts"):
            SubspacePair(left, right)


def test_subspace_pair_rejects_rank_zero():
    # every score divides by the rank, so an empty pair must not be built
    with pytest.raises(ValueError, match="rank 0"):
        SubspacePair(np.zeros((10, 0)), np.zeros((12, 0)))


def test_subspace_pair_rejects_non_orthonormal_factors():
    # the scores read U U^H as the left projector: factors 2U would give
    # 4x scores, and nearly dependent columns an ill-conditioned Gram
    sub = subspace_of(hankel_basis(21, 10), synthesize(random_mixture(
        21, 2, np.random.default_rng(3))))
    u, v = sub.left, sub.right
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-13
    dependent = [np.column_stack([u[:, 0], u[:, 0] + eps * u[:, 1]])
                 for eps in (3e-6, 1e-9)]
    for left, right in ((2 * u, v), (u, 2 * v),
                        (u * (1 + 2 * ORTHONORMAL_TOL), v),
                        *((q, v) for q in dependent)):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspacePair(left, right)
    # a unitary mix of the columns spans the same subspace and passes
    rot = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert SubspacePair(u @ rot, v @ rot).rank == 2


def test_leverage_scores_all_ones_hand_value():
    basis = hankel_basis(3, 2)
    mu = leverage_scores(basis, subspace_of(basis, np.ones(3)))
    np.testing.assert_allclose(mu.values, [1.5, 1.5, 1.5], atol=1e-10)


def test_leverage_scores_match_dense_oracle():
    rng = np.random.default_rng(2)
    for basis in (hankel_basis(17, 8), double_hankel_basis(17, 12)):
        mix = random_mixture(17, 3, rng)
        sub = subspace_of(basis, synthesize(mix))
        mu = leverage_scores(basis, sub)
        np.testing.assert_allclose(mu.values, dense_leverage_scores(basis, sub),
                                   rtol=1e-10)


def test_side_norms_match_dense_definition():
    # ||Q^H A_n||_F^2 and ||A_n Q||_F^2 from the grouped row sum of
    # `side_groups`, for any Q; double-Hankel rows repeat within an element
    # (one cell per block), so a right group must sum its rows of Q first
    rng = np.random.default_rng(8)
    for basis in (hankel_basis(9, 4), double_hankel_basis(9, 4)):
        for left, d in ((True, basis.dims[0]), (False, basis.dims[1])):
            q = rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))
            np.testing.assert_allclose(
                _side_norms(q, basis.side_groups(left)),
                dense_side_norms(basis, q, left), rtol=1e-12)


def test_side_groups_are_distinct_rows():
    # equal groups share one row of G, E[j, n] is 1/omega_n times the
    # number of element n's groups equal to row j (double-Hankel holds a
    # left group {r} once per block), and each element's left entries add
    # to one (one group per cell)
    for basis in (hankel_basis(21, 10), double_hankel_basis(21, 10)):
        for left in (True, False):
            g_rows, e = basis.side_groups(left)
            assert np.unique(g_rows, axis=0).shape[0] == g_rows.shape[0]
            held = e * basis.support_counts
            np.testing.assert_allclose(held, np.round(held), rtol=1e-15)
            assert np.all(held.sum(axis=0) >= 1)  # no element goes unread
        np.testing.assert_allclose(basis.side_groups(True)[1].sum(axis=0),
                                   1, rtol=1e-14)
    # a Hankel lift's groups are single rows (left) and single columns
    basis = hankel_basis(21, 10)
    for left, d in ((True, 10), (False, 12)):
        g_rows = basis.side_groups(left)[0]
        assert g_rows.shape == (d, d) and np.all(g_rows.sum(axis=1) == 1)
        np.testing.assert_array_equal(np.sort(g_rows.argmax(axis=1)),
                                      np.arange(d))


def test_full_subspace_scores_bounded():
    basis = hankel_basis(9, 4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    sub = subspace_of(basis, x)
    mu = leverage_scores(basis, sub)
    assert np.all(mu.values <= 9 / sub.rank + 1e-10)


def test_score_support_product_bound():
    # mu_n * omega_n <= N on random mixtures
    rng = np.random.default_rng(9)
    basis = hankel_basis(59, 30)
    for _ in range(50):
        mix = random_mixture(59, int(rng.integers(1, 8)), rng)
        mu = leverage_scores(basis, subspace_of(basis, synthesize(mix)))
        assert np.all(mu.values * basis.support_counts <= 59 * (1 + 1e-10))


def test_weighted_equals_unweighted_for_identity():
    rng = np.random.default_rng(3)
    basis = hankel_basis(31, 16)
    mix = random_mixture(31, 4, rng)
    sub = subspace_of(basis, synthesize(mix))
    mu = leverage_scores(basis, sub)
    wmu = weighted_leverage_scores(basis, identity_weights(basis.dims), sub)
    np.testing.assert_allclose(wmu.values, mu.values, atol=1e-10)


def test_weighted_scores_scale_invariant():
    rng = np.random.default_rng(4)
    basis = hankel_basis(21, 10)
    mix = random_mixture(21, 3, rng)
    sub = subspace_of(basis, synthesize(mix))
    wl = 0.5 + rng.random(10)
    wr = 0.5 + rng.random(12)
    base = weighted_leverage_scores(basis, WeightPair(wl, wr), sub)
    scaled = weighted_leverage_scores(
        basis, WeightPair(2.0 * wl, 7.0 * wr), sub)
    np.testing.assert_allclose(scaled.values, base.values, atol=1e-10)


def test_weighted_scores_match_dense_oracle():
    # P = W Q (Q^H W^2 Q)^-1 Q^H W per side, applied to each dense A_n
    def projection(w, q):
        wq = w[:, None] * q
        return wq @ np.linalg.inv(wq.conj().T @ wq) @ wq.conj().T

    rng = np.random.default_rng(12)
    for basis in (hankel_basis(17, 8), double_hankel_basis(17, 12)):
        sub = subspace_of(basis, synthesize(random_mixture(17, 3, rng)))
        weights = WeightPair(0.2 + rng.random(basis.dims[0]),
                             0.2 + rng.random(basis.dims[1]))
        p_l = projection(weights.left_diag, sub.left)
        p_r = projection(weights.right_diag, sub.right)
        dense = [basis.n / sub.rank * max(
                     np.linalg.norm(p_l @ dense_element(basis, k)) ** 2,
                     np.linalg.norm(dense_element(basis, k) @ p_r) ** 2)
                 for k in range(basis.n)]
        mu = weighted_leverage_scores(basis, weights, sub)
        np.testing.assert_allclose(mu.values, dense, rtol=1e-10)


def test_weighted_scores_singular_guard():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(1))))
    wl = np.zeros(4)
    wl[0] = 1.0  # kills all but one row; Gram loses rank
    with pytest.raises(ValueError, match="ill-conditioned"):
        weighted_leverage_scores(basis, WeightPair(wl, np.ones(6)), sub)


def test_lifting_coefficient_hankel_values():
    assert abs(lifting_coefficient(hankel_basis(3, 2)) - 2.5) < 1e-12
    # closed form for N=59, d=30: 2 * H(29) + 1/30
    harmonic29 = sum(1.0 / i for i in range(1, 30))
    assert abs(lifting_coefficient(hankel_basis(59, 30))
               - (2 * harmonic29 + 1.0 / 30)) < 1e-12


def test_lifting_coefficient_logarithmic_growth():
    vals = []
    for d in (8, 16, 32, 64):
        vals.append(lifting_coefficient(hankel_basis(2 * d - 1, d)))
    # R grows like 2 log d + O(1): successive differences approach 2 log 2
    diffs = np.diff(vals)
    np.testing.assert_allclose(diffs, 2 * math.log(2), atol=0.15)


@pytest.mark.parametrize("make,n,d", [
    (hankel_basis, 59, 30), (hankel_basis, 21, 4),
    (double_hankel_basis, 59, 40), (double_hankel_basis, 21, 4),
])
def test_lifting_coefficient_matches_element_loop(make, n, d):
    # the per-element loop, adding in element order, is the reference
    basis = make(n, d)
    total = 0.0
    for k in range(n):
        rows = basis.rows[basis.element == k]
        total += np.bincount(rows).max() / basis.support_counts[k]
    assert lifting_coefficient(basis) == total


def test_lifting_coefficient_constant_support():
    # all omega_n = N gives R = 1 (wrap-around-style support profile)
    from wlift.lifting import LiftingBasis
    n = 4
    element = np.repeat(np.arange(n), 4)
    rows = np.tile(np.arange(4), n)
    basis = LiftingBasis(n, (4, 4), rows, (rows + element) % 4, element)
    assert abs(lifting_coefficient(basis) - 1.0) < 1e-12


def test_probability_floor_saturation_and_floor():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(0))))
    mu = leverage_scores(basis, sub)
    huge = type(mu)(values=mu.values * 1e9, rank_used=mu.rank_used)
    np.testing.assert_array_equal(probability_floor(huge, 2.0, 9), np.ones(9))
    tiny = type(mu)(values=mu.values * 1e-12, rank_used=mu.rank_used)
    np.testing.assert_allclose(probability_floor(tiny, 1e-6, 9),
                               np.full(9, 1 / 9))


def test_a_norms_zero_matrix():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(0))))
    mu = leverage_scores(basis, sub)
    assert a_norm_inf(basis, mu, np.zeros(basis.dims)) == 0
    assert a_norm_2(basis, mu, np.zeros(basis.dims)) == 0
    zero = ScoreVector(np.where(np.arange(9) == 4, 0.0, mu.values),
                       mu.rank_used)
    with pytest.raises(ValueError, match="strictly positive"):
        a_norm_inf(basis, zero, np.zeros(basis.dims))


@pytest.mark.parametrize("structure, n, d", [(hankel_basis, 21, 10),
                                             (double_hankel_basis, 21, 14)])
def test_a_norms_match_dense_inner_products(structure, n, d):
    # <A_n, M> for a complex M from the materialised elements; double-Hankel
    # sums each element's cells over both blocks
    basis = structure(n, d)
    rng = np.random.default_rng(d)
    sub = subspace_of(basis, synthesize(random_mixture(n, 3, rng)))
    mu = leverage_scores(basis, sub)
    m = rng.standard_normal(basis.dims) + 1j * rng.standard_normal(basis.dims)
    inner = np.array([np.sum(dense_element(basis, j) * m)
                      for j in range(basis.n)])
    omega = basis.support_counts
    k = mu.rank_used
    want_inf = np.max(np.abs(n * inner) / (k * mu.values * np.sqrt(omega)))
    want_2 = np.sqrt(np.sum(n * np.abs(inner) ** 2 / (k * mu.values * omega)))
    np.testing.assert_allclose(a_norm_inf(basis, mu, m), want_inf, rtol=1e-12)
    np.testing.assert_allclose(a_norm_2(basis, mu, m), want_2, rtol=1e-12)


def _oversized_matrix_case():
    basis = hankel_basis(59, 30)
    sub = subspace_of(basis, synthesize(random_mixture(
        59, 2, np.random.default_rng(3))))
    # a 31 x 31 matrix whose top-left block is the right-sized f0
    f0 = np.zeros((31, 31), dtype=complex)
    f0[:30, :30] = sub.left @ sub.right.conj().T
    return basis, leverage_scores(basis, sub), f0


def test_a_norm_inf_rejects_mismatched_matrix():
    basis, mu, f0 = _oversized_matrix_case()
    assert a_norm_inf(basis, mu, f0[:30, :30]) > 0
    with pytest.raises(ValueError, match="matrix"):
        a_norm_inf(basis, mu, f0)


def test_a_norm_2_rejects_mismatched_matrix():
    basis, mu, f0 = _oversized_matrix_case()
    assert a_norm_2(basis, mu, f0[:30, :30]) > 0
    with pytest.raises(ValueError, match="matrix"):
        a_norm_2(basis, mu, f0)


def test_weighted_scores_reject_mismatched_shapes():
    basis = hankel_basis(59, 30)
    sub31 = subspace_of(hankel_basis(61, 31), synthesize(random_mixture(
        61, 2, np.random.default_rng(4))))
    with pytest.raises(ValueError, match="subspace"):
        weighted_leverage_scores(basis, identity_weights((31, 31)), sub31)
    sub = subspace_of(basis, synthesize(random_mixture(
        59, 2, np.random.default_rng(4))))
    with pytest.raises(ValueError, match="do not match"):  # 31 on 30 rows
        weighted_leverage_scores(basis, identity_weights((31, 31)), sub)
    # one entry per side would broadcast, three on the left fail to
    basis = hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 2, np.random.default_rng(4))))
    for weights in (WeightPair([2.0], [3.0]),
                    WeightPair(np.ones(3), np.ones(12))):
        with pytest.raises(ValueError, match="do not match"):
            weighted_leverage_scores(basis, weights, sub)


def test_f0_norm_bounds_random_mixtures():
    rng = np.random.default_rng(8)
    basis = hankel_basis(59, 30)
    r_l = lifting_coefficient(basis)
    for _ in range(50):
        mix = random_mixture(59, int(rng.integers(1, 7)), rng)
        sub = subspace_of(basis, synthesize(mix))
        mu = weighted_leverage_scores(basis, identity_weights(basis.dims), sub)
        f0 = sub.left @ sub.right.conj().T
        assert a_norm_inf(basis, mu, f0) <= 1 + 1e-9
        assert a_norm_2(basis, mu, f0) ** 2 <= 2 * sub.rank * r_l + 1e-9


def test_scores_text_export():
    basis = hankel_basis(3, 2)
    mu = leverage_scores(basis, subspace_of(basis, np.ones(3)))
    lines = scores_to_text(mu).strip().splitlines()
    assert lines[0].split() == ["1", "1.5"]
    assert len(lines) == 3
