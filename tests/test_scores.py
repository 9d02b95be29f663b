import math

import numpy as np
import pytest

from wlift.experiments import random_mixture
from wlift.lifting import double_hankel_basis, hankel_basis
from wlift.scores import (SingularWeightsError, a_norm_2, a_norm_inf,
                          corollary_beta, diag_weight_bound, incoherence_check,
                          leverage_scores, lifting_coefficient,
                          probability_floor, scores_to_text, subspace_of,
                          weighted_leverage_scores)
from wlift.signal import synthesize
from wlift.weights import diagonal_weights, identity_weights


def dense_leverage_scores(basis, sub):
    """Oracle: materialize each basis element and use dense matrix products."""
    u, v = sub.left, sub.right
    out = np.empty(basis.n)
    for k in range(basis.n):
        a = basis.element_dense(k)
        out[k] = basis.n / sub.rank * max(
            np.linalg.norm(u.conj().T @ a) ** 2,
            np.linalg.norm(a @ v) ** 2)
    return out


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


def test_full_subspace_scores_bounded():
    basis = hankel_basis(9, 4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    sub = subspace_of(basis, x, rank_tol=0.0)
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
    base = weighted_leverage_scores(basis, diagonal_weights(wl, wr), sub)
    scaled = weighted_leverage_scores(
        basis, diagonal_weights(2.0 * wl, 7.0 * wr), sub)
    np.testing.assert_allclose(scaled.values, base.values, atol=1e-10)


def test_weighted_scores_singular_guard():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(1))))
    wl = np.zeros(4)
    wl[0] = 1.0  # kills all but one row; Gram loses rank
    with pytest.raises(SingularWeightsError):
        weighted_leverage_scores(basis, diagonal_weights(wl, np.ones(6)), sub)


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


def test_lifting_coefficient_constant_support():
    # all omega_n = N gives R = 1 (wrap-around-style support profile)
    from wlift.lifting import make_basis
    n = 4
    pats = [(np.arange(4), (np.arange(4) + k) % 4) for k in range(n)]
    basis = make_basis("wrap", n, (4, 4), pats)
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
    with pytest.raises(ValueError):
        probability_floor(mu, 1.0, 9, b1=2.0)


def test_incoherence_all_ones_hand_value():
    basis = hankel_basis(3, 2)
    sub = subspace_of(basis, np.ones(3))
    res = incoherence_check(basis, identity_weights(basis.dims), sub)
    assert abs(res.rhs - 0.5) < 1e-10
    assert abs(res.lhs - 1 / (8 * math.sqrt(math.log(3)))) < 1e-12
    assert res.passed


def test_incoherence_degenerate_subspace_fails():
    from wlift.scores import SubspacePair
    basis = hankel_basis(9, 4)
    u = np.zeros((4, 1), dtype=complex)
    u[0, 0] = 1.0
    v = np.zeros((6, 1), dtype=complex)
    v[0, 0] = 1.0
    sub = SubspacePair(u, v, np.ones(1), 1)
    res = incoherence_check(basis, identity_weights(basis.dims), sub)
    assert res.rhs < 1e-12
    assert not res.passed


def test_incoherence_typical_instance_records_result():
    basis = hankel_basis(59, 30)
    mix = random_mixture(59, 2, np.random.default_rng(6), min_separation=0.1)
    sub = subspace_of(basis, synthesize(mix))
    res = incoherence_check(basis, identity_weights(basis.dims), sub)
    assert isinstance(res.passed, bool)
    assert res.lhs > 0 and res.rhs >= 0


def test_a_norms_zero_matrix():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(0))))
    mu = leverage_scores(basis, sub)
    assert a_norm_inf(basis, mu, np.zeros(basis.dims)) == 0
    assert a_norm_2(basis, mu, np.zeros(basis.dims)) == 0


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


def test_diag_weight_bound_identity_value():
    basis = hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 3, np.random.default_rng(2))))
    beta = corollary_beta(sub, 21)
    count = int(21 // (beta * sub.rank))
    bound = diag_weight_bound(basis, identity_weights(basis.dims), beta,
                              sub.rank)
    np.testing.assert_allclose(bound, 1.0 / count, rtol=1e-12)


def test_diag_weight_bound_dominates_scores():
    rng = np.random.default_rng(11)
    basis = hankel_basis(31, 16)
    for _ in range(20):
        mix = random_mixture(31, int(rng.integers(1, 5)), rng)
        sub = subspace_of(basis, synthesize(mix))
        wl = 0.5 + rng.random(16)
        wr = 0.5 + rng.random(16)
        weights = diagonal_weights(wl, wr)
        mu = weighted_leverage_scores(basis, weights, sub)
        beta = corollary_beta(sub, 31)
        bound = diag_weight_bound(basis, weights, beta, sub.rank)
        lhs = mu.values * sub.rank / 31
        assert np.all(lhs <= bound * (1 + 1e-9))


def test_diag_weight_bound_ignores_large_entries():
    basis = hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 2, np.random.default_rng(3))))
    beta = corollary_beta(sub, 21)
    count = int(21 // (beta * sub.rank))
    assert count < 10
    wl = np.ones(10)
    wr = np.ones(12)
    a = diag_weight_bound(basis, diagonal_weights(wl, wr), beta, sub.rank)
    wl2 = wl.copy()
    wl2[-1] = 100.0  # outside the smallest-count partial sum
    b = diag_weight_bound(basis, diagonal_weights(wl2, wr), beta, sub.rank)
    # denominators unchanged; only elements touching the boosted row move up
    assert np.all(b >= a - 1e-12)
    touched = np.unique(basis.element[basis.rows == 9])
    untouched = np.setdiff1d(np.arange(21), touched)
    np.testing.assert_allclose(b[untouched], a[untouched], rtol=1e-12)


def test_diag_weight_bound_empty_sum_error():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(0))))
    with pytest.raises(ValueError):
        diag_weight_bound(basis, identity_weights(basis.dims),
                          beta=100.0, rank=sub.rank)


def test_scores_text_export():
    basis = hankel_basis(3, 2)
    mu = leverage_scores(basis, subspace_of(basis, np.ones(3)))
    lines = scores_to_text(mu).strip().splitlines()
    assert lines[0].split() == ["1", "1.5"]
    assert len(lines) == 3
