import numpy as np
import pytest

from wlift.experiments import random_mixture
from wlift.lifting import double_hankel_basis, hankel_basis, lift
from wlift.signal import (Mixture, NoiseSpec, SampleSet, add_noise,
                          sample_uniform_m, synthesize)
from wlift.solver import (CompletionResult, SolverConfig, complete,
                          relative_error, svt)
from wlift.weights import WeightPair, diagonal_weights, identity_weights


def grid_search_oracle(obs, indices, n):
    """Independent single-exponential fit by dense frequency-grid search.

    For K = 1 the best coefficient at a candidate frequency is a scalar
    least-squares solve, so scanning a fine grid localizes the optimum
    without touching any completion machinery.
    """
    best = (np.inf, None)
    for f in np.linspace(0, 1, 20001, endpoint=False):
        z = np.exp(2j * np.pi * f)
        col = z ** indices
        b = np.vdot(col, obs) / np.vdot(col, col)
        resid = np.linalg.norm(obs - b * col)
        if resid < best[0]:
            best = (resid, b * z ** np.arange(1, n + 1))
    return best[1]


def test_svt_diagonal_example():
    out = svt(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    np.testing.assert_allclose(svt(m, 0.0), m, atol=1e-12)
    with pytest.raises(ValueError):
        svt(m, -1.0)


def test_svt_full_shrinkage_gives_zero():
    m = np.diag([2.0, 1.0])
    np.testing.assert_allclose(svt(m, 5.0), np.zeros((2, 2)), atol=1e-15)


def test_relative_error_examples():
    assert relative_error([1, 0], [1, 0]) == 0
    assert abs(relative_error([3, 4], [3, 0]) - 0.8) < 1e-12
    with pytest.raises(ValueError):
        relative_error([0, 0], [1, 0])
    with pytest.raises(ValueError):
        relative_error([1, 2, 3], [1, 2])


def test_complete_full_observation_is_exact():
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 3, np.random.default_rng(2)))
    sset = sample_uniform_m(21, 21, seed=0)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1])
    np.testing.assert_allclose(result.estimate, y, atol=1e-10)
    assert result.iterations <= 10


def test_complete_matches_grid_search_oracle():
    # K = 1, N = 15, 8 of 15 samples: compare against an oracle that never
    # sees the solver
    basis = hankel_basis(15, 8)
    mix = random_mixture(15, 1, np.random.default_rng(3))
    y = synthesize(mix)
    sset = sample_uniform_m(15, 8, seed=1)
    obs = y[sset.indices - 1]
    result = complete(basis, identity_weights(basis.dims), sset, obs)
    oracle = grid_search_oracle(obs, sset.indices, 15)
    assert relative_error(y, oracle) <= 1e-3
    assert relative_error(oracle, result.estimate) <= 2e-3


def test_complete_interpolates_exactly_on_observed():
    basis = hankel_basis(31, 16)
    y = synthesize(random_mixture(31, 3, np.random.default_rng(4)))
    sset = sample_uniform_m(31, 20, seed=2)
    obs = y[sset.indices - 1]
    result = complete(basis, identity_weights(basis.dims), sset, obs)
    np.testing.assert_array_equal(result.estimate[sset.indices - 1], obs)


def test_complete_noisy_ball_constraint_holds():
    basis = hankel_basis(31, 16)
    y = synthesize(random_mixture(31, 2, np.random.default_rng(5)))
    noisy = add_noise(y, NoiseSpec(1e-2, seed=6))
    sset = sample_uniform_m(31, 22, seed=3)
    obs = noisy[sset.indices - 1]
    result = complete(basis, identity_weights(basis.dims), sset, obs,
                      noise_bound=1e-2)
    slack = np.linalg.norm(result.estimate[sset.indices - 1] - obs)
    assert slack <= np.sqrt(22) * 1e-2 + 1e-9


def test_complete_zero_noise_bound_matches_noiseless():
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(6)))
    sset = sample_uniform_m(21, 14, seed=4)
    obs = y[sset.indices - 1]
    exact = complete(basis, identity_weights(basis.dims), sset, obs)
    balled = complete(basis, identity_weights(basis.dims), sset, obs,
                      noise_bound=0.0)
    assert relative_error(exact.estimate, balled.estimate) <= 1e-5


def test_complete_objective_is_weighted_nuclear_norm():
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(7)))
    sset = sample_uniform_m(21, 15, seed=5)
    weights = diagonal_weights(0.5 + np.arange(10) / 10.0,
                               np.ones(12) * 2.0)
    result = complete(basis, weights, sset, y[sset.indices - 1])
    lifted = weights.left @ lift(basis, result.estimate) @ \
        weights.right.conj().T
    nuc = np.linalg.svd(lifted, compute_uv=False).sum()
    np.testing.assert_allclose(result.objective, nuc, rtol=1e-9)


def test_complete_double_hankel_structure():
    basis = double_hankel_basis(21, 14)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(9)))
    sset = sample_uniform_m(21, 15, seed=7)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1])
    assert relative_error(y, result.estimate) <= 1e-3


def test_complete_error_conditions():
    basis = hankel_basis(9, 4)
    weights = identity_weights(basis.dims)
    with pytest.raises(ValueError):
        complete(basis, weights, SampleSet(9, np.array([], dtype=int)),
                 np.array([]))
    with pytest.raises(ValueError):
        complete(basis, weights, SampleSet(9, np.array([1, 2])),
                 np.array([1.0]))
    with pytest.raises(ValueError):
        complete(basis, weights, SampleSet(9, np.array([1, 2])),
                 np.array([1.0, np.nan]))
    # sample sets over another index range than the basis covers
    for universe, indices in ((12, [1, 11]), (7, [1, 2])):
        with pytest.raises(ValueError):
            complete(basis, weights, SampleSet(universe, np.array(indices)),
                     np.array([1.0, 2.0]))
    # weights shaped for another lift, and non-diagonal weights
    for bad in (identity_weights((5, 5)),
                WeightPair(np.ones((4, 4), dtype=complex),
                           np.eye(6, dtype=complex))):
        with pytest.raises(ValueError):
            complete(basis, bad, SampleSet(9, np.array([1, 2])),
                     np.array([1.0, 2.0]))


def test_complete_annihilating_weights_rejected():
    basis = hankel_basis(9, 4)
    weights = diagonal_weights(np.zeros(4), np.ones(6))
    with pytest.raises(ValueError):
        complete(basis, weights, SampleSet(9, np.array([1, 2])),
                 np.array([1.0, 2.0]))


def test_complete_iteration_exhaustion_reports_not_raises():
    basis = hankel_basis(31, 16)
    y = synthesize(random_mixture(31, 4, np.random.default_rng(10)))
    sset = sample_uniform_m(31, 18, seed=8)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1],
                      config=SolverConfig(max_iters=3))
    assert isinstance(result, CompletionResult)
    assert not result.converged
    assert result.iterations == 3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(penalty=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=-1e-3)
