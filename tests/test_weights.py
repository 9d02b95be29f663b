import numpy as np
import pytest

from wlift.experiments import random_mixture
from wlift.lifting import hankel_basis
from wlift.scores import subspace_of, weighted_leverage_scores
from wlift.signal import SampleSet, sample_uniform_m, synthesize
from wlift.solver import SolverConfig, relative_error
from wlift.weights import (TuneConfig, WeightPair, diagonal_weights,
                           identity_weights, tune_diagonal_weights,
                           two_stage_pipeline)


def unobserved_score_sum(basis, weights, sub, sset):
    mu = weighted_leverage_scores(basis, weights, sub)
    return float(mu.values[sset.complement() - 1].sum())


def test_identity_weights_shape_and_values():
    w = identity_weights((4, 6))
    assert w.dims == (4, 6)
    assert w.diagonal_flag
    np.testing.assert_array_equal(w.left, np.eye(4))
    np.testing.assert_array_equal(w.right, np.eye(6))


def test_diagonal_weights_embedding():
    w = diagonal_weights([1.0, 2.0], [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(np.diag(w.left).real, [1, 2])
    np.testing.assert_array_equal(np.diag(w.right).real, [3, 4, 5])
    with pytest.raises(ValueError):
        diagonal_weights([-1.0, 1.0], [1.0])


def test_weight_pair_requires_diagonals_when_flagged():
    with pytest.raises(ValueError):
        WeightPair(np.eye(2), np.eye(2), diagonal_flag=True)


def test_frobenius_normalization():
    w = diagonal_weights([3.0, 4.0], [1.0, 1.0]).frobenius_normalized()
    assert abs(np.linalg.norm(w.left) - 1.0) < 1e-12
    assert abs(np.linalg.norm(w.right) - 1.0) < 1e-12
    # direction preserved
    np.testing.assert_allclose(w.left_diag[1] / w.left_diag[0], 4 / 3,
                               rtol=1e-12)


def test_tune_full_observation_returns_identity():
    basis = hankel_basis(9, 4)
    sub = subspace_of(basis, synthesize(random_mixture(
        9, 2, np.random.default_rng(0))))
    res = tune_diagonal_weights(basis, sample_uniform_m(9, 9, seed=0), sub)
    assert res.objective == 0.0
    ratio = res.weights.left_diag / res.weights.left_diag[0]
    np.testing.assert_allclose(ratio, np.ones(4))


def test_tune_never_worse_than_baseline():
    basis = hankel_basis(31, 16)
    rng = np.random.default_rng(1)
    for seed in range(5):
        mix = random_mixture(31, 3, rng)
        sub = subspace_of(basis, synthesize(mix))
        sset = sample_uniform_m(31, 14, seed=seed)
        res = tune_diagonal_weights(basis, sset, sub)
        assert res.objective <= res.baseline + 1e-12
        # reported objective matches a recomputation with the tuned weights
        if res.objective < res.baseline:
            recomputed = unobserved_score_sum(basis, res.weights, sub, sset)
            np.testing.assert_allclose(recomputed, res.objective, rtol=1e-9)


def test_tune_improves_on_skewed_observations():
    # a prefix-only observation pattern leaves lots of score mass on the
    # unobserved tail, which diagonal reweighting can push down hard
    basis = hankel_basis(21, 10)
    improved = 0
    for seed in range(10):
        mix = random_mixture(21, 2, np.random.default_rng(seed))
        sub = subspace_of(basis, synthesize(mix))
        sset = SampleSet(21, np.arange(1, 13))
        res = tune_diagonal_weights(basis, sset, sub,
                                    TuneConfig(max_iters=6))
        improved += res.objective < 0.5 * res.baseline
    assert improved == 10


def test_tune_uniform_sampling_keeps_identity_stationary():
    # under uniform sampling the identity is a coordinate-wise local
    # minimum of the unobserved-score objective, so tuning ties it
    basis = hankel_basis(59, 30)
    rng = np.random.default_rng(7)
    mix = random_mixture(59, 3, rng)
    sub = subspace_of(basis, synthesize(mix))
    res = tune_diagonal_weights(basis, sample_uniform_m(59, 25, seed=0), sub)
    assert res.objective == res.baseline
    ratio = res.weights.left_diag / res.weights.left_diag[0]
    np.testing.assert_allclose(ratio, np.ones(30))


def test_tune_respects_min_weight():
    basis = hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 2, np.random.default_rng(4))))
    sset = sample_uniform_m(21, 8, seed=2)
    cfg = TuneConfig(max_iters=6, min_weight=0.25)
    res = tune_diagonal_weights(basis, sset, sub, cfg)
    ld = res.weights.left_diag / res.weights.left_diag.max()
    rd = res.weights.right_diag / res.weights.right_diag.max()
    # pre-normalization entries live in [min_weight, 2^sweeps], so the
    # dynamic range of each returned diagonal is at most 2^sweeps/min_weight
    floor = 0.25 / 2 ** 6
    assert ld.min() >= floor - 1e-15
    assert rd.min() >= floor - 1e-15
    assert np.all(ld > 0) and np.all(rd > 0)


def test_two_stage_fully_observed_recovers_exactly():
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 3, np.random.default_rng(5)))
    sset = sample_uniform_m(21, 21, seed=0)
    weights, result = two_stage_pipeline(basis, sset, y[sset.indices - 1])
    assert relative_error(y, result.estimate) <= 1e-9
    assert weights.diagonal_flag


def test_two_stage_recovers_undersampled_instance():
    basis = hankel_basis(59, 30)
    y = synthesize(random_mixture(59, 2, np.random.default_rng(11)))
    sset = sample_uniform_m(59, 40, seed=3)
    _, result = two_stage_pipeline(basis, sset, y[sset.indices - 1],
                                   solver_config=SolverConfig())
    assert relative_error(y, result.estimate) <= 1e-3


def test_two_stage_handles_degenerate_stage_one():
    # all-zero observations make the stage-1 lift rank-free; the pipeline
    # must fall back to the stage-1 result instead of raising
    basis = hankel_basis(9, 4)
    sset = SampleSet(9, np.arange(1, 10))
    weights, result = two_stage_pipeline(basis, sset,
                                         np.zeros(9, dtype=complex))
    np.testing.assert_array_equal(result.estimate, np.zeros(9))
    assert weights.diagonal_flag


def test_two_stage_reuses_stage_one_when_tuning_keeps_identity(monkeypatch):
    # uniform sampling leaves the identity stationary for the tuner (see
    # above), so stage 2 would only re-solve the stage-1 program
    import wlift.solver
    basis = hankel_basis(59, 30)
    y = synthesize(random_mixture(59, 3, np.random.default_rng(7)))
    sset = sample_uniform_m(59, 40, seed=0)
    obs = y[sset.indices - 1]
    direct = wlift.solver.complete(basis, identity_weights(basis.dims),
                                   sset, obs)
    calls = []
    original = wlift.solver.complete

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wlift.solver, "complete", counting)
    weights, result = two_stage_pipeline(basis, sset, obs)
    assert len(calls) == 1
    np.testing.assert_array_equal(result.estimate, direct.estimate)
    assert result.iterations == direct.iterations
    np.testing.assert_array_equal(weights.left_diag, np.ones(30))
