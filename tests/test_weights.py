import warnings

import numpy as np
import pytest

from wlift.experiments import _draw, cell_seed, random_mixture
from wlift.lifting import double_hankel_basis, hankel_basis
from wlift.scores import (SubspacePair, _side_norms, _weighted_factor,
                          subspace_of, weighted_leverage_scores)
from wlift.signal import SampleSet, project, sample_uniform_m, synthesize
from wlift.solver import SolverConfig, complete, relative_error
from wlift.weights import (GAIN_REL_TOL, STEP_FACTORS, TUNE_REL_TOL,
                           TUNE_SWEEPS, WeightPair, _stepped_norms,
                           identity_weights, tune_diagonal_weights,
                           two_stage_pipeline)

from oracles import dense_side_norms


def unobserved_score_sum(basis, weights, sub, sset):
    mu = weighted_leverage_scores(basis, weights, sub)
    return float(mu.values[sset.complement() - 1].sum())


def reference_tune(basis, sset, sub):
    """The tuner as a plain loop: one weighted_leverage_scores per step.

    Returns (weights or None, objective, sweeps, kept steps); a step must
    gain more than GAIN_REL_TOL of the objective to be kept.
    """
    diags = [np.ones(d) for d in basis.dims]
    kept_steps = 0

    def objective():
        return unobserved_score_sum(basis, WeightPair(*diags), sub, sset)

    baseline = best = objective()
    for sweeps in range(1, TUNE_SWEEPS + 1):
        before = best
        for diag in diags:
            for i in range(diag.size):
                for fac in STEP_FACTORS:
                    kept = diag[i]
                    diag[i] = kept * fac
                    val = objective()
                    if val < best * (1.0 - GAIN_REL_TOL):
                        best = val
                        kept_steps += 1
                    else:
                        diag[i] = kept
        if before - best < TUNE_REL_TOL * max(abs(before), 1.0):
            break
    if best >= baseline:
        return None, baseline, sweeps, kept_steps
    return (WeightPair(*diags).frobenius_normalized(), best, sweeps,
            kept_steps)


def assert_matches_reference(basis, sset, sub):
    res = tune_diagonal_weights(basis, sset, sub)
    weights, objective, sweeps, _ = reference_tune(basis, sset, sub)
    assert res.sweeps == sweeps
    if weights is None:
        assert res.objective == res.baseline
        ratio = res.weights.left_diag / res.weights.left_diag[0]
        np.testing.assert_array_equal(ratio, np.ones(basis.dims[0]))
    else:
        np.testing.assert_array_equal(res.weights.left_diag,
                                      weights.left_diag)
        np.testing.assert_array_equal(res.weights.right_diag,
                                      weights.right_diag)
        np.testing.assert_allclose(res.objective, objective, rtol=1e-12)
    return res


def test_identity_weights_shape_and_values():
    w = identity_weights((4, 6))
    assert w.dims == (4, 6)
    np.testing.assert_array_equal(w.left_diag, np.ones(4))
    np.testing.assert_array_equal(w.right_diag, np.ones(6))


def test_diagonal_weights_embedding():
    w = WeightPair([1.0, 2.0], [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(w.left_diag, [1, 2])
    np.testing.assert_array_equal(w.right_diag, [3, 4, 5])
    with pytest.raises(ValueError):
        WeightPair([-1.0, 1.0], [1.0])


def test_weight_pair_requires_diagonals_when_flagged():
    # matrices where diagonals belong, square or not, fail at construction
    for left, right in ((np.eye(2), np.eye(2)),
                        (np.ones((4, 4), dtype=complex),
                         np.eye(6, dtype=complex))):
        with pytest.raises(ValueError):
            WeightPair(left, right)


def test_weight_pair_rejects_non_finite():
    for left, right, name in (([np.nan, 1, 1, 1], np.ones(6), "left_diag"),
                              (np.ones(4), [1, 1, np.inf, 1, 1, 1],
                               "right_diag"),
                              ([1, -np.inf, 1, 1], np.ones(6), "left_diag")):
        with pytest.raises(ValueError, match=name):
            WeightPair(left, right)


def test_weight_pair_rejects_imaginary_parts():
    with pytest.raises(ValueError, match="left_diag"):
        WeightPair([1 + 1j, 1], [1, 1])
    with pytest.raises(ValueError, match="right_diag"):
        WeightPair([1, 1], [1, 1e-300j])
    # a complex-typed diagonal with zero imaginary parts is a real one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = WeightPair(np.array([1, 2], dtype=complex), [1.0, 3.0])
    assert w.left_diag.dtype == float
    np.testing.assert_array_equal(w.left_diag, [1, 2])


def test_frobenius_normalization():
    w = WeightPair([3.0, 4.0], [1.0, 1.0]).frobenius_normalized()
    assert abs(np.linalg.norm(w.left_diag) - 1.0) < 1e-12
    assert abs(np.linalg.norm(w.right_diag) - 1.0) < 1e-12
    # direction preserved
    np.testing.assert_allclose(w.left_diag[1] / w.left_diag[0], 4 / 3,
                               rtol=1e-12)
    with pytest.raises(ValueError, match="positive norm"):
        WeightPair([3.0, 4.0], [0.0, 0.0]).frobenius_normalized()


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
        res = tune_diagonal_weights(basis, sset, sub)
        improved += res.objective < 0.5 * res.baseline
    assert improved == 10


def test_tune_objective_matches_weighted_scores_double_hankel():
    # the tuner keeps per-side norms between steps; its objective must
    # still be the unobserved score sum at the weights it returns (scores
    # are scale-invariant, so the Frobenius normalisation does not matter)
    basis = double_hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 2, np.random.default_rng(1))))
    sset = sample_uniform_m(21, 10, seed=1)
    res = tune_diagonal_weights(basis, sset, sub)
    assert res.objective < res.baseline
    # both diagonals move, so steps on each side are scored against the
    # other side's committed norms
    assert np.ptp(res.weights.left_diag) > 0
    assert np.ptp(res.weights.right_diag) > 0
    recomputed = unobserved_score_sum(basis, res.weights, sub, sset)
    np.testing.assert_allclose(res.objective, recomputed, rtol=1e-12)


@pytest.mark.parametrize("structure, n, d", [(hankel_basis, 21, 10),
                                             (double_hankel_basis, 21, 10),
                                             (hankel_basis, 59, 30)])
def test_tune_baseline_is_identity_score_sum(structure, n, d):
    # the tuner scores through its own side helper; its baseline must be
    # the unobserved weighted_leverage_scores sum at identity, bit for bit
    basis = structure(n, d)
    rng = np.random.default_rng(n + d)
    for seed in range(3):
        sub = subspace_of(basis, synthesize(random_mixture(n, 3, rng)))
        sset = sample_uniform_m(n, n // 2, seed=seed)
        res = tune_diagonal_weights(basis, sset, sub)
        assert res.baseline == unobserved_score_sum(
            basis, identity_weights(basis.dims), sub, sset)


def test_tune_keeps_a_flat_side_at_identity():
    # a full-rank pilot (K = d1) makes the left projector the identity at
    # every weight, so left steps move the objective only by rounding and
    # must not be kept
    basis = hankel_basis(21, 10)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    sub = subspace_of(basis, x)
    assert sub.rank == basis.dims[0]
    for seed in range(40):
        res = tune_diagonal_weights(basis, sample_uniform_m(21, 10, seed), sub)
        assert np.ptp(res.weights.left_diag) == 0, seed


@pytest.mark.parametrize("n, d", [(59, 30), (21, 11)])
@pytest.mark.parametrize("observed", ["uniform", "first_half", "second_half"])
def test_tune_square_hankel_keeps_identity(n, d, observed):
    # a square Hankel lift (d = (N + 1) / 2) is complex symmetric, so
    # V = conj(U) and every element's left and right side norms are equal.
    # A step on one side leaves the other side's norms, already the
    # identity's max, as they were: no step lowers the objective, whatever
    # is observed
    basis = hankel_basis(n, d)
    sub = subspace_of(basis, synthesize(random_mixture(
        n, 3, np.random.default_rng(7))))
    left, right = (_side_norms(q, basis.side_groups(side))
                   for q, side in ((sub.left, True), (sub.right, False)))
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-13)
    np.testing.assert_allclose(left, dense_side_norms(basis, sub.left, True),
                               rtol=0, atol=1e-13)
    half = n // 2
    sset = {"uniform": sample_uniform_m(n, half - 4, seed=0),
            "first_half": SampleSet(n, np.arange(1, half + 1)),
            "second_half": SampleSet(n, np.arange(half + 1, n + 1))}[observed]
    res = tune_diagonal_weights(basis, sset, sub)
    assert res.objective == res.baseline
    for diag in (res.weights.left_diag, res.weights.right_diag):
        np.testing.assert_array_equal(diag, diag[0])


def test_tune_steps_stay_within_sweep_bound():
    # an entry moves at most one factor of 2 per sweep, so after the four
    # sweeps every pre-normalization entry is a power of two in [2^-4, 2^4]
    basis = hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 2, np.random.default_rng(4))))
    sset = sample_uniform_m(21, 8, seed=2)
    res = tune_diagonal_weights(basis, sset, sub)
    assert res.objective < res.baseline
    for diag in (res.weights.left_diag, res.weights.right_diag):
        ratio = diag / diag.max()
        assert ratio.min() >= 2.0 ** -8
        # a mantissa of exactly 0.5 marks an exact power of two
        np.testing.assert_array_equal(np.frexp(ratio)[0], 0.5)


def test_two_stage_fully_observed_recovers_exactly():
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 3, np.random.default_rng(5)))
    sset = sample_uniform_m(21, 21, seed=0)
    weights, result = two_stage_pipeline(basis, sset, y[sset.indices - 1])
    assert relative_error(y, result.estimate) <= 1e-9
    assert weights.dims == basis.dims


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
    assert weights.dims == basis.dims


def test_two_stage_reuses_stage_one_when_tuning_keeps_identity(monkeypatch):
    # this pilot's left and right vectors are conjugate, so on the square
    # Hankel lift the tuner keeps identity (see above) and stage 2 would
    # only re-solve the stage-1 program; a pilot whose rank cut keeps an
    # unconjugated noise direction can keep a step (Hankel M=55 K=4 in
    # test_experiments.py)
    import wlift.weights
    basis = hankel_basis(59, 30)
    y = synthesize(random_mixture(59, 3, np.random.default_rng(7)))
    sset = sample_uniform_m(59, 40, seed=0)
    obs = y[sset.indices - 1]
    direct = wlift.weights.complete(basis, identity_weights(basis.dims),
                                    sset, obs)
    calls = []
    original = wlift.weights.complete

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wlift.weights, "complete", counting)
    weights, result = two_stage_pipeline(basis, sset, obs)
    assert len(calls) == 1
    np.testing.assert_array_equal(result.estimate, direct.estimate)
    assert result.iterations == direct.iterations
    np.testing.assert_array_equal(weights.left_diag, np.ones(30))


def test_two_stage_solves_the_tuned_program_when_tuning_gains(monkeypatch):
    # stage 1 converges and its pilot's tune lowers the objective, so
    # stage 2 re-solves the program with the tuned weights
    import wlift.weights
    basis = double_hankel_basis(21, 14)
    y, sset = _draw(21, 2, 10, 0)
    obs = project(y, sset)
    calls = []
    original = wlift.weights.complete

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(wlift.weights, "complete", counting)
    weights, result = two_stage_pipeline(basis, sset, obs)
    assert len(calls) == 2 and calls[1] is weights
    stage1 = original(basis, identity_weights(basis.dims), sset, obs)
    tuned = tune_diagonal_weights(basis, sset,
                                  subspace_of(basis, stage1.estimate))
    assert stage1.converged and tuned.objective < tuned.baseline
    np.testing.assert_array_equal(weights.left_diag, tuned.weights.left_diag)
    np.testing.assert_array_equal(weights.right_diag,
                                  tuned.weights.right_diag)


def test_two_stage_unconverged_stage_one_keeps_identity(monkeypatch):
    # an unconverged stage 1 gives no pilot subspace to tune from
    import wlift.weights

    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned from an unconverged stage 1")

    monkeypatch.setattr(wlift.weights, "tune_diagonal_weights", no_tuning)
    basis = hankel_basis(59, 30)
    y = synthesize(random_mixture(59, 3, np.random.default_rng(7)))
    sset = sample_uniform_m(59, 40, seed=0)
    weights, result = two_stage_pipeline(basis, sset, y[sset.indices - 1],
                                         SolverConfig(max_iters=1))
    assert not result.converged
    assert result.iterations == 1
    np.testing.assert_array_equal(weights.left_diag, np.ones(30))
    np.testing.assert_array_equal(weights.right_diag, np.ones(30))


def test_tune_rejects_mismatched_pilot():
    basis = hankel_basis(21, 10)
    sset = sample_uniform_m(21, 8, seed=0)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(0)))
    sub = subspace_of(basis, y)
    taller = subspace_of(hankel_basis(21, 11), y)
    swapped = SubspacePair(sub.right, sub.left)
    for pilot in (taller, swapped):
        with pytest.raises(ValueError, match="do not match the basis"):
            tune_diagonal_weights(basis, sset, pilot)
    with pytest.raises(ValueError, match="rank 0"):
        tune_diagonal_weights(basis, sset, SubspacePair(np.zeros((10, 0)),
                                                        np.zeros((12, 0))))


@pytest.mark.parametrize("structure, n, d", [(hankel_basis, 59, 30),
                                             (double_hankel_basis, 21, 10),
                                             (double_hankel_basis, 59, 40)])
def test_stepped_norms_match_side_norms(structure, n, d):
    # the closed-form step (a rank-one update of the kept orthonormal
    # factor, read through the groups) against the dense side norms of a
    # fresh `qr` at every stepped weight; double-Hankel pins its right
    # groups of one cell per block
    basis = structure(n, d)
    rng = np.random.default_rng(d)
    sub = subspace_of(basis, synthesize(random_mixture(n, 3, rng)))
    unobserved = sample_uniform_m(n, n // 2, seed=d).complement()
    for q, left in ((sub.left, True), (sub.right, False)):
        w = 2.0 ** rng.integers(-3, 4, size=q.shape[0])
        idx = np.arange(w.size)
        g_rows, e = basis.side_groups(left)
        factor = _weighted_factor(w, q)
        for fac in STEP_FACTORS:
            got = _stepped_norms(factor, idx, np.full(idx.size, fac),
                                 (g_rows, e[:, unobserved - 1]))
            for i in idx:
                stepped = w.copy()
                stepped[i] *= fac
                fresh = np.linalg.qr(stepped[:, None] * q)[0]
                want = dense_side_norms(basis, fresh, left)[unobserved - 1]
                np.testing.assert_allclose(got[i], want, rtol=1e-12)


def test_tune_matches_step_by_step_reference():
    # the skewed, double-Hankel and sweep-bound cases above, with kept
    # steps on both sides and runs of more than one sweep, and a band-sized
    # double-Hankel tune that rescores after each of many kept steps
    cases = [(hankel_basis(21, 10), SampleSet(21, np.arange(1, 13)),
              random_mixture(21, 2, np.random.default_rng(seed)))
             for seed in range(10)]
    cases.append((double_hankel_basis(21, 10), sample_uniform_m(21, 10, seed=1),
                  random_mixture(21, 2, np.random.default_rng(1))))
    cases.append((hankel_basis(21, 10), sample_uniform_m(21, 8, seed=2),
                  random_mixture(21, 2, np.random.default_rng(4))))
    cases.append((double_hankel_basis(59, 40), sample_uniform_m(59, 30, seed=0),
                  random_mixture(59, 4, np.random.default_rng(0))))
    sweeps = []
    for basis, sset, mix in cases:
        res = assert_matches_reference(basis, sset,
                                       subspace_of(basis, synthesize(mix)))
        assert res.objective < res.baseline
        sweeps.append(res.sweeps)
    assert max(sweeps) > 1


def test_band_double_hankel_tune_is_pinned():
    # the stage-1 pilot of double-Hankel band trial M=40, K=8, t=2 at base
    # seed 0 keeps steps on both sides. Before normalisation every tuned
    # weight is a power of two, so the exponents pin each tuning decision
    basis = double_hankel_basis(59, 40)
    y, sset = _draw(59, 8, 40, cell_seed(0, 40, 8, 2))
    stage1 = complete(basis, identity_weights(basis.dims), sset,
                      project(y, sset))
    assert stage1.converged
    res = tune_diagonal_weights(basis, sset, subspace_of(basis,
                                                         stage1.estimate))
    assert res.sweeps == TUNE_SWEEPS
    for diag, want in (
            (res.weights.left_diag,
             [0, 2, 5, 2, 5, 5, 4, 2, 6, 4, 5, 5, 7, 4, 5, 7, 4, 8, 5, 6,
              5, 3, 3, 6, 7, 4, 5, 4, 4, 7, 5, 3, 4, 5, 8, 5, 7, 7, 4, 3]),
            (res.weights.right_diag,
             [0, 1, 6, 5, 4, 5, 5, 5, 4, 4, 3, 6, 4, 3, 6, 4, 1, 1, 1, 0,
              0, 5, 5, 3, 1, 3, 2, 1, 6, 3, 1, 2, 1, 1, 3, 4, 4, 5, 2, 2])):
        np.testing.assert_array_equal(np.log2(diag / diag[0]), want)


def test_tune_refreshes_gram_only_for_kept_steps(monkeypatch):
    # a tune that keeps identity scores every step of a side in one
    # closed-form pass from one `qr`; a loop that factorised per step
    # would make about 4 * d. A tune that keeps steps factorises once per
    # side and once per kept step, the steps the reference keeps
    import wlift.weights
    calls, passes = [], []

    def counting(w, q):
        calls.append("left" if q is sub.left else "right")
        return _weighted_factor(w, q)

    def counting_passes(q, idx, fac, groups):
        passes.append(idx.size)
        return _stepped_norms(q, idx, fac, groups)

    monkeypatch.setattr(wlift.weights, "_weighted_factor", counting)
    monkeypatch.setattr(wlift.weights, "_stepped_norms", counting_passes)
    basis = hankel_basis(59, 30)
    sub = subspace_of(basis, synthesize(random_mixture(
        59, 3, np.random.default_rng(7))))
    res = tune_diagonal_weights(basis, sample_uniform_m(59, 25, seed=0), sub)
    assert res.objective == res.baseline and res.sweeps == 1
    assert sorted(calls) == ["left", "right"]
    assert passes == [60, 60]

    basis = double_hankel_basis(21, 10)
    sub = subspace_of(basis, synthesize(random_mixture(
        21, 3, np.random.default_rng(3))))
    sset = sample_uniform_m(21, 6, seed=3)
    calls.clear()
    res = tune_diagonal_weights(basis, sset, sub)
    weights, _, sweeps, kept_steps = reference_tune(basis, sset, sub)
    np.testing.assert_array_equal(res.weights.left_diag, weights.left_diag)
    np.testing.assert_array_equal(res.weights.right_diag, weights.right_diag)
    assert res.sweeps == sweeps and kept_steps > 0
    assert len(calls) == 2 + kept_steps
