import math

import numpy as np
import pytest

from wlift.experiments import random_mixture
from wlift.lifting import LiftOperator, double_hankel_basis, hankel_basis, lift
from wlift.signal import (Mixture, SampleSet, add_noise,
                          sample_uniform_m, synthesize)
from wlift.solver import (ABS_TOL, PENALTY, CompletionResult, SolverConfig,
                          _ball_project, _norm, complete, relative_error, svt)
from wlift.weights import WeightPair, identity_weights


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
    for tau in (-1.0, float("nan")):  # NaN fails a "tau < 0" guard
        with pytest.raises(ValueError):
            svt(m, tau)


def test_svt_full_shrinkage_gives_zero():
    m = np.diag([2.0, 1.0])
    np.testing.assert_allclose(svt(m, 5.0), np.zeros((2, 2)), atol=1e-15)


def _svd_svt(m, tau):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


@pytest.mark.parametrize("shape", ["square", "tall", "wide", "rank3", "real"])
def test_svt_matches_svd_reference(shape):
    rng = np.random.default_rng(42)

    def cnormal(*size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    m = {"square": lambda: cnormal(30, 30),
         "tall": lambda: cnormal(12, 5),
         "wide": lambda: cnormal(5, 12),
         "rank3": lambda: cnormal(30, 3) @ cnormal(3, 30),
         "real": lambda: rng.normal(size=(8, 6))}[shape]()
    s = np.linalg.svd(m, compute_uv=False)
    for tau in (0.0, s[s.size // 2], 1.5 * s[0]):
        out = svt(m, tau)
        np.testing.assert_allclose(out, _svd_svt(m, tau), rtol=0,
                                   atol=1e-9 * s[0])
        # a real input takes the real eigh and stays real
        assert out.dtype == (np.float64 if shape == "real" else np.complex128)


@pytest.mark.parametrize("dtype", [float, complex])
def test_svt_nuclear_norm_from_its_output(dtype):
    # complete()'s stop_below gate reads ||Z||_* for Z = svt(m, tau) as
    # (Re<Z, m> - ||Z||_F^2) / tau, with no further decomposition
    rng = np.random.default_rng(5)
    for shape in ((30, 30), (12, 5), (5, 12)):
        m = rng.normal(size=shape).astype(dtype)
        if dtype is complex:
            m += 1j * rng.normal(size=shape)
        s = np.linalg.svd(m, compute_uv=False)
        for tau in (s[-1] / 2, s[s.size // 2], 1.5 * s[0]):
            z = svt(m, tau)
            nuclear = np.linalg.svd(z, compute_uv=False).sum()
            gate = (np.vdot(z, m).real - np.vdot(z, z).real) / tau
            assert abs(gate - nuclear) <= 1e-12 * max(nuclear, s[0])


def test_complete_calls_module_svt_once_per_iteration(monkeypatch):
    # the benchmark's tracer times the solver's SVT by wrapping the module
    # global from outside, so complete() must look it up there every time
    import wlift.solver
    calls = []
    original = wlift.solver.svt

    def counting(m, tau):
        calls.append(tau)
        return original(m, tau)

    monkeypatch.setattr(wlift.solver, "svt", counting)
    basis = hankel_basis(31, 16)
    y = synthesize(random_mixture(31, 2, np.random.default_rng(4)))
    sset = sample_uniform_m(31, 20, seed=1)
    weights = identity_weights(basis.dims)
    result = complete(basis, weights, sset, y[sset.indices - 1])
    assert result.iterations > 1
    assert len(calls) == result.iterations
    # a stop_below solve takes the same path, proven or not
    for level in (0.0, 10 * result.objective):
        calls.clear()
        gated = complete(basis, weights, sset, y[sset.indices - 1],
                         stop_below=level)
        assert gated.proven == (level > 0) and gated.iterations >= 1
        assert len(calls) == gated.iterations


def _masked_svt(m, tau):
    """svt selecting its kept pairs with a boolean mask."""
    tall = m.shape[0] > m.shape[1]
    b = m.conj().T if tall else m
    w, u = np.linalg.eigh(b @ b.conj().T)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > tau
    out = (u[:, keep] * (1.0 - tau / s[keep])) @ (u[:, keep].conj().T @ b)
    return out.conj().T if tall else out


def unscaled_admm(basis, sset, observed, radius, config):
    """complete() with unit weights in the unscaled form: it keeps Lambda,
    divides it by rho every iteration and computes all four norms."""
    op = LiftOperator(basis, np.ones(basis.rows.size))
    op = op.real_form() or op
    obs0 = sset.indices - 1
    rho = PENALTY
    g = np.zeros(basis.n, dtype=complex)
    g[obs0] = observed
    bg = op.forward(g)
    z, lam = np.zeros_like(bg), np.zeros_like(bg)
    abs_eps = ABS_TOL * np.sqrt(basis.dims[0] * basis.dims[1])
    for it in range(1, config.max_iters + 1):
        scaled_lam = lam / rho
        z_new = _masked_svt(bg + scaled_lam, 1.0 / rho)
        g = op.adjoint(z_new - scaled_lam) / op.normal_diag
        if radius is None:
            g[obs0] = observed
        else:
            _ball_project(g, obs0, observed, radius)
        bg = op.forward(g)
        r, s = bg - z_new, rho * (z_new - z)
        lam += rho * r
        z = z_new
        primal, dual = _norm(r), _norm(s)
        eps_pri = abs_eps + config.rel_tol * max(_norm(bg), _norm(z))
        converged = bool(primal <= eps_pri and
                         dual <= abs_eps + config.rel_tol * _norm(lam))
        if converged:
            break
        if primal > 10 * dual:
            rho *= 2.0
        elif dual > 10 * primal:
            rho /= 2.0
    objective = float(np.linalg.svd(bg, compute_uv=False).sum())
    return CompletionResult(g, it, primal, dual, objective, converged)


@pytest.mark.parametrize("case", ["hankel", "double-hankel", "capped", "noisy"])
def test_complete_matches_the_unscaled_loop_bit_for_bit(case):
    # the scaled dual, the reciprocal g-step, the suffix SVT and the bound
    # on norm(z) are exact rewrites because rho stays a power of two
    structure, m, k, eta, config = {
        "hankel": (hankel_basis, 30, 4, None, SolverConfig()),
        "double-hankel": (double_hankel_basis, 30, 4, None, SolverConfig()),
        "capped": (hankel_basis, 20, 10, None, SolverConfig(max_iters=150)),
        "noisy": (hankel_basis, 40, 2, 1e-3, SolverConfig()),
    }[case]
    basis = structure(59, 40 if structure is double_hankel_basis else 30)
    y = synthesize(random_mixture(59, k, np.random.default_rng(11)))
    sset = sample_uniform_m(59, m, seed=5)
    obs = (y if eta is None else add_noise(y, eta, seed=3))[sset.indices - 1]
    radius = None if eta is None else eta * np.sqrt(m)
    got = complete(basis, identity_weights(basis.dims), sset, obs,
                   noise_bound=eta, config=config)
    want = unscaled_admm(basis, sset, obs, radius, config)
    assert got.converged == (case != "capped")
    assert np.array_equal(got.estimate, want.estimate)
    assert (got.iterations, got.primal_residual, got.dual_residual,
            got.objective, got.converged) == (
        want.iterations, want.primal_residual, want.dual_residual,
        want.objective, want.converged)


def test_capped_complete_computes_two_norms_per_iteration(monkeypatch):
    # far from the tolerance the bound on norm(z) skips norm(bg) and
    # norm(z); only the primal and step norms remain
    import wlift.solver
    calls = []
    original = wlift.solver._norm

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(wlift.solver, "_norm", counting)
    basis = hankel_basis(59, 30)
    y = synthesize(random_mixture(59, 10, np.random.default_rng(11)))
    sset = sample_uniform_m(59, 20, seed=5)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1], config=SolverConfig(max_iters=150))
    assert not result.converged
    assert len(calls) <= 2 * result.iterations


def test_penalty_is_a_power_of_two():
    # the scaled dual is exact only while rho is a power of two
    assert math.frexp(PENALTY)[0] == 0.5


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
    noisy = add_noise(y, 1e-2, seed=6)
    sset = sample_uniform_m(31, 22, seed=3)
    obs = noisy[sset.indices - 1]
    result = complete(basis, identity_weights(basis.dims), sset, obs,
                      noise_bound=1e-2)
    slack = np.linalg.norm(result.estimate[sset.indices - 1] - obs)
    assert slack <= np.sqrt(22) * 1e-2 + 1e-9


def test_complete_zero_noise_bound_matches_noiseless(monkeypatch):
    import wlift.solver

    def no_ball(*args):
        raise AssertionError("a zero bound took the ball projection")

    monkeypatch.setattr(wlift.solver, "_ball_project", no_ball)
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(6)))
    sset = sample_uniform_m(21, 14, seed=4)
    obs = y[sset.indices - 1]
    exact = complete(basis, identity_weights(basis.dims), sset, obs)
    # a zero bound is the noiseless program, not a radius-0 projection
    for zero in (0, 0.0, np.float64(0.0)):
        balled = complete(basis, identity_weights(basis.dims), sset, obs,
                          noise_bound=zero)
        assert balled.estimate.tobytes() == exact.estimate.tobytes()
        assert balled.iterations == exact.iterations


def test_complete_objective_is_weighted_nuclear_norm():
    y = synthesize(random_mixture(21, 2, np.random.default_rng(7)))
    sset = sample_uniform_m(21, 15, seed=5)
    cases = [
        (hankel_basis(21, 10),
         WeightPair(0.5 + np.arange(10) / 10.0, np.ones(12) * 2.0)),
        # mirror-symmetric weights, so the solve runs in real coordinates
        (double_hankel_basis(21, 7),
         WeightPair(0.5 + np.abs(np.arange(7) - 3) / 10.0, np.ones(30) * 2.0)),
    ]
    for basis, weights in cases:
        result = complete(basis, weights, sset, y[sset.indices - 1])
        lifted = (weights.left_diag[:, None] * lift(basis, result.estimate)
                  * weights.right_diag[None, :])
        nuc = np.linalg.svd(lifted, compute_uv=False).sum()
        np.testing.assert_allclose(result.objective, nuc, rtol=1e-9)


def test_complete_double_hankel_structure():
    basis = double_hankel_basis(21, 14)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(9)))
    sset = sample_uniform_m(21, 15, seed=7)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1])
    assert relative_error(y, result.estimate) <= 1e-3


def _mirror_weights(basis):
    d1, d2 = basis.dims
    wl, wr = 1.0 + np.arange(d1) / d1, 1.0 + np.arange(d2) / d2
    return WeightPair(wl + wl[::-1], wr + wr[::-1])


@pytest.mark.parametrize("weighting", ["identity", "mirror"])
def test_complete_double_hankel_runs_real_and_matches_complex(weighting,
                                                              monkeypatch):
    # the centro-Hermitian lift is solved in real coordinates; the complex
    # iteration on the same input reaches the same estimate
    import wlift.solver
    from wlift.lifting import LiftOperator
    basis = double_hankel_basis(21, 14)
    weights = (identity_weights(basis.dims) if weighting == "identity"
               else _mirror_weights(basis))
    y = synthesize(random_mixture(21, 2, np.random.default_rng(9)))
    sset = sample_uniform_m(21, 15, seed=7)
    dtypes = []
    original = wlift.solver.svt

    def recording(m, tau):
        dtypes.append(m.dtype)
        return original(m, tau)

    monkeypatch.setattr(wlift.solver, "svt", recording)
    real = complete(basis, weights, sset, y[sset.indices - 1])
    assert set(dtypes) == {np.dtype(float)}
    monkeypatch.setattr(LiftOperator, "real_form", lambda self: None)
    dtypes.clear()
    plain = complete(basis, weights, sset, y[sset.indices - 1])
    assert set(dtypes) == {np.dtype(complex)}
    assert real.converged and plain.converged
    assert abs(real.iterations - plain.iterations) <= 1
    assert relative_error(plain.estimate, real.estimate) <= 1e-9
    np.testing.assert_allclose(real.objective, plain.objective, rtol=1e-9)


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
    # weights shaped for another lift
    with pytest.raises(ValueError):
        complete(basis, identity_weights((5, 5)),
                 SampleSet(9, np.array([1, 2])), np.array([1.0, 2.0]))
    # a negative radius would reflect g through the observations, and a NaN
    # one would never project
    for eta in (-0.1, np.nan):
        with pytest.raises(ValueError):
            complete(basis, weights, SampleSet(9, np.array([1, 2])),
                     np.array([1.0, 2.0]), noise_bound=eta)


def test_complete_rejects_a_stop_below_that_is_no_real_number(monkeypatch):
    # "1" would be coerced to a level, and NaN would turn the stop off
    import wlift.solver

    def no_svt(m, tau):
        raise AssertionError("solved before checking stop_below")

    monkeypatch.setattr(wlift.solver, "svt", no_svt)
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(0)))
    sset = sample_uniform_m(21, 12, seed=0)
    for level in ("1", np.nan, float("nan"), True, 1j, [1.0]):
        with pytest.raises(ValueError, match="stop_below"):
            complete(basis, identity_weights(basis.dims), sset,
                     y[sset.indices - 1], stop_below=level)


def test_complete_rejects_infinite_noise_bound():
    # an infinite radius frees every sample, and the zero vector would
    # come back as converged
    basis = hankel_basis(21, 10)
    y = synthesize(random_mixture(21, 2, np.random.default_rng(0)))
    sset = sample_uniform_m(21, 12, seed=0)
    with pytest.raises(ValueError, match="finite"):
        complete(basis, identity_weights(basis.dims), sset,
                 y[sset.indices - 1], noise_bound=np.inf)


def test_complete_annihilating_weights_rejected():
    basis = hankel_basis(9, 4)
    weights = WeightPair(np.zeros(4), np.ones(6))
    with pytest.raises(ValueError):
        complete(basis, weights, SampleSet(9, np.array([1, 2])),
                 np.array([1.0, 2.0]))
    # element 0 is the single cell (0, 0), which a zero left_diag[0] erases
    left = np.ones(4)
    left[0] = 0.0
    with pytest.raises(ValueError, match="some coordinate"):
        complete(basis, WeightPair(left, np.ones(6)),
                 SampleSet(9, np.array([1, 2])), np.array([1.0, 2.0]))


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
        SolverConfig(rel_tol=-1e-3)
    # NaN and inf tolerances, and fractional iteration counts
    for bad in ({"rel_tol": np.nan}, {"rel_tol": np.inf}, {"max_iters": 2.5},
                {"max_iters": "10"}, {"max_iters": True}, {"rel_tol": True}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5
    # the starting penalty is a solver constant, not a setting
    with pytest.raises(TypeError):
        SolverConfig(penalty=1.0)
