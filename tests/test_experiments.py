import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import wlift
from wlift import experiments
from wlift import weights as weights_module
from wlift.experiments import (SUCCESS_THRESHOLD, PhaseGrid, SuccessSurface,
                               TrialOutcome, _draw, _proof_floor, build_basis,
                               cell_seed, emit_dat, loglog_slope, noise_sweep,
                               phase_transition, random_mixture, run_trial)
from wlift.lifting import (LiftingBasis, LiftOperator, double_hankel_basis,
                           hankel_basis, lift)
from wlift.scores import subspace_of
from wlift.signal import SampleSet, project
from wlift.solver import SolverConfig, complete, relative_error
from wlift.weights import WeightPair, identity_weights, two_stage_pipeline


def spearman(a, b):
    """Rank correlation via numpy only."""
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra ** 2) * np.sum(rb ** 2)))


def test_cell_seed_is_stable_and_distinct():
    assert cell_seed(0, 40, 2, 0) == cell_seed(0, 40, 2, 0)
    seeds = {cell_seed(0, m, k, t)
             for m in (20, 40) for k in (1, 2) for t in range(5)}
    assert len(seeds) == 20


def test_random_mixture_unit_magnitudes():
    rng = np.random.default_rng(0)
    mix = random_mixture(59, 4, rng)
    for b, z in mix.components:
        assert abs(abs(b) - 1.0) < 1e-12
        assert abs(abs(z) - 1.0) < 1e-12


def test_random_mixture_separation_floor():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mix = random_mixture(59, 5, rng, min_separation=0.05)
        freqs = np.sort([np.angle(z) / (2 * np.pi) % 1.0
                         for _, z in mix.components])
        gaps = np.diff(freqs)
        wrap = 1.0 - freqs[-1] + freqs[0]
        assert np.all(gaps >= 0.05) and wrap >= 0.05


def test_random_mixture_rejects_a_k_that_is_no_positive_integer():
    # checked before the first draw: numpy would raise a TypeError for 2.5
    # and "negative dimensions" for -1, and K = 0 draws an empty mixture
    for k in (2.5, -1, 0, True, "2"):
        with pytest.raises(ValueError, match="K must be a positive integer"):
            random_mixture(59, k, np.random.default_rng(0))
        with pytest.raises(ValueError, match="K must be a positive integer"):
            run_trial(59, "hankel", 30, "identity", 40, k, 1)
        with pytest.raises(ValueError, match="K must be a positive integer"):
            noise_sweep(21, "hankel", 10, k, 14, [1e-3], trials=1)


def test_build_basis_dispatch():
    assert build_basis("hankel", 59, 30).dims == (30, 30)
    assert build_basis("double-hankel", 59, 40).dims == (40, 40)
    with pytest.raises(ValueError):
        build_basis("toeplitz", 59, 30)


def test_run_trial_success_easy_cell():
    out = run_trial(59, "hankel", 30, "identity", 40, 2,
                    cell_seed(0, 40, 2, 0))
    assert out.success
    assert out.rel_error <= 1e-3
    assert out.error_code is None


def test_trial_outcome_success_is_its_error():
    assert TrialOutcome(SUCCESS_THRESHOLD).success
    assert not TrialOutcome(np.nextafter(SUCCESS_THRESHOLD, 1.0)).success
    assert not TrialOutcome(float("inf"), "LinAlgError").success
    assert not TrialOutcome(float("nan")).success
    # a verdict is not stored, so none can disagree with the error
    with pytest.raises(TypeError):
        TrialOutcome(0.5, success=True)


def test_run_trial_is_deterministic():
    a = run_trial(59, "hankel", 30, "identity", 30, 2, 12345)
    b = run_trial(59, "hankel", 30, "identity", 30, 2, 12345)
    assert a.rel_error == b.rel_error and a.success == b.success


def test_run_trial_survives_degenerate_cell():
    # M = 1 observed sample cannot determine anything but must not raise
    out = run_trial(59, "hankel", 30, "identity", 1, 3, 7)
    assert not out.success


def test_run_trial_folds_solver_errors(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(experiments, "complete", failing)
    out = run_trial(21, "hankel", 10, "identity", 15, 1, 2)
    assert not out.success and out.rel_error == float("inf")
    assert out.error_code == "LinAlgError"


def _cell_weights(weights):
    # W_L M W_R^H for real diagonals is M times this outer product
    return np.outer(weights.left_diag, weights.right_diag)


def _weighted_lift(basis, x, weights=None):
    """W_L L(x) W_R^H as a dense product (None: the plain lift)."""
    if weights is None:
        return lift(basis, x)
    return lift(basis, x) * _cell_weights(weights)


def _nuclear(basis, x, weights=None):
    return np.linalg.svd(_weighted_lift(basis, x, weights),
                         compute_uv=False).sum()


def _slope(basis, y, sset, weights=None):
    # the weighted lift's adjoint of Q is L*(W_L Q W_R) for real diagonals
    u, _, vh = np.linalg.svd(_weighted_lift(basis, y, weights),
                             full_matrices=False)
    q = u @ vh
    if weights is not None:
        q = q * _cell_weights(weights)
    slope = LiftOperator(basis).adjoint(q)
    slope[sset.indices - 1] = 0
    return slope


def test_proof_floor_bounds_every_feasible_lift_near_y():
    # ||L_W(y + e)||_* >= floor for every e that is zero on the sample set
    # with ||e|| = theta ||y||, the adversarial e along -slope_W included,
    # for the plain lift and for random diagonal weights in [0.5, 2];
    # ||slope|| never exceeds the worst-case gain kappa
    rng = np.random.default_rng(3)
    small = LiftingBasis(3, (2, 3), [0, 1, 0, 1], [0, 1, 1, 2], [0, 0, 1, 2])
    cases = [(small, rng.normal(size=3) + 1j * rng.normal(size=3),
              SampleSet(3, [2]))]
    for basis, k, m in ((hankel_basis(59, 30), 6, 30),
                        (double_hankel_basis(59, 40), 10, 20)):
        cases.append((basis, *_draw(59, k, m, cell_seed(0, m, k, 2))))
    for basis, y, sset in cases:
        plain = _proof_floor(basis, y, sset)
        # identity weights are the plain lift, bit for bit
        ident = _proof_floor(basis, y, sset, identity_weights(basis.dims))
        assert ident.hex() == plain.hex()
        slope = _slope(basis, y, sset)
        kappa = np.sqrt(min(basis.dims) * basis.support_counts.max())
        assert 0 < np.linalg.norm(slope) <= kappa
        d1, d2 = basis.dims
        for weights in (None, WeightPair(rng.uniform(0.5, 2, d1),
                                         rng.uniform(0.5, 2, d2))):
            floor = _proof_floor(basis, y, sset, weights)
            slope = _slope(basis, y, sset, weights)
            assert np.linalg.norm(slope) > 0
            # the floor is its formula on the dense weighted lift
            margin = SUCCESS_THRESHOLD * np.linalg.norm(y) \
                * np.linalg.norm(slope)
            np.testing.assert_allclose(
                floor, _nuclear(basis, y, weights) * (1 - 1e-9) - margin,
                rtol=1e-12)
            es = [-slope] + [rng.normal(size=basis.n)
                             + 1j * rng.normal(size=basis.n)
                             for _ in range(20)]
            for e in es:
                e[sset.indices - 1] = 0
                e *= SUCCESS_THRESHOLD * np.linalg.norm(y) / np.linalg.norm(e)
                assert _nuclear(basis, y + e, weights) >= floor


def test_proof_floor_proves_nothing_when_every_sample_is_observed():
    # M = N leaves no free coordinate, so the floor's margin is 0 and only
    # its slack keeps the SVD's rounding of L(y) from proving a failure
    for structure, pencil in (("hankel", 30), ("double-hankel", 40)):
        basis = build_basis(structure, 59, pencil)
        for k in (1, 3, 8):
            for t in range(5):
                y, sset = _draw(59, k, 59, cell_seed(0, 59, k, t))
                result = complete(basis, identity_weights(basis.dims), sset,
                                  project(y, sset),
                                  stop_below=_proof_floor(basis, y, sset))
                assert not result.proven, (structure, k, t)


def test_dark_trial_is_proven_early():
    # a dark phase-grid trial stops once a feasible iterate's lift falls
    # below the floor that every x within the threshold of y stays above
    seed = cell_seed(0, 20, 10, 0)
    y, sset = _draw(59, 10, 20, seed)
    obs = project(y, sset)
    basis = hankel_basis(59, 30)
    floor = _proof_floor(basis, y, sset)
    result = complete(basis, identity_weights(basis.dims), sset, obs,
                      stop_below=floor)
    assert result.proven and not result.converged
    assert result.iterations <= 200
    g = result.estimate
    assert g[sset.indices - 1].tobytes() == obs.tobytes()  # feasible
    assert _nuclear(basis, g) < floor
    out = run_trial(59, "hankel", 30, "identity", 20, 10, seed)
    assert not out.success and out.rel_error == relative_error(y, g)


def test_a_band_failure_is_proven_only_by_the_sharper_floor():
    # the worst-case gain kappa = sqrt(min(d1, d2) max omega_n) bounds
    # ||L(e)||_* <= kappa ||e|| too, but its floor is too low to prove this
    # band failure within max_iters; the polar factor's floor proves it
    seed = cell_seed(0, 30, 6, 2)
    y, sset = _draw(59, 6, 30, seed)
    obs = project(y, sset)
    basis = hankel_basis(59, 30)
    weights = identity_weights(basis.dims)
    kappa = np.sqrt(min(basis.dims) * basis.support_counts.max())
    coarse = _nuclear(basis, y) - kappa * SUCCESS_THRESHOLD * np.linalg.norm(y)
    assert not complete(basis, weights, sset, obs, stop_below=coarse).proven
    result = complete(basis, weights, sset, obs,
                      stop_below=_proof_floor(basis, y, sset))
    assert result.proven and result.iterations <= 200
    g = result.estimate
    assert g[sset.indices - 1].tobytes() == obs.tobytes()  # feasible
    out = run_trial(59, "hankel", 30, "identity", 30, 6, seed)
    assert not out.success and out.rel_error == relative_error(y, g)


@pytest.mark.parametrize("structure, pencil",
                         [("hankel", 30), ("double-hankel", 40)])
def test_a_proven_solve_fails_the_error_rule(structure, pencil):
    # every feasible x within the threshold of y lifts above the floor, so
    # an iterate below it is farther: the proof and the error rule agree
    basis = build_basis(structure, 59, pencil)
    cells = [(1, 5, 15, t) for t in range(3)] + [(0, 20, 10, 0), (0, 30, 4, 0)]
    proven = 0
    for base_seed, m, k, t in cells:
        seed = cell_seed(base_seed, m, k, t)
        y, sset = _draw(59, k, m, seed)
        floor = _proof_floor(basis, y, sset)
        result = complete(basis, identity_weights(basis.dims), sset,
                          project(y, sset), stop_below=floor)
        err = relative_error(y, result.estimate)
        if result.proven:
            proven += 1
            assert err > SUCCESS_THRESHOLD
        out = run_trial(59, structure, pencil, "identity", m, k, seed)
        assert out.rel_error == err
        assert out.success == (out.rel_error <= SUCCESS_THRESHOLD)
    assert proven == 4  # every cell but the bright M=30 K=4


def test_stop_below_leaves_a_success_unchanged():
    seed = cell_seed(0, 30, 4, 0)
    y, sset = _draw(59, 4, 30, seed)
    obs = project(y, sset)
    basis = hankel_basis(59, 30)
    weights = identity_weights(basis.dims)
    plain = complete(basis, weights, sset, obs)
    gated = complete(basis, weights, sset, obs,
                     stop_below=_proof_floor(basis, y, sset))
    assert plain.converged and not gated.proven
    assert relative_error(y, plain.estimate) <= SUCCESS_THRESHOLD
    assert gated.estimate.tobytes() == plain.estimate.tobytes()
    assert gated.iterations == plain.iterations
    assert run_trial(59, "hankel", 30, "identity", 30, 4, seed).success


def _recording(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends (args, result)."""
    original = getattr(module, name)

    def record(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, record)
    return original


def _two_stage_case(structure, n, pencil, k, m, seed):
    y, sset = _draw(n, k, m, seed)
    basis = build_basis(structure, n, pencil)
    return basis, y, sset, lambda w: _proof_floor(basis, y, sset, w)


def test_a_proven_stage_one_is_still_tuned(monkeypatch):
    # a dark two-stage trial is proven in stage 1 and, like a converged
    # stage 1, hands its iterate to the tuner; tuning keeps identity, so
    # the trial fails with that iterate's error (without the proof, stage
    # 1 runs all 2000 iterations)
    seed = cell_seed(0, 20, 4, 0)
    basis, y, sset, floor = _two_stage_case("hankel", 59, 30, 4, 20, seed)
    solves, tunes = [], []
    _recording(monkeypatch, weights_module, "complete", solves)
    _recording(monkeypatch, weights_module, "tune_diagonal_weights", tunes)
    weights, result = two_stage_pipeline(basis, sset, project(y, sset),
                                         stop_below=floor)
    [(_, stage1)] = solves
    assert stage1 is result and result.proven and not result.converged
    assert result.iterations <= 100
    [((_, _, pilot), tuned)] = tunes
    expected = subspace_of(basis, stage1.estimate)
    assert pilot.left.tobytes() == expected.left.tobytes()
    assert tuned.objective >= tuned.baseline
    np.testing.assert_array_equal(weights.left_diag, np.ones(30))
    np.testing.assert_array_equal(weights.right_diag, np.ones(30))
    out = run_trial(59, "hankel", 30, "two_stage", 20, 4, seed)
    assert not out.success
    assert out.rel_error == relative_error(y, result.estimate)


def test_a_tuned_stage_two_is_proven_below_its_weighted_floor(monkeypatch):
    # stage 1 converges as it does without stop_below (457 iterations) and
    # tunes; stage 2's weighted floor proves its failure early (without
    # the proof, stage 2 runs all 2000 iterations)
    seed = cell_seed(0, 20, 2, 2)
    basis, y, sset, floor = _two_stage_case("double-hankel", 59, 40, 2, 20,
                                            seed)
    obs = project(y, sset)
    solves = []
    original = _recording(monkeypatch, weights_module, "complete", solves)
    weights, result = two_stage_pipeline(basis, sset, obs, stop_below=floor)
    [(_, stage1), ((_, tuned, _, _), stage2)] = solves
    plain = original(basis, identity_weights(basis.dims), sset, obs)
    assert stage1.converged and not stage1.proven
    assert stage1.iterations == plain.iterations
    assert stage1.estimate.tobytes() == plain.estimate.tobytes()
    assert tuned is weights and np.ptp(weights.left_diag) > 0
    assert stage2 is result and result.proven and result.iterations <= 50
    g = result.estimate
    assert g[sset.indices - 1].tobytes() == obs.tobytes()  # feasible
    assert _nuclear(basis, g, weights) < floor(weights)
    out = run_trial(59, "double-hankel", 40, "two_stage", 20, 2, seed)
    assert not out.success and out.rel_error == relative_error(y, g)


@pytest.mark.parametrize("case", [
    ("double-hankel", 59, 40, 4, 30, cell_seed(0, 30, 4, 0)),
    # a square Hankel lift whose pilot keeps a noise direction with
    # unconjugated side vectors, so tuning keeps a step
    ("hankel", 59, 30, 4, 55, cell_seed(0, 55, 4, 0)),
])
def test_stop_below_leaves_a_successful_two_stage_solve_unchanged(
        monkeypatch, case):
    basis, y, sset, floor = _two_stage_case(*case)
    obs = project(y, sset)
    runs = []
    for stop_below in (None, floor):
        solves = []
        with monkeypatch.context() as patch:
            _recording(patch, weights_module, "complete", solves)
            weights, result = two_stage_pipeline(basis, sset, obs,
                                                 stop_below=stop_below)
        assert len(solves) == 2 and not any(r.proven for _, r in solves)
        assert relative_error(y, result.estimate) <= SUCCESS_THRESHOLD
        runs.append(([r.iterations for _, r in solves],
                     result.estimate.tobytes(), weights.left_diag.tobytes()))
    assert runs[0] == runs[1]


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid((70,), (2,))
    with pytest.raises(ValueError):
        PhaseGrid((40, 0), (2,))
    with pytest.raises(ValueError):
        PhaseGrid((40,), (0,))
    # an empty axis would give a header-only .dat
    for counts, levels in (((), (2,)), ((40,), ())):
        with pytest.raises(ValueError):
            PhaseGrid(counts, levels)
    for pencil in (0, 60, 80):
        with pytest.raises(ValueError):
            PhaseGrid((20,), (2,), pencil=pencil)
    # fractional counts, and a NaN separation the rejection loop never meets
    # and a negative separation, which would be recorded but drawn as 0
    for bad in ({"trials": 2.5}, {"n": 59.0}, {"base_seed": 0.5},
                {"min_separation": np.nan}, {"min_separation": -0.5}):
        with pytest.raises(ValueError):
            PhaseGrid((20,), (2,), **bad)
    with pytest.raises(ValueError):
        PhaseGrid((20.0,), (2,))
    with pytest.raises(ValueError):
        PhaseGrid((20,), (2.5,))
    # bools are Integral, but True would sample M=1 or run one trial
    for counts, levels, bad in (((20,), (2,), {"trials": True}),
                                ((True,), (2,), {}), ((20,), (True,), {}),
                                ((20,), (2,), {"pencil": True}),
                                ((20,), (2,), {"base_seed": False})):
        with pytest.raises(ValueError):
            PhaseGrid(counts, levels, **bad)
    PhaseGrid((np.int64(20),), (np.int32(2),), trials=np.int64(2),
              pencil=np.int64(59))
    with pytest.raises(ValueError):
        PhaseGrid((40,), (2,), trials=0)
    with pytest.raises(ValueError):
        PhaseGrid((40,), (2,), structure="toeplitz")
    with pytest.raises(ValueError):
        PhaseGrid((40,), (2,), weighting="oracle")
    # K frequencies cannot all be 1/K apart on the unit circle, so drawing
    # such a grid's mixtures would never finish
    with pytest.raises(ValueError):
        PhaseGrid((40,), (2, 4), min_separation=0.25)
    # feasible, but ten uniform frequencies are 0.09 apart with probability
    # (1 - 0.9)^9 = 1e-9, so the rejection loop would effectively hang
    with pytest.raises(ValueError):
        PhaseGrid((40,), (2, 10), min_separation=0.09)
    PhaseGrid((40,), (2, 4), min_separation=0.24)  # probability 6.4e-5


def test_success_surface_shape_check():
    grid = PhaseGrid((20, 40), (1, 2, 3), trials=1)
    with pytest.raises(ValueError):
        SuccessSurface(grid, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SuccessSurface(grid, np.full((3, 2), 1.5))
    # NaN is neither below 0 nor above 1
    with pytest.raises(ValueError, match="success rates"):
        SuccessSurface(grid, np.full((3, 2), np.nan))


def test_phase_transition_trivial_cell():
    grid = PhaseGrid((59,), (1,), trials=1, base_seed=3)
    surface = phase_transition(grid)
    np.testing.assert_array_equal(surface.rates, [[1.0]])


def test_phase_transition_deterministic():
    grid = PhaseGrid((25, 40), (1, 3), trials=3, base_seed=5)
    a = phase_transition(grid)
    b = phase_transition(grid)
    np.testing.assert_array_equal(a.rates, b.rates)


def test_phase_transition_workers_match_serial():
    # rates 0, 0.5 and 1 in distinct cells, so a misplaced cell shows
    grid = PhaseGrid((6, 10, 21), (1, 2, 4), trials=2, n=21, pencil=10,
                     base_seed=4)
    serial = phase_transition(grid)
    assert len(np.unique(serial.rates)) == 3
    # a cell-by-cell loop over run_trial, so a misordered reshape shows
    loop = [[np.mean([run_trial(21, "hankel", 10, "identity", m, k,
                                cell_seed(4, m, k, t)).success
                      for t in range(grid.trials)])
             for m in grid.sample_counts] for k in grid.sparsity_levels]
    np.testing.assert_array_equal(serial.rates, loop)
    for workers in (2, 3):
        pooled = phase_transition(grid, workers=workers)
        np.testing.assert_array_equal(pooled.rates, serial.rates)


def test_import_pins_blas_to_one_thread_unless_set():
    # numpy's BLAS starts a thread per core, which every pool worker inherits
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(wlift.__file__).parents[1])
    code = f"import wlift, os; print(*(os.environ[v] for v in {names!r}))"

    def pinned(**preset):
        return subprocess.run([sys.executable, "-c", code], env=env | preset,
                              capture_output=True, text=True,
                              check=True).stdout.split()

    assert pinned() == ["1", "1", "1"]
    assert pinned(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_only_a_pooled_sweep_loads_multiprocessing():
    # a serial sweep and the other commands never start a worker process
    env = os.environ | {"PYTHONPATH": str(Path(wlift.__file__).parents[1])}
    code = ("import os, sys, wlift.cli\n"
            "from wlift.experiments import PhaseGrid, phase_transition\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "os.sched_getaffinity = lambda pid: {{0, 1}}  # two CPUs\n"
            "grid = PhaseGrid((21,), (1,), trials={trials}, n=21, pencil=10)\n"
            "phase_transition(grid, workers={workers})\n"
            "print(*(name in sys.modules for name in pool))")

    def loaded(trials, workers):
        return subprocess.run(
            [sys.executable, "-c", code.format(trials=trials, workers=workers)],
            env=env, capture_output=True, text=True, check=True).stdout.split()

    assert loaded(trials=1, workers=1) == ["False", "False"]
    assert loaded(trials=2, workers=2) == ["True", "True"]


def test_phase_transition_rejects_no_workers():
    grid = PhaseGrid((21,), (1,), trials=1, n=21, pencil=10)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="worker"):
            phase_transition(grid, workers=workers)


def test_phase_transition_rejects_non_integer_workers():
    grid = PhaseGrid((21,), (1,), trials=1, n=21, pencil=10)
    for workers in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="workers"):
            phase_transition(grid, workers=workers)


def test_phase_transition_sizes_pool_by_trials(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    two = PhaseGrid((10, 21), (1,), trials=1, n=21, pencil=10)
    np.testing.assert_array_equal(phase_transition(two, workers=8).rates,
                                  phase_transition(two).rates)
    assert sizes == [2]
    phase_transition(PhaseGrid((21,), (1,), trials=1, n=21, pencil=10),
                     workers=8)
    assert sizes == [2]
    # one cell of three trials still gets a worker per trial
    three = PhaseGrid((10,), (2,), trials=3, n=21, pencil=10, base_seed=4)
    np.testing.assert_array_equal(phase_transition(three, workers=8).rates,
                                  phase_transition(three).rates)
    assert sizes == [2, 3]
    # and at most one per CPU the process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
    phase_transition(three, workers=500)
    assert sizes == [2, 3, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4})
    phase_transition(three, workers=500)
    assert sizes == [2, 3, 2]  # one CPU runs in this process
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    phase_transition(three, workers=500)
    assert sizes == [2, 3, 2, 2]


def test_phase_transition_monotone_in_samples():
    # success should not get worse (in rank order) as M grows at fixed K
    grid = PhaseGrid((10, 20, 30, 40, 50), (2,), trials=6, base_seed=1)
    surface = phase_transition(grid)
    rho = spearman(np.arange(5), surface.rates[0])
    assert rho >= 0.8


def test_emit_dat_round_trip(tmp_path):
    grid = PhaseGrid((20, 30, 40), (1, 2), trials=1)
    rates = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]])
    surface = SuccessSurface(grid, rates)
    out = tmp_path / "mesh.dat"
    emit_dat(surface, out)
    # header, then one "M K rate" row per cell, K-major
    assert out.read_text() == ("M K C\n"
                               "20 1 0.000000\n"
                               "30 1 0.500000\n"
                               "40 1 1.000000\n"
                               "20 2 0.250000\n"
                               "30 2 0.750000\n"
                               "40 2 1.000000\n")
    # the sidecar is the grid record, JSON turning its tuples into lists
    meta = json.loads(out.with_suffix(".dat.meta.json").read_text())
    assert meta == {**asdict(grid), "sample_counts": [20, 30, 40],
                    "sparsity_levels": [1, 2]}


@pytest.mark.parametrize("numpy_field", [
    {"base_seed": np.uint8(3)},
    {"min_separation": np.float32(0.01)},
    {"solver": SolverConfig(max_iters=np.int64(5))},
])
def test_emit_dat_records_grids_built_from_numpy_scalars(tmp_path,
                                                         numpy_field):
    # the grid and its solver settings store Python scalars, so the sidecar
    # serialises and reads back as the grid's record
    grid = PhaseGrid((np.int64(20),), (np.int32(2),), trials=np.int64(2),
                     **numpy_field)
    out = tmp_path / "mesh.dat"
    emit_dat(SuccessSurface(grid, np.array([[0.5]])), out)
    meta = json.loads(out.with_suffix(".dat.meta.json").read_text())
    assert meta == json.loads(json.dumps(asdict(grid)))
    assert PhaseGrid(**{**meta, "solver": SolverConfig(**meta["solver"]),
                        "sample_counts": tuple(meta["sample_counts"]),
                        "sparsity_levels": tuple(meta["sparsity_levels"])}
                     ) == grid


def test_emit_dat_writes_neither_file_when_the_record_fails(tmp_path):
    # both texts are built before either file is written
    grid = PhaseGrid((20,), (1,), trials=1)
    object.__setattr__(grid, "base_seed", np.uint8(3))  # past the check
    out = tmp_path / "mesh.dat"
    with pytest.raises(TypeError):
        emit_dat(SuccessSurface(grid, np.array([[1.0]])), out)
    assert list(tmp_path.iterdir()) == []


def test_emit_dat_unwritable_path(tmp_path):
    grid = PhaseGrid((20,), (1,), trials=1)
    surface = SuccessSurface(grid, np.array([[1.0]]))
    with pytest.raises(OSError):
        emit_dat(surface, tmp_path / "missing_dir" / "mesh.dat")


def test_loglog_slope_exact_power_law():
    rows = [(1e-4, 2e-4), (1e-3, 2e-3), (1e-2, 2e-2)]
    assert abs(loglog_slope(rows) - 1.0) < 1e-12
    rows = [(1e-2, 5e-4), (1e-1, 5e-2)]
    assert abs(loglog_slope(rows) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        loglog_slope([(0.0, 1.0)])
    # rows at one eta fit no line, however many there are
    for rows in ([(1e-3, 0.1), (1e-3, 0.2)],
                 [(0.0, 0.3), (1e-3, 0.1), (1e-3, 0.2)]):
        with pytest.raises(ValueError, match="distinct etas"):
            loglog_slope(rows)


def test_noise_sweep_zero_eta_row():
    rows = noise_sweep(21, "hankel", 10, 1, 14, [0.0, 1e-3], trials=2,
                       base_seed=2,
                       solver_config=SolverConfig(max_iters=3000,
                                                  rel_tol=1e-8))
    assert rows[0][0] == 0.0
    assert rows[0][1] <= 1e-4
    assert rows[1][1] > rows[0][1]


def test_noise_sweep_levels_are_independent():
    # every level sees the same trial instances, so splitting the levels
    # over two sweeps changes no row
    args = (21, "hankel", 10, 1, 14)
    both = noise_sweep(*args, [1e-3, 1e-2], trials=2, base_seed=3)
    assert both == (noise_sweep(*args, [1e-3], trials=2, base_seed=3)
                    + noise_sweep(*args, [1e-2], trials=2, base_seed=3))
    with pytest.raises(ValueError):
        noise_sweep(*args, [1e-3], trials=0)


def test_noise_sweep_checks_every_level_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking every noise level")

    monkeypatch.setattr(experiments, "complete", no_solve)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="noise bound"):
            noise_sweep(21, "hankel", 10, 1, 14, [1e-3, bad], trials=3)


def test_noise_sweep_rejects_non_integer_base_seed(monkeypatch):
    # True would hash as the text "True", a different instance from seed 1,
    # and "1" would silently reproduce seed 1; PhaseGrid refuses both
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking base_seed")

    monkeypatch.setattr(experiments, "complete", no_solve)
    for seed in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="base_seed"):
            noise_sweep(21, "hankel", 10, 1, 12, [1e-3], trials=1,
                        base_seed=seed)
        with pytest.raises(ValueError, match="base_seed"):
            PhaseGrid((12,), (1,), trials=1, n=21, pencil=10, base_seed=seed)


def test_noise_sweep_rejects_non_integer_trials():
    for trials in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="trials"):
            noise_sweep(21, "hankel", 10, 1, 14, [1e-3], trials=trials)
