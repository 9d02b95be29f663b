import json

import numpy as np
import pytest

from wlift import experiments
from wlift.experiments import (PhaseGrid, SuccessSurface, build_basis,
                               cell_seed, emit_dat, loglog_slope, noise_sweep,
                               phase_transition, random_mixture, run_trial)
from wlift.solver import SolverConfig


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


def test_run_trial_is_deterministic():
    a = run_trial(59, "hankel", 30, "identity", 30, 2, 12345)
    b = run_trial(59, "hankel", 30, "identity", 30, 2, 12345)
    assert a.rel_error == b.rel_error and a.success == b.success


def test_run_trial_survives_degenerate_cell():
    # M = 1 observed sample cannot determine anything but must not raise
    out = run_trial(59, "hankel", 30, "identity", 1, 3, 7)
    assert not out.success


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

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
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
    meta = json.loads(out.with_suffix(".dat.meta.json").read_text())
    assert meta["sample_counts"] == [20, 30, 40]
    assert meta["trials"] == 1


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


def test_noise_sweep_rejects_non_integer_trials():
    for trials in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="trials"):
            noise_sweep(21, "hankel", 10, 1, 14, [1e-3], trials=trials)
