"""End-to-end acceptance checks for the toolkit.

Each test prints one PASS/FAIL line (visible with pytest -s) and enforces
its runtime budget. The boundary-band sweep is computed once and shared
by the weighting and structure comparisons. Trials are counted through
phase_transition on two processes.
"""

import math
import time

import numpy as np
import pytest

from wlift.experiments import (PhaseGrid, loglog_slope, noise_sweep,
                               phase_transition, random_mixture)
from wlift.lifting import adjoint, double_hankel_basis, hankel_basis, lift
from wlift.scores import (a_norm_2, a_norm_inf, leverage_scores,
                          lifting_coefficient, probability_floor, subspace_of,
                          weighted_leverage_scores)
from wlift.signal import sample_uniform_m, synthesize
from wlift.solver import SolverConfig, complete
from wlift.weights import identity_weights

# sample count M -> the two sparsity levels either side of its boundary
BAND_CELLS = {m: (k - 1, k + 1) for m in (20, 30, 40)
              for k in (math.ceil(m * m / 200 + 0.5),)}
BAND_TRIALS = 50


def _check(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {status} {label}{detail}")
    assert ok, f"criterion {num} failed: {label}{detail}"


def _wins(grid: PhaseGrid) -> int:
    """Successful trials over all of the grid's cells."""
    rates = phase_transition(grid, workers=2).rates
    return sum(round(rate * grid.trials) for rate in rates.flat)


def _band_successes(structure: str, pencil: int, weighting: str) -> int:
    return sum(_wins(PhaseGrid((m,), levels, trials=BAND_TRIALS,
                               structure=structure, pencil=pencil,
                               weighting=weighting))
               for m, levels in BAND_CELLS.items())


@pytest.fixture(scope="module")
def band_counts():
    start = time.perf_counter()
    counts = {
        "identity": _band_successes("hankel", 30, "identity"),
        "two_stage": _band_successes("hankel", 30, "two_stage"),
        "double": _band_successes("double-hankel", 40, "identity"),
    }
    counts["elapsed"] = time.perf_counter() - start
    return counts


def test_criterion_1_lifting_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    # building a basis raises unless all four basis conditions hold
    for basis in (hankel_basis(59, 30), double_hankel_basis(59, 40)):
        for _ in range(100):
            x = rng.normal(size=59) + 1j * rng.normal(size=59)
            worst = max(worst, float(np.max(np.abs(
                adjoint(basis, lift(basis, x)) - x))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5
    _check(1, "lifting round trip and basis conditions", ok,
           f" (max error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_leverage_score_oracle():
    start = time.perf_counter()
    basis3 = hankel_basis(3, 2)
    mu3 = leverage_scores(basis3, subspace_of(basis3, np.ones(3)))
    hand_ok = np.allclose(mu3.values, [1.5, 1.5, 1.5], atol=1e-10)

    basis = hankel_basis(59, 30)
    ident = identity_weights(basis.dims)
    rng = np.random.default_rng(1)
    bound_ok = True
    match_ok = True
    for _ in range(50):
        mix = random_mixture(59, int(rng.integers(1, 8)), rng)
        sub = subspace_of(basis, synthesize(mix))
        mu = leverage_scores(basis, sub)
        wmu = weighted_leverage_scores(basis, ident, sub)
        bound_ok &= bool(np.all(
            mu.values * basis.support_counts <= 59 * (1 + 1e-10)))
        match_ok &= bool(np.max(np.abs(wmu.values - mu.values)) <= 1e-10)
    elapsed = time.perf_counter() - start
    ok = hand_ok and bound_ok and match_ok and elapsed < 10
    _check(2, "leverage-score oracle equivalence", ok,
           f" ({elapsed:.1f}s)")


def test_criterion_3_f0_norm_bounds():
    start = time.perf_counter()
    basis = hankel_basis(59, 30)
    ident = identity_weights(basis.dims)
    r_l = lifting_coefficient(basis)
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        mix = random_mixture(59, int(rng.integers(1, 8)), rng)
        sub = subspace_of(basis, synthesize(mix))
        mu = weighted_leverage_scores(basis, ident, sub)
        f0 = sub.left @ sub.right.conj().T
        ok &= a_norm_inf(basis, mu, f0) <= 1 + 1e-9
        ok &= a_norm_2(basis, mu, f0) ** 2 <= 2 * sub.rank * r_l + 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    _check(3, "lifted-certificate norm bounds", ok, f" ({elapsed:.1f}s)")


def test_criterion_4_exact_recovery_regression():
    start = time.perf_counter()
    easy = _wins(PhaseGrid((40,), (2,), trials=100, base_seed=1))
    hard = _wins(PhaseGrid((5,), (15,), trials=100, base_seed=1))
    elapsed = time.perf_counter() - start
    ok = easy >= 90 and hard <= 5 and elapsed < 15 * 60
    _check(4, "phase-diagram bright/dark regression", ok,
           f" (easy {easy}/100, hard {hard}/100, {elapsed:.0f}s)")


def test_criterion_5_two_stage_vs_identity(band_counts):
    ok = band_counts["two_stage"] >= band_counts["identity"] \
        and band_counts["elapsed"] < 45 * 60
    _check(5, "two-stage weighting beats or ties identity on the band", ok,
           f" (two-stage {band_counts['two_stage']}, "
           f"identity {band_counts['identity']}, "
           f"{band_counts['elapsed']:.0f}s)")


def test_criterion_6_double_structure_vs_single(band_counts):
    ok = band_counts["double"] >= band_counts["identity"]
    _check(6, "double-block structure beats or ties single on the band", ok,
           f" (double {band_counts['double']}, "
           f"single {band_counts['identity']})")


def test_criterion_7_noise_error_trend():
    start = time.perf_counter()
    cfg = SolverConfig(max_iters=4000, rel_tol=1e-9)
    rows = noise_sweep(59, "hankel", 30, 2, 40, [0.0, 1e-4, 1e-3, 1e-2],
                       trials=20, base_seed=0, solver_config=cfg)
    zero_err = rows[0][1]
    slope = loglog_slope(rows[1:])
    elapsed = time.perf_counter() - start
    ok = zero_err <= 1e-6 and slope <= 1.1 and elapsed < 10 * 60
    _check(7, "noise-scaling trend", ok,
           f" (zero-noise error {zero_err:.2e}, slope {slope:.3f}, "
           f"{elapsed:.0f}s)")


def test_criterion_8_probability_floor_saturates():
    start = time.perf_counter()
    basis = hankel_basis(59, 30)
    mix = random_mixture(59, 2, np.random.default_rng(3))
    mu = leverage_scores(basis, subspace_of(basis, synthesize(mix)))
    floor = probability_floor(mu, lifting_coefficient(basis), 59)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(floor == 1.0)) and elapsed < 1
    _check(8, "sample-complexity floor saturates at desk scale", ok,
           f" ({elapsed:.2f}s)")


def test_criterion_9_solver_local_optimality():
    start = time.perf_counter()
    basis = hankel_basis(7, 4)
    y = synthesize(random_mixture(7, 1, np.random.default_rng(4)))
    sset = sample_uniform_m(7, 5, seed=0)
    result = complete(basis, identity_weights(basis.dims), sset,
                      y[sset.indices - 1])

    def objective(g):
        return float(np.linalg.svd(lift(basis, g), compute_uv=False).sum())

    base = objective(result.estimate)
    free = sset.complement() - 1
    rng = np.random.default_rng(5)
    undercuts = 0
    for _ in range(200):
        g = result.estimate.copy()
        scale = 10.0 ** rng.uniform(-4, 0)
        g[free] += scale * (rng.normal(size=free.size)
                            + 1j * rng.normal(size=free.size))
        if objective(g) < base - 1e-6:
            undercuts += 1
    elapsed = time.perf_counter() - start
    ok = undercuts == 0 and elapsed < 30
    _check(9, "returned objective undercuts feasible perturbations", ok,
           f" ({undercuts} undercuts, objective {base:.6f}, {elapsed:.1f}s)")
