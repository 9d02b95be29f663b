"""Monte-Carlo phase-transition sweeps and the noise-scaling study.

Trials draw random frequencies on the unit circle and unit-magnitude
coefficients, sample a uniform M-subset, complete, and threshold the
relative error. Cell seeds are derived by hashing (base_seed, M, K, trial)
so grids are reproducible under any scheduling order.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lifting import LiftingBasis, double_hankel_basis, hankel_basis, lift
from .signal import (Mixture, _check_count, _check_noise_bound, add_noise,
                     project, sample_uniform_m, synthesize)
from .solver import SolverConfig, complete, relative_error
from .weights import identity_weights, two_stage_pipeline

__all__ = [
    "PhaseGrid",
    "SuccessSurface",
    "TrialOutcome",
    "build_basis",
    "random_mixture",
    "run_trial",
    "phase_transition",
    "noise_sweep",
    "emit_dat",
]

STRUCTURES = ("hankel", "double-hankel")
WEIGHTINGS = ("identity", "two_stage")
# smallest chance of one random_mixture draw meeting min_separation
MIN_DRAW_PROBABILITY = 1e-6


@dataclass(frozen=True)
class PhaseGrid:
    sample_counts: Tuple[int, ...]
    sparsity_levels: Tuple[int, ...]
    trials: int = 20
    structure: str = "hankel"
    pencil: int = 30
    weighting: str = "identity"
    n: int = 59
    base_seed: int = 0
    min_separation: float = 0.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not self.sample_counts or not self.sparsity_levels:
            raise ValueError("sample counts and sparsity levels must be nonempty")
        for name, count in (("N", self.n), ("pencil", self.pencil),
                            ("trials", self.trials),
                            *(("sample count", m) for m in self.sample_counts),
                            *(("sparsity level", k)
                              for k in self.sparsity_levels)):
            _check_count(name, count)
        if not isinstance(self.base_seed, Integral) \
                or isinstance(self.base_seed, bool):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        if self.pencil > self.n:
            raise ValueError(f"pencil must lie in [1, N], got {self.pencil}")
        if any(m > self.n for m in self.sample_counts):
            raise ValueError("sample counts must lie in [1, N]")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if not isinstance(self.min_separation, Real) \
                or isinstance(self.min_separation, bool):
            raise ValueError("min_separation must be a real number, "
                             f"got {self.min_separation!r}")
        _check_separation(max(self.sparsity_levels), self.min_separation)


@dataclass(frozen=True)
class SuccessSurface:
    grid: PhaseGrid
    rates: np.ndarray  # shape (len(sparsity_levels), len(sample_counts))

    def __post_init__(self):
        expected = (len(self.grid.sparsity_levels), len(self.grid.sample_counts))
        if self.rates.shape != expected:
            raise ValueError(f"rate matrix must have shape {expected}")
        if not np.all((self.rates >= 0) & (self.rates <= 1)):  # NaN fails
            raise ValueError("success rates must lie in [0, 1]")


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    rel_error: float
    error_code: Optional[str] = None


def build_basis(structure: str, n: int, pencil: int) -> LiftingBasis:
    if structure == "hankel":
        return hankel_basis(n, pencil)
    if structure == "double-hankel":
        return double_hankel_basis(n, pencil)
    raise ValueError(f"unknown structure {structure!r}")


def cell_seed(base_seed: int, m: int, k: int, trial: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{m}:{k}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _check_separation(k: int, min_separation: float) -> None:
    if not min_separation >= 0:  # NaN included
        raise ValueError("min_separation must be nonnegative, "
                         f"got {min_separation}")
    # K gaps on the unit circle sum to 1, so K * separation >= 1 can never
    # be drawn and the rejection loop would spin forever
    if not k * min_separation < 1:
        raise ValueError(f"{k} frequencies cannot be {min_separation} apart "
                         "on the unit circle")
    # K uniform points are all s apart with probability (1 - K s)^(K - 1);
    # below MIN_DRAW_PROBABILITY the loop needs over a million draws
    accept = (1 - k * min_separation) ** (k - 1)
    if accept < MIN_DRAW_PROBABILITY:
        raise ValueError(f"{k} frequencies {min_separation} apart on the unit "
                         f"circle: a uniform draw meets that with probability "
                         f"{accept:.1e}")


def random_mixture(n: int, k: int, rng: np.random.Generator,
                   min_separation: float = 0.0) -> Mixture:
    """K unit-circle exponentials with unit-magnitude random-phase weights.

    Frequencies are i.i.d. uniform on [0, 1); an optional wrap-around
    separation floor rejects draws with close pairs.
    """
    _check_separation(k, min_separation)
    while True:
        freqs = rng.random(k)
        if min_separation <= 0 or k == 1:
            break
        ordered = np.sort(freqs)
        gaps = np.diff(ordered)
        wrap = 1.0 - ordered[-1] + ordered[0]
        if np.all(gaps >= min_separation) and wrap >= min_separation:
            break
    phases = rng.random(k) * 2 * np.pi
    comps = [(np.exp(1j * p), np.exp(2j * np.pi * f))
             for p, f in zip(phases, freqs)]
    return Mixture(n, comps)


def _draw(n: int, k: int, m: int, seed: int, min_separation: float = 0.0):
    """A trial's seeded instance: the mixture's samples and the sample set."""
    rng = np.random.default_rng(seed)
    y = synthesize(random_mixture(n, k, rng, min_separation))
    return y, sample_uniform_m(n, m, seed=int(rng.integers(2 ** 62)))


SUCCESS_THRESHOLD = 1e-3  # largest relative error of a successful trial


def run_trial(n: int, structure: str, pencil: int, weighting: str,
              m: int, k: int, seed: int,
              solver_config: SolverConfig = SolverConfig(),
              min_separation: float = 0.0) -> TrialOutcome:
    """One seeded draw-sample-solve-threshold trial.

    It succeeds when its relative error is at most SUCCESS_THRESHOLD.
    Solver errors are folded into a failed outcome with an error code so a
    sweep never crashes on one bad trial.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    y, sset = _draw(n, k, m, seed, min_separation)
    obs = project(y, sset)
    basis = build_basis(structure, n, pencil)
    try:
        if weighting == "two_stage":
            _, result = two_stage_pipeline(basis, sset, obs,
                                           solver_config=solver_config)
        else:
            result = complete(basis, identity_weights(basis.dims), sset, obs,
                              config=solver_config)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return TrialOutcome(False, float("inf"), type(exc).__name__)
    err = relative_error(y, result.estimate)
    return TrialOutcome(err <= SUCCESS_THRESHOLD, err)


def _trial_success(args) -> bool:
    grid, m, k, t = args
    return run_trial(grid.n, grid.structure, grid.pencil, grid.weighting,
                     m, k, cell_seed(grid.base_seed, m, k, t),
                     grid.solver, grid.min_separation).success


def phase_transition(grid: PhaseGrid, workers: int = 1) -> SuccessSurface:
    """Mean success per (M, K) cell; deterministic for a fixed base_seed.

    workers > 1 spreads the trials of every cell over that many processes,
    at most one per trial (a fork pool starts every worker at once).
    """
    _check_count("workers", workers)
    trials = [(grid, m, k, t) for k in grid.sparsity_levels
              for m in grid.sample_counts for t in range(grid.trials)]
    workers = min(workers, len(trials))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        wins = np.fromiter((pool.map if pool else map)(_trial_success, trials),
                           dtype=bool, count=len(trials))
    shape = (len(grid.sparsity_levels), len(grid.sample_counts), grid.trials)
    return SuccessSurface(grid, wins.reshape(shape).sum(axis=2) / grid.trials)


def noise_sweep(n: int, structure: str, pencil: int, k: int, m: int,
                etas: Sequence[float], trials: int, base_seed: int = 0,
                solver_config: SolverConfig = SolverConfig()
                ) -> List[Tuple[float, float]]:
    """Mean lifted-domain error per noise level, fixed instance family.

    The reported error is ||L(estimate) - L(truth)||_F averaged over
    trials (identity weights, so the weighted and plain lifts coincide).
    """
    _check_count("trials", trials)
    if len(etas) == 0:
        raise ValueError("need at least one noise level")
    for eta in etas:  # all before the first solve
        _check_noise_bound(eta)
    basis = build_basis(structure, n, pencil)
    totals = [0.0] * len(etas)
    for t in range(trials):
        seed = cell_seed(base_seed, m, k, t)
        y, sset = _draw(n, k, m, seed)
        for i, eta in enumerate(etas):
            noisy = add_noise(y, eta, seed=seed ^ 0x5EED)
            result = complete(basis, identity_weights(basis.dims), sset,
                              project(noisy, sset),
                              noise_bound=eta if eta > 0 else None,
                              config=solver_config)
            # the unit lift only multiplies by +-1: L(a) - L(b) == L(a - b)
            totals[i] += float(np.linalg.norm(lift(basis, result.estimate - y)))
    return [(float(eta), total / trials) for eta, total in zip(etas, totals)]


def loglog_slope(rows: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(eta), zero rows dropped."""
    pts = [(e, v) for e, v in rows if e > 0 and v > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive (eta, error) pairs")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def emit_dat(surface: SuccessSurface, path) -> None:
    """Write the mesh-plot .dat file plus a JSON metadata sidecar.

    Body: header "M K C", then one "M K rate" row per cell, K-major, so
    the column count equals the number of M values.
    """
    path = Path(path)
    grid = surface.grid
    lines = ["M K C"]
    for ki, k in enumerate(grid.sparsity_levels):
        for mi, m in enumerate(grid.sample_counts):
            lines.append(f"{m} {k} {surface.rates[ki, mi]:.6f}")
    try:
        path.write_text("\n".join(lines) + "\n")
        meta = {
            "n": grid.n,
            "structure": grid.structure,
            "pencil": grid.pencil,
            "weighting": grid.weighting,
            "sample_counts": list(grid.sample_counts),
            "sparsity_levels": list(grid.sparsity_levels),
            "trials": grid.trials,
            "base_seed": grid.base_seed,
            "min_separation": grid.min_separation,
            "solver": asdict(grid.solver),
        }
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(meta, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing surface to {path}: {exc}") from exc

