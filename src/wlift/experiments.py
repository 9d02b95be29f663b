"""Monte-Carlo phase-transition sweeps and the noise-scaling study.

Trials draw random frequencies on the unit circle and unit-magnitude
coefficients, sample a uniform M-subset, complete, and threshold the
relative error. Cell seeds are derived by hashing (base_seed, M, K, trial)
so grids are reproducible under any scheduling order.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lifting import LiftingBasis, double_hankel_basis, hankel_basis, lift
from .signal import Mixture, NoiseSpec, add_noise, sample_uniform_m, synthesize
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
    "read_dat",
]

STRUCTURES = ("hankel", "double-hankel")
WEIGHTINGS = ("identity", "two_stage")


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
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if any(m > self.n for m in self.sample_counts):
            raise ValueError("sample counts cannot exceed N")
        if any(k < 1 for k in self.sparsity_levels):
            raise ValueError("sparsity levels must be positive")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}")
        _check_separation(max(self.sparsity_levels, default=1),
                          self.min_separation)


@dataclass(frozen=True)
class SuccessSurface:
    grid: PhaseGrid
    rates: np.ndarray  # shape (len(sparsity_levels), len(sample_counts))

    def __post_init__(self):
        expected = (len(self.grid.sparsity_levels), len(self.grid.sample_counts))
        if self.rates.shape != expected:
            raise ValueError(f"rate matrix must have shape {expected}")
        if np.any(self.rates < 0) or np.any(self.rates > 1):
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
    # K gaps on the unit circle sum to 1, so K * separation >= 1 can never
    # be drawn and the rejection loop would spin forever
    if k * min_separation >= 1:
        raise ValueError(f"{k} frequencies cannot be {min_separation} apart "
                         "on the unit circle")


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
        gaps = np.diff(np.sort(freqs))
        wrap = 1.0 - np.sort(freqs)[-1] + np.sort(freqs)[0]
        if np.all(gaps >= min_separation) and wrap >= min_separation:
            break
    phases = rng.random(k) * 2 * np.pi
    comps = [(np.exp(1j * p), np.exp(2j * np.pi * f))
             for p, f in zip(phases, freqs)]
    return Mixture(n, comps)


def run_trial(n: int, structure: str, pencil: int, weighting: str,
              m: int, k: int, seed: int,
              solver_config: SolverConfig = SolverConfig(),
              min_separation: float = 0.0,
              noise: Optional[NoiseSpec] = None) -> TrialOutcome:
    """One seeded draw-sample-solve-threshold trial.

    Solver errors are folded into a failed outcome with an error code so a
    sweep never crashes on one bad cell.
    """
    rng = np.random.default_rng(seed)
    mixture = random_mixture(n, k, rng, min_separation)
    y = synthesize(mixture)
    observed_y = y if noise is None else add_noise(y, noise)
    sset = sample_uniform_m(n, m, seed=int(rng.integers(2 ** 62)))
    obs = observed_y[sset.indices - 1]
    basis = build_basis(structure, n, pencil)
    eta = None if noise is None else noise.amplitude_bound
    try:
        if weighting == "two_stage":
            _, result = two_stage_pipeline(basis, sset, obs,
                                           solver_config=solver_config,
                                           noise_bound=eta)
        else:
            result = complete(basis, identity_weights(basis.dims), sset, obs,
                              noise_bound=eta, config=solver_config)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return TrialOutcome(False, float("inf"), type(exc).__name__)
    err = relative_error(y, result.estimate)
    return TrialOutcome(err <= solver_config.success_threshold, err)


def _cell_rate(args) -> Tuple[int, int, float]:
    grid, mi, ki = args
    m = grid.sample_counts[mi]
    k = grid.sparsity_levels[ki]
    wins = 0
    for t in range(grid.trials):
        out = run_trial(grid.n, grid.structure, grid.pencil, grid.weighting,
                        m, k, cell_seed(grid.base_seed, m, k, t),
                        grid.solver, grid.min_separation)
        wins += out.success
    return ki, mi, wins / grid.trials


def phase_transition(grid: PhaseGrid, workers: Optional[int] = None
                     ) -> SuccessSurface:
    """Mean success per (M, K) cell; deterministic for a fixed base_seed."""
    if workers is None:
        workers = int(os.environ.get("WLIFT_WORKERS", "1"))
    cells = [(grid, mi, ki)
             for ki in range(len(grid.sparsity_levels))
             for mi in range(len(grid.sample_counts))]
    rates = np.zeros((len(grid.sparsity_levels), len(grid.sample_counts)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for ki, mi, rate in pool.map(_cell_rate, cells):
                rates[ki, mi] = rate
    else:
        for cell in cells:
            ki, mi, rate = _cell_rate(cell)
            rates[ki, mi] = rate
    return SuccessSurface(grid, rates)


def noise_sweep(n: int, structure: str, pencil: int, k: int, m: int,
                etas: Sequence[float], trials: int, base_seed: int = 0,
                solver_config: SolverConfig = SolverConfig()
                ) -> List[Tuple[float, float]]:
    """Mean lifted-domain error per noise level, fixed instance family.

    The reported error is ||L(estimate) - L(truth)||_F averaged over
    trials (identity weights, so the weighted and plain lifts coincide).
    """
    basis = build_basis(structure, n, pencil)
    rows = []
    for eta in etas:
        total = 0.0
        for t in range(trials):
            seed = cell_seed(base_seed, m, k, t)
            rng = np.random.default_rng(seed)
            mixture = random_mixture(n, k, rng)
            y = synthesize(mixture)
            noisy = add_noise(y, NoiseSpec(eta, seed=seed ^ 0x5EED))
            sset = sample_uniform_m(n, m, seed=int(rng.integers(2 ** 62)))
            obs = noisy[sset.indices - 1]
            result = complete(basis, identity_weights(basis.dims), sset, obs,
                              noise_bound=eta if eta > 0 else None,
                              config=solver_config)
            total += float(np.linalg.norm(
                lift(basis, result.estimate) - lift(basis, y)))
        rows.append((float(eta), total / trials))
    return rows


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


def read_dat(path) -> Tuple[List[int], List[int], np.ndarray]:
    """Parse an emitted .dat body back into (M values, K values, rates)."""
    lines = Path(path).read_text().strip().splitlines()
    if lines[0].split() != ["M", "K", "C"]:
        raise ValueError(f"unexpected header in {path}")
    ms, ks, vals = [], [], []
    for ln in lines[1:]:
        m, k, c = ln.split()
        ms.append(int(m)); ks.append(int(k)); vals.append(float(c))
    m_list = sorted(set(ms), key=ms.index)
    k_list = sorted(set(ks), key=ks.index)
    rates = np.array(vals).reshape(len(k_list), len(m_list))
    return m_list, k_list, rates
