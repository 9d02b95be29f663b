"""Weight pairs for the weighted completion program and their tuning.

Weights enter the objective as ||W_L L(g) W_R^H||_*. Identity weights
recover the unweighted program; the data-adaptive tuner searches diagonal
weights that shrink the summed weighted leverage scores of the unobserved
coordinates, which is the quantity the sample-complexity bound scales with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .lifting import LiftingBasis
from .scores import SingularWeightsError, _side_norms, subspace_of
from .signal import SampleSet
from .solver import SolverConfig, complete

__all__ = [
    "WeightPair",
    "TuneResult",
    "identity_weights",
    "tune_diagonal_weights",
    "two_stage_pipeline",
]


@dataclass(frozen=True)
class WeightPair:
    """Diagonal weights W_L = diag(left_diag), W_R = diag(right_diag).

    Both diagonals are finite nonnegative reals (the sqrt-w form).
    """

    left_diag: np.ndarray
    right_diag: np.ndarray
    diagonal_flag = True  # not a field; bench/spans.py reads it

    def __post_init__(self):
        for name in ("left_diag", "right_diag"):
            diag = np.asarray(getattr(self, name))
            if diag.ndim != 1:
                raise ValueError(f"{name} must be a 1-D diagonal, "
                                 f"got shape {diag.shape}")
            diag = diag.astype(float, copy=False)
            if not np.all(np.isfinite(diag)):
                raise ValueError(f"{name} has a non-finite entry")
            if np.any(diag < 0):
                raise ValueError("diagonal weights must be nonnegative")
            object.__setattr__(self, name, diag)

    @property
    def dims(self) -> Tuple[int, int]:
        return self.left_diag.size, self.right_diag.size

    def frobenius_normalized(self) -> "WeightPair":
        fl = np.linalg.norm(self.left_diag)
        fr = np.linalg.norm(self.right_diag)
        if fl == 0 or fr == 0:
            raise ValueError("weight matrices must have positive norm")
        return WeightPair(self.left_diag / fl, self.right_diag / fr)


def identity_weights(dims: Tuple[int, int]) -> WeightPair:
    d1, d2 = dims
    return WeightPair(np.ones(d1), np.ones(d2))


TUNE_SWEEPS = 4             # coordinate-descent sweeps
TUNE_REL_TOL = 1e-6         # stop after a sweep with a smaller relative gain
STEP_FACTORS = (0.5, 2.0)


@dataclass(frozen=True)
class TuneResult:
    weights: WeightPair
    objective: float
    baseline: float
    sweeps: int
    fell_back: bool = False     # set when tuning hit singular weights


def tune_diagonal_weights(basis: LiftingBasis, sample_set: SampleSet,
                          pilot_subspace) -> TuneResult:
    """Coordinate descent on the unobserved weighted-score sum.

    Starts from identity, steps one diagonal entry at a time by x0.5 then
    x2, and keeps strict improvements. The x2 after a kept x0.5 restores
    a value that already lost, so an entry stays in [2^-TUNE_SWEEPS,
    2^TUNE_SWEEPS]. The pilot subspace stays fixed throughout;
    only the oblique projections move with the weights. A step on the
    left diagonal moves only the left projection and a step on the right
    only the right one, so each step recomputes the per-element norms of
    the side it moved. Returns identity weights when nothing improves
    (including the fully observed case, where the objective is an empty
    sum).
    """
    d1, d2 = basis.dims
    unobserved = sample_set.complement()
    identity = identity_weights((d1, d2)).frobenius_normalized()
    if unobserved.size == 0:
        return TuneResult(identity, 0.0, 0.0, 0)

    wl = np.ones(d1)
    wr = np.ones(d2)
    sides = ((wl, pilot_subspace.left, "left"),
             (wr, pilot_subspace.right, "right"))
    scale = basis.n / pilot_subspace.rank

    def objective(left, right) -> float:
        # the unobserved sum of weighted_leverage_scores; max is symmetric
        return float((scale * np.maximum(left, right))[unobserved - 1].sum())

    try:
        norms = [_side_norms(basis, w, q, name) for w, q, name in sides]
    except SingularWeightsError:
        return TuneResult(identity, float("nan"), float("nan"), 0,
                          fell_back=True)
    baseline = objective(*norms)

    best = baseline
    for sweeps in range(1, TUNE_SWEEPS + 1):
        before = best
        for side, (w, q, name) in enumerate(sides):
            for i in range(w.size):
                kept = w[i]
                for fac in STEP_FACTORS:
                    trial = kept * fac
                    w[i] = trial
                    try:
                        moved = _side_norms(basis, w, q, name)
                        val = objective(moved, norms[1 - side])
                    except SingularWeightsError:
                        val = np.inf
                    if val < best:
                        best = val
                        kept = trial
                        norms[side] = moved
                    else:
                        w[i] = kept
        if before - best < TUNE_REL_TOL * max(abs(before), 1.0):
            break

    if best >= baseline:
        return TuneResult(identity, baseline, baseline, sweeps)
    tuned = WeightPair(wl, wr).frobenius_normalized()
    return TuneResult(tuned, best, baseline, sweeps)


def two_stage_pipeline(basis: LiftingBasis, sample_set: SampleSet,
                       observed: np.ndarray,
                       solver_config: SolverConfig = SolverConfig()):
    """Identity-weight solve, then re-solve with tuned diagonal weights.

    Stage 1 completes with identity weights; its lifted estimate provides
    the pilot subspace for weight tuning; stage 2 re-solves the weighted
    program. Returns (weights, stage-2 result). If stage 1 did not
    converge, its lift is degenerate, tuning falls back, or tuning does
    not lower its objective (it then returns scaled identity weights,
    whose program stage 1 has already solved), the stage-1 result is
    returned with identity weights. The pilot's rank cut sits far below
    the accuracy of an unconverged stage 1, so weights tuned from one
    would follow rounding noise.
    """
    ident = identity_weights(basis.dims)
    stage1 = complete(basis, ident, sample_set, observed,
                      config=solver_config)
    if not stage1.converged:
        return ident, stage1
    try:
        pilot = subspace_of(basis, stage1.estimate)
    except ValueError:
        return ident, stage1
    tuned = tune_diagonal_weights(basis, sample_set, pilot)
    if tuned.fell_back or tuned.objective >= tuned.baseline:
        return ident, stage1
    stage2 = complete(basis, tuned.weights, sample_set, observed,
                      config=solver_config)
    return tuned.weights, stage2
