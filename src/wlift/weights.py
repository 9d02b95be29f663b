"""Weight pairs for the weighted completion program and their tuning.

Weights enter the objective as ||W_L L(g) W_R^H||_*. Identity weights
recover the unweighted program; the data-adaptive tuner searches diagonal
weights that shrink the summed weighted leverage scores of the unobserved
coordinates, which is the quantity the sample-complexity bound scales with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .lifting import LiftingBasis
from .signal import SampleSet

__all__ = [
    "WeightPair",
    "TuneConfig",
    "TuneResult",
    "identity_weights",
    "diagonal_weights",
    "tune_diagonal_weights",
    "two_stage_pipeline",
]


@dataclass(frozen=True)
class WeightPair:
    """Left/right weight matrices with a diagonal fast path.

    When diagonal_flag is set, left_diag/right_diag hold the nonnegative
    real diagonals (the sqrt-w form) and the dense matrices are their
    diag embeddings.
    """

    left: np.ndarray
    right: np.ndarray
    diagonal_flag: bool = False
    left_diag: Optional[np.ndarray] = None
    right_diag: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.diagonal_flag:
            if self.left_diag is None or self.right_diag is None:
                raise ValueError("diagonal weights need explicit diagonals")
            if np.any(np.asarray(self.left_diag) < 0) or \
               np.any(np.asarray(self.right_diag) < 0):
                raise ValueError("diagonal weights must be nonnegative")

    @property
    def dims(self) -> Tuple[int, int]:
        return self.left.shape[0], self.right.shape[0]

    def frobenius_normalized(self) -> "WeightPair":
        fl = np.linalg.norm(self.left)
        fr = np.linalg.norm(self.right)
        if fl == 0 or fr == 0:
            raise ValueError("weight matrices must have positive norm")
        if self.diagonal_flag:
            return diagonal_weights(self.left_diag / fl, self.right_diag / fr)
        return WeightPair(self.left / fl, self.right / fr)


def identity_weights(dims: Tuple[int, int]) -> WeightPair:
    d1, d2 = dims
    return diagonal_weights(np.ones(d1), np.ones(d2))


def diagonal_weights(left_diag: np.ndarray, right_diag: np.ndarray) -> WeightPair:
    ld = np.asarray(left_diag, dtype=float)
    rd = np.asarray(right_diag, dtype=float)
    return WeightPair(np.diag(ld).astype(complex), np.diag(rd).astype(complex),
                      diagonal_flag=True, left_diag=ld, right_diag=rd)


@dataclass(frozen=True)
class TuneConfig:
    max_iters: int = 4          # coordinate-descent sweeps
    min_weight: float = 1e-3
    rel_tol: float = 1e-6
    step_factors: Tuple[float, ...] = (0.5, 2.0)


@dataclass(frozen=True)
class TuneResult:
    weights: WeightPair
    objective: float
    baseline: float
    sweeps: int
    fell_back: bool = False     # set when tuning hit singular weights


def _unobserved_score_sum(basis, weights, subspace, unobserved) -> float:
    from .scores import weighted_leverage_scores
    mu = weighted_leverage_scores(basis, weights, subspace)
    return float(mu.values[unobserved - 1].sum())


def tune_diagonal_weights(basis: LiftingBasis, sample_set: SampleSet,
                          pilot_subspace, config: TuneConfig = TuneConfig()
                          ) -> TuneResult:
    """Projected coordinate descent on the unobserved weighted-score sum.

    Starts from identity, perturbs one diagonal entry at a time by the
    configured multiplicative factors, and keeps strict improvements,
    clipping at min_weight. The pilot subspace stays fixed throughout;
    only the oblique projections move with the weights. Returns identity
    weights when nothing improves (including the fully observed case,
    where the objective is an empty sum).
    """
    from .scores import SingularWeightsError

    d1, d2 = basis.dims
    unobserved = sample_set.complement()
    identity = identity_weights((d1, d2)).frobenius_normalized()
    if unobserved.size == 0:
        return TuneResult(identity, 0.0, 0.0, 0)

    wl = np.ones(d1)
    wr = np.ones(d2)

    def evaluate(wl, wr) -> float:
        return _unobserved_score_sum(
            basis, diagonal_weights(wl, wr), pilot_subspace, unobserved)

    try:
        baseline = evaluate(wl, wr)
    except SingularWeightsError:
        return TuneResult(identity, float("nan"), float("nan"), 0,
                          fell_back=True)

    best = baseline
    sweeps = 0
    for sweep in range(config.max_iters):
        sweeps = sweep + 1
        before = best
        for w in (wl, wr):
            for i in range(w.size):
                kept = w[i]
                for fac in config.step_factors:
                    trial = max(config.min_weight, kept * fac)
                    if trial == kept:
                        continue
                    w[i] = trial
                    try:
                        val = evaluate(wl, wr)
                    except SingularWeightsError:
                        val = np.inf
                    if val < best:
                        best = val
                        kept = trial
                    else:
                        w[i] = kept
        if before - best < config.rel_tol * max(abs(before), 1.0):
            break

    if best >= baseline:
        return TuneResult(identity, baseline, baseline, sweeps)
    tuned = diagonal_weights(wl, wr).frobenius_normalized()
    return TuneResult(tuned, best, baseline, sweeps)


def two_stage_pipeline(basis: LiftingBasis, sample_set: SampleSet,
                       observed: np.ndarray, solver_config=None,
                       tune_config: TuneConfig = TuneConfig(),
                       noise_bound: Optional[float] = None):
    """Identity-weight solve, then re-solve with tuned diagonal weights.

    Stage 1 completes with identity weights; its lifted estimate provides
    the pilot subspace for weight tuning; stage 2 re-solves the weighted
    program. Returns (weights, stage-2 result). If the stage-1 lift is
    degenerate, tuning falls back, or tuning does not lower its objective
    (it then returns scaled identity weights, whose program stage 1 has
    already solved), the stage-1 result is returned with identity weights.
    """
    from .scores import subspace_of
    from .solver import SolverConfig, complete

    if solver_config is None:
        solver_config = SolverConfig()
    ident = identity_weights(basis.dims)
    stage1 = complete(basis, ident, sample_set, observed,
                      noise_bound=noise_bound, config=solver_config)
    try:
        pilot = subspace_of(basis, stage1.estimate)
    except ValueError:
        return ident, stage1
    tuned = tune_diagonal_weights(basis, sample_set, pilot, tune_config)
    if tuned.fell_back or tuned.objective >= tuned.baseline:
        return ident, stage1
    stage2 = complete(basis, tuned.weights, sample_set, observed,
                      noise_bound=noise_bound, config=solver_config)
    return tuned.weights, stage2
