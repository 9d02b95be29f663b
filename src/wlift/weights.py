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
from .scores import _check_subspace, _side_map, _side_projector, subspace_of
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
            if np.iscomplexobj(diag):
                if np.any(diag.imag != 0):
                    raise ValueError(f"{name} has a nonzero imaginary part")
                diag = diag.real
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
SCREEN_REL_TOL = 1e-9       # re-solve steps scored this close to improving
GAIN_REL_TOL = 1e-12        # a step must gain more than rounding to be kept


@dataclass(frozen=True)
class TuneResult:
    weights: WeightPair
    objective: float
    baseline: float
    sweeps: int
    fell_back = False  # not a field; bench/spans.py reads it


def _stepped_norms(proj: np.ndarray, idx: np.ndarray, fac: np.ndarray,
                   side_map) -> np.ndarray:
    """Side norms through side_map after w[idx[j]] *= fac[j], one row per j.

    With H = Q (Q^H W^2 Q)^-1 Q^H, so that P = W H W, a step is a
    rank-one Sherman-Morrison update of H. In terms of P it reads
    P'[a, b] = s_a s_b (P[a, b] - g P[a, i] P[i, b] / (1 + g P[i, i])),
    with g = fac^2 - 1 and s = fac at i, 1 elsewhere. The denominator is
    at least 1/4, as 0 <= P[i, i] <= 1.
    """
    a, b, m = side_map
    fac = fac[:, None]
    g = fac * fac - 1.0
    rows = proj[idx]
    shrink = g / (1.0 + g * proj[idx, idx].real[:, None])
    p = proj[a, b].real - shrink * (rows[:, a].conj() * rows[:, b]).real
    p *= (np.where(a == idx[:, None], fac, 1.0)
          * np.where(b == idx[:, None], fac, 1.0))
    return p @ m


def tune_diagonal_weights(basis: LiftingBasis, sample_set: SampleSet,
                          pilot_subspace) -> TuneResult:
    """Coordinate descent on the unobserved weighted-score sum.

    Starts from identity, steps one diagonal entry at a time by x0.5 then
    x2, and keeps a step only if it gains more than GAIN_REL_TOL of the
    objective: a rounding-level move, as on a flat side, is no gain. The
    x2 after a kept x0.5 restores a value that already lost, so an entry
    stays in [2^-TUNE_SWEEPS, 2^TUNE_SWEEPS]. The pilot subspace stays
    fixed throughout; only the oblique projections move with the weights,
    and a step on one side moves only that side's projection. Its factors
    are orthonormal, so each Gram matrix Q^H W^2 Q has condition number at
    most (max w / min w)^2 <= 2^(4 TUNE_SWEEPS), far inside the
    conditioning check of `_side_projector`.

    Each side keeps its projector P for the kept weights, and one
    vectorised pass scores all of the side's remaining steps from it in
    closed form (a rank-one update, see `_stepped_norms`). Only a step
    that the closed form puts within SCREEN_REL_TOL of an improvement is
    re-solved, in step order, with the exact per-element norms, and that
    exact objective decides whether the step is kept. After a kept step
    the pass starts again from the next step. So the kept steps, sweeps
    and objective are those of a loop that re-solves every step, at about
    one Gram solve per kept step. Returns
    identity weights when nothing improves (including the fully observed
    case, where the objective is an empty sum). Raises ValueError for a
    pilot whose dimensions do not match the basis.
    """
    _check_subspace(basis, pilot_subspace)
    d1, d2 = basis.dims
    u, v = pilot_subspace.left, pilot_subspace.right
    unobserved = sample_set.complement()
    identity = identity_weights((d1, d2)).frobenius_normalized()
    if unobserved.size == 0:
        return TuneResult(identity, 0.0, 0.0, 0)

    wl, wr = np.ones(d1), np.ones(d2)
    sides = ((wl, u, _side_map(basis, "left")),
             (wr, v, _side_map(basis, "right")))
    scale = basis.n / pilot_subspace.rank

    def objective(left, right) -> float:
        # the unobserved sum of weighted_leverage_scores; max is symmetric
        return float((scale * np.maximum(left, right))[unobserved - 1].sum())

    kept = [_side_projector(w, q, side_map) for w, q, side_map in sides]
    # the screen reads the unobserved elements' columns and the pairs they use
    screened = []
    for _, _, (a, b, m) in sides:
        m = m[:, unobserved - 1]
        used = m.any(axis=1)
        screened.append((a[used], b[used], m[used]))
    factors = np.array(STEP_FACTORS)
    baseline = best = objective(kept[0][1], kept[1][1])

    for sweeps in range(1, TUNE_SWEEPS + 1):
        before = best
        for side, (w, q, side_map) in enumerate(sides):
            other = kept[1 - side][1]
            # step k multiplies w[k // 2] by STEP_FACTORS[k % 2]; score
            # every remaining step, again from the one after a kept step
            step = 0
            while step < 2 * w.size:
                steps = np.arange(step, 2 * w.size)
                moved = _stepped_norms(kept[side][0], steps // 2,
                                       factors[steps % 2], screened[side])
                screen = (scale * np.maximum(moved, other[unobserved - 1])
                          ).sum(axis=1)
                near = screen < best * (1.0 + SCREEN_REL_TOL)
                step = 2 * w.size
                for k in steps[near]:
                    i, old = k // 2, w[k // 2]
                    w[i] = old * STEP_FACTORS[k % 2]
                    trial = _side_projector(w, q, side_map)
                    val = objective(trial[1], other)
                    if val < best * (1.0 - GAIN_REL_TOL):
                        best, kept[side] = val, trial
                        step = k + 1
                        break
                    w[i] = old
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
    converge, its lift is degenerate, or tuning does not lower its
    objective (it then returns scaled identity weights, whose program
    stage 1 has already solved), the stage-1 result is returned with
    identity weights. The pilot's rank cut sits far below the accuracy of
    an unconverged stage 1, so weights tuned from one would follow
    rounding noise.
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
    if tuned.objective >= tuned.baseline:
        return ident, stage1
    stage2 = complete(basis, tuned.weights, sample_set, observed,
                      config=solver_config)
    return tuned.weights, stage2
