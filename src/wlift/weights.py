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
from .scores import SingularWeightsError, _side_pairs, _side_projector, subspace_of
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
SCREEN_SPAN = 8             # steps scored per closed-form pass, at first
GAIN_REL_TOL = 1e-12        # a step must gain more than rounding to be kept


@dataclass(frozen=True)
class TuneResult:
    weights: WeightPair
    objective: float
    baseline: float
    sweeps: int
    fell_back: bool = False     # set when tuning hit singular weights


def _pair_map(basis: LiftingBasis, side: str, unobserved: np.ndarray):
    """(a, b, m): the unobserved side norms are Re(P[a, b]) @ m.

    The side norms `_side_norms` reads from P sum Re P over the side's
    `_side_pairs`, divided by omega_n. (a, b) lists those entries once
    each; m[p, j] weighs entry p into the j-th unobserved element.
    """
    a, b, element = _side_pairs(basis, side)
    d = basis.dims[0 if side == "left" else 1]
    column = np.full(basis.n, -1)
    column[unobserved - 1] = np.arange(unobserved.size)
    keep = column[element] >= 0
    keys, entry = np.unique(a[keep] * d + b[keep], return_inverse=True)
    m = np.zeros((keys.size, unobserved.size))
    np.add.at(m, (entry, column[element[keep]]),
              1.0 / basis.support_counts[element[keep]])
    return keys // d, keys % d, m


def _stepped_norms(proj: np.ndarray, idx: np.ndarray, fac: np.ndarray,
                   pairs) -> np.ndarray:
    """Unobserved side norms after w[idx[j]] *= fac[j], one row per j.

    With H = Q (Q^H W^2 Q)^-1 Q^H, so that P = W H W, a step is a
    rank-one Sherman-Morrison update of H. In terms of P it reads
    P'[a, b] = s_a s_b (P[a, b] - g P[a, i] P[i, b] / (1 + g P[i, i])),
    with g = fac^2 - 1 and s = fac at i, 1 elsewhere. The denominator is
    at least 1/4, as 0 <= P[i, i] <= 1.
    """
    a, b, m = pairs
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
    and a step on one side moves only that side's projection.

    Each side keeps its projector P for the kept weights, and vectorised
    passes score the side's next steps from it in closed form (a rank-one
    update, see `_stepped_norms`): SCREEN_SPAN steps, then twice as many
    after each pass that keeps none. Only a step that the closed form puts
    within SCREEN_REL_TOL of an improvement is re-solved, with the Gram
    conditioning check and the exact per-element norms, and that exact
    objective decides whether the step is kept. So the kept steps, sweeps
    and objective are those of a loop that re-solves every step, at about
    one Gram solve per kept step. Returns identity weights when nothing
    improves (including the fully observed case, where the objective is
    an empty sum). Raises ValueError for a pilot whose dimensions do not
    match the basis or whose rank is 0.
    """
    d1, d2 = basis.dims
    u, v = pilot_subspace.left, pilot_subspace.right
    if (u.shape[0], v.shape[0]) != (d1, d2):
        raise ValueError("pilot subspace dimensions do not match the basis")
    if pilot_subspace.rank < 1:
        raise ValueError("pilot subspace has rank 0")
    unobserved = sample_set.complement()
    identity = identity_weights((d1, d2)).frobenius_normalized()
    if unobserved.size == 0:
        return TuneResult(identity, 0.0, 0.0, 0)

    wl, wr = np.ones(d1), np.ones(d2)
    sides = ((wl, u, "left"), (wr, v, "right"))
    scale = basis.n / pilot_subspace.rank

    def objective(left, right) -> float:
        # the unobserved sum of weighted_leverage_scores; max is symmetric
        return float((scale * np.maximum(left, right))[unobserved - 1].sum())

    try:
        kept = [_side_projector(basis, w, q, name) for w, q, name in sides]
    except SingularWeightsError:
        return TuneResult(identity, float("nan"), float("nan"), 0,
                          fell_back=True)
    pairs = [_pair_map(basis, name, unobserved) for _, _, name in sides]
    factors = np.array(STEP_FACTORS)
    baseline = best = objective(kept[0][1], kept[1][1])

    for sweeps in range(1, TUNE_SWEEPS + 1):
        before = best
        for side, (w, q, name) in enumerate(sides):
            other = kept[1 - side][1]
            # step k multiplies w[k // 2] by STEP_FACTORS[k % 2]; score
            # the next `span` steps, twice as many after each miss
            step, span = 0, SCREEN_SPAN
            while step < 2 * w.size:
                steps = np.arange(step, min(step + span, 2 * w.size))
                moved = _stepped_norms(kept[side][0], steps // 2,
                                       factors[steps % 2], pairs[side])
                screen = (scale * np.maximum(moved, other[unobserved - 1])
                          ).sum(axis=1)
                near = screen < best * (1.0 + SCREEN_REL_TOL)
                for k in steps[near]:
                    i, old = k // 2, w[k // 2]
                    w[i] = old * STEP_FACTORS[k % 2]
                    try:
                        trial = _side_projector(basis, w, q, name)
                        val = objective(trial[1], other)
                    except SingularWeightsError:
                        val = np.inf
                    if val < best * (1.0 - GAIN_REL_TOL):
                        best, kept[side] = val, trial
                        step, span = k + 1, SCREEN_SPAN
                        break
                    w[i] = old
                else:
                    step, span = steps[-1] + 1, 2 * span
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
