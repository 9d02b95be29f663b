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
from .scores import (_check_subspace, _side_norms, _weighted_factor,
                     subspace_of)
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

    def check_fits(self, basis: LiftingBasis) -> None:
        """Raise ValueError unless these weights have the basis's lift shape."""
        if self.dims != basis.dims:
            raise ValueError(f"weights of shape {self.dims} do not match "
                             f"the {basis.dims} lift")

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
GAIN_REL_TOL = 1e-12        # a step must gain more than rounding to be kept


@dataclass(frozen=True)
class TuneResult:
    weights: WeightPair
    objective: float
    baseline: float
    sweeps: int
    fell_back = False  # not a field; bench/spans.py reads it


def _stepped_norms(q: np.ndarray, idx: np.ndarray, fac: np.ndarray,
                   groups) -> np.ndarray:
    """Side norms after w[idx[j]] *= fac[j], one row per j.

    q is `_weighted_factor`'s C-ordered orthonormal factor of the kept
    weights' W Q, (G, E) are `side_groups`. A step scales row i of W Q by
    f; with g = f^2 - 1, a Sherman-Morrison update of
    (q^H (I + g e_i e_i^T) q)^-1 gives group row s = G q the stepped
    squared norm ||s||^2 - g |d|^2 / (1 + g a) + [i in group]
    (f - 1)(2 Re d + (f - 1) a) / (1 + g a), with d = s . conj(q_i) and
    a = ||q_i||^2. As 0 <= a <= 1, 1 + g a >= 1/4.
    """
    g_rows, e = groups
    s = g_rows @ q.view(float)  # G q, as in `_side_norms`
    qi = q[idx]
    d = s.view(complex) @ qi.conj().T
    a = (qi.real ** 2 + qi.imag ** 2).sum(axis=1)
    g = fac * fac - 1.0
    denom = 1.0 + g * a
    norms = ((s * s).sum(axis=1)[:, None]
             - g / denom * (d.real ** 2 + d.imag ** 2)
             + g_rows[:, idx] * ((fac - 1.0) * (2.0 * d.real + (fac - 1.0) * a)
                                 / denom))
    return norms.T @ e


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
    are orthonormal, so each `qr` of W Q has cond(R) at most
    max w / min w <= 2^(2 TUNE_SWEEPS), far inside the conditioning check
    of `_weighted_factor`.

    Each side keeps an orthonormal factor of W Q for the kept weights,
    and one vectorised pass over the groups that the unobserved elements
    use scores all of the side's remaining steps from it in closed form
    (see `_stepped_norms`). The first step that puts the objective more
    than GAIN_REL_TOL lower is kept: the factor and the side's norms are
    recomputed, their exact objective becomes the one to beat, and the
    next pass starts from the next step. So a tune makes one `qr` per
    side plus one per kept step. Returns identity weights when nothing
    improves (including the fully observed case, where the objective is
    an empty sum). Raises ValueError for a pilot whose dimensions do not
    match the basis.
    """
    _check_subspace(basis, pilot_subspace)
    unobserved = sample_set.complement()
    if unobserved.size == 0:
        return TuneResult(identity_weights(basis.dims).frobenius_normalized(),
                          0.0, 0.0, 0)

    wl, wr = (np.ones(d) for d in basis.dims)
    sides, passes = [], []
    for w, q, left in ((wl, pilot_subspace.left, True),
                       (wr, pilot_subspace.right, False)):
        g_rows, e = groups = basis.side_groups(left)
        sides.append((w, q, groups))
        # a pass reads the unobserved elements' columns and their groups
        e = e[:, unobserved - 1]
        used = e.any(axis=1)
        passes.append((g_rows[used], e[used]))
    scale = basis.n / pilot_subspace.rank

    def objective(left, right) -> float:
        # the unobserved sum of weighted_leverage_scores; max is symmetric
        return float((scale * np.maximum(left, right))[unobserved - 1].sum())

    kept = [_weighted_factor(w, q) for w, q, _ in sides]
    norms = [_side_norms(f, groups) for f, (_, _, groups) in zip(kept, sides)]
    factors = np.array(STEP_FACTORS)
    baseline = best = objective(*norms)

    for sweeps in range(1, TUNE_SWEEPS + 1):
        before = best
        for side, (w, q, groups) in enumerate(sides):
            other = norms[1 - side]
            # step k multiplies w[k // 2] by STEP_FACTORS[k % 2]; score
            # every remaining step, again from the one after a kept step
            step = 0
            while True:
                steps = np.arange(step, 2 * w.size)
                moved = _stepped_norms(kept[side], steps // 2,
                                       factors[steps % 2], passes[side])
                scored = (scale * np.maximum(moved, other[unobserved - 1])
                          ).sum(axis=1)
                gains = steps[scored < best * (1.0 - GAIN_REL_TOL)]
                if gains.size == 0:
                    break
                k = gains[0]
                w[k // 2] *= STEP_FACTORS[k % 2]
                kept[side] = _weighted_factor(w, q)
                norms[side] = _side_norms(kept[side], groups)
                best = objective(norms[side], other)
                step = k + 1
        if before - best < TUNE_REL_TOL * max(abs(before), 1.0):
            break

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
