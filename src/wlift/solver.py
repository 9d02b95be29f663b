"""First-order solver for the weighted nuclear-norm completion programs.

ADMM on the splitting  min ||Z||_*  s.t.  Z = W_L L(g) W_R^H  with g held
on the observed coordinates (noiseless) or inside the l2-ball around the
noisy observations (noisy). The Z-update is singular value thresholding,
computed from the eigendecomposition of the smaller Gram matrix; the
g-update is a least-squares solve, coordinate-separable because the
weights are diagonal and the lifting patterns are disjoint. One
`LiftOperator` applies the lift and its adjoint; for a centro-Hermitian
weighted lift (double-Hankel with identity or mirror-symmetric weights)
it is the real form, with the same singular values in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Optional

import numpy as np

from .lifting import LiftingBasis, LiftOperator
from .signal import SampleSet, _check_count, _check_noise_bound

if TYPE_CHECKING:
    from .weights import WeightPair

__all__ = [
    "SolverConfig",
    "CompletionResult",
    "svt",
    "complete",
    "relative_error",
]

PENALTY = 1.0
ABS_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """The two settings of `complete`: max_iters and rel_tol.

    max_iters is a positive integer, rel_tol positive and finite. rho
    starts at PENALTY, since residual balancing rescales it from the
    residuals it measures; ABS_TOL floors both tolerances. Success is the
    experiment's definition (`experiments.SUCCESS_THRESHOLD`).
    """

    max_iters: int = 2000
    rel_tol: float = 1e-7

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        if not (isinstance(self.rel_tol, Real)
                and not isinstance(self.rel_tol, bool)
                and 0 < self.rel_tol < math.inf):
            raise ValueError("rel_tol must be positive and finite")


@dataclass(frozen=True)
class CompletionResult:
    estimate: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau * nuclear norm: soft-shrink singular values.

    Works through the eigendecomposition of the smaller Gram matrix
    B B^H (B = m, or m^H when m is tall), which is cheaper than an SVD
    of m: with B B^H = U diag(s^2) U^H, the result is
    U_k diag(1 - tau / s_k) U_k^H B over the pairs with s_k > tau.
    A real m stays real, so its Gram matrix takes the real `eigh`.
    """
    if not tau >= 0:
        raise ValueError("threshold must be nonnegative")
    m = np.asarray(m)
    tall = m.shape[0] > m.shape[1]
    b = m.conj().T if tall else m
    w, u = np.linalg.eigh(b @ b.conj().T)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > tau
    uk = u[:, keep]
    out = (uk * (1.0 - tau / s[keep])) @ (uk.conj().T @ b)
    return out.conj().T if tall else out


def relative_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """||truth - estimate||_2 / ||truth||_2."""
    truth = np.asarray(truth, dtype=complex)
    estimate = np.asarray(estimate, dtype=complex)
    if truth.shape != estimate.shape:
        raise ValueError("length mismatch")
    denom = np.linalg.norm(truth)
    if denom == 0:
        raise ValueError("truth vector is zero")
    return float(np.linalg.norm(truth - estimate) / denom)


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm of an array, without the wrapper's dispatch.

    Same arithmetic, so the same bits: sqrt(re . re + im . im).
    """
    flat = a.ravel(order="K")
    if flat.dtype.kind != "c":
        return math.sqrt(flat.dot(flat))
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _ball_project(g: np.ndarray, obs0: np.ndarray, center: np.ndarray,
                  radius: float) -> None:
    """Project g's observed coordinates onto the l2-ball around center."""
    delta = g[obs0] - center
    norm = _norm(delta)
    if norm > radius:
        g[obs0] = center + delta * (radius / norm)


def complete(basis: LiftingBasis, weights: WeightPair, sample_set: SampleSet,
             observed: np.ndarray, noise_bound: Optional[float] = None,
             config: SolverConfig = SolverConfig()) -> CompletionResult:
    """Solve the (weighted) completion program for the full sample vector.

    noise_bound=None enforces P_Omega(g) = y_Omega exactly; a finite
    nonnegative noise_bound eta relaxes it to
    ||P_Omega(g) - y_Omega||_2 <= sqrt(M) eta.
    ADMM starts at rho = PENALTY and stops when both residuals are within
    ABS_TOL * sqrt(d1 d2) + config.rel_tol * (an iterate's norm); hitting
    config.max_iters first returns converged=False rather than raising.
    """
    if noise_bound is not None:
        _check_noise_bound(noise_bound)
    observed = np.asarray(observed, dtype=complex)
    if sample_set.size == 0:
        raise ValueError("cannot complete from an empty sample set")
    if observed.shape != (sample_set.size,):
        raise ValueError("observed values must match the sample set size")
    if not np.all(np.isfinite(observed.view(float))):
        raise ValueError("non-finite observations")
    if sample_set.universe != basis.n:
        raise ValueError(f"sample set covers {sample_set.universe} indices, "
                         f"the basis {basis.n}")
    if weights.dims != basis.dims:
        raise ValueError(f"weights of shape {weights.dims} do not match "
                         f"the {basis.dims} lift")

    wl, wr = weights.left_diag, weights.right_diag
    # rescale so the largest cell weight is 1; pure rescaling of the
    # objective, but it keeps the ADMM tolerances meaningful
    cell = wl[basis.rows] * wr[basis.cols]
    peak = cell.max()
    if peak <= 0:
        raise ValueError("weights annihilate the lift")
    op = LiftOperator(basis, cell / peak)
    # Z and Lambda live in the lift's real coordinates when it has them
    op = op.real_form() or op
    if np.any(op.normal_diag <= 0):
        raise ValueError("weights annihilate some coordinate of the lift")
    d1, d2 = basis.dims
    n = basis.n
    obs0 = sample_set.indices - 1
    radius = None if noise_bound is None \
        else float(noise_bound) * np.sqrt(sample_set.size)

    rho = PENALTY
    g = np.zeros(n, dtype=complex)
    g[obs0] = observed
    bg = op.forward(g)
    z = np.zeros_like(bg)
    lam = np.zeros_like(bg)
    abs_eps = ABS_TOL * np.sqrt(d1 * d2)
    primal = dual = np.inf
    converged = False
    it = 0

    for it in range(1, config.max_iters + 1):
        scaled_lam = lam / rho
        z_new = svt(bg + scaled_lam, 1.0 / rho)

        g = op.adjoint(z_new - scaled_lam) / op.normal_diag
        if radius is None:
            g[obs0] = observed
        else:
            _ball_project(g, obs0, observed, radius)

        bg = op.forward(g)  # also the next iteration's lift of g
        r = bg - z_new
        s = rho * (z_new - z)
        lam += rho * r
        z = z_new

        primal = _norm(r)
        dual = _norm(s)
        eps_pri = abs_eps + config.rel_tol * max(_norm(bg), _norm(z))
        # the dual tolerance needs norm(lam) only once the primal one holds
        if primal <= eps_pri and dual <= abs_eps + config.rel_tol * _norm(lam):
            converged = True
            break
        # residual balancing keeps rho useful across grid cells
        if primal > 10 * dual:
            rho *= 2.0
        elif dual > 10 * primal:
            rho /= 2.0

    objective = float(peak) * float(np.linalg.svd(bg, compute_uv=False).sum())
    return CompletionResult(g, it, primal, dual, objective, converged)
