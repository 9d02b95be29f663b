"""First-order solver for the weighted nuclear-norm completion programs.

ADMM on the splitting  min ||Z||_*  s.t.  Z = W_L L(g) W_R^H  with g held
on the observed coordinates (noiseless) or inside the l2-ball around the
noisy observations (noisy). The Z-update is singular value thresholding;
the g-update is a least-squares solve, coordinate-separable because the
weights are diagonal and the lifting patterns are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lifting import LiftingBasis, LiftOperator
from .signal import SampleSet
from .weights import WeightPair

__all__ = [
    "SolverConfig",
    "CompletionResult",
    "svt",
    "complete",
    "relative_error",
]


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    penalty: float = 1.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    success_threshold: float = 1e-3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        for name in ("penalty", "abs_tol", "rel_tol", "success_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CompletionResult:
    estimate: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau * nuclear norm: soft-shrink singular values."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


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


def _ball_project(g: np.ndarray, obs0: np.ndarray, center: np.ndarray,
                  radius: float) -> None:
    """Project g's observed coordinates onto the l2-ball around center."""
    delta = g[obs0] - center
    norm = np.linalg.norm(delta)
    if norm > radius:
        g[obs0] = center + delta * (radius / norm if norm > 0 else 0.0)


def complete(basis: LiftingBasis, weights: WeightPair, sample_set: SampleSet,
             observed: np.ndarray, noise_bound: Optional[float] = None,
             config: SolverConfig = SolverConfig()) -> CompletionResult:
    """Solve the (weighted) completion program for the full sample vector.

    noise_bound=None enforces P_Omega(g) = y_Omega exactly; a nonnegative
    noise_bound eta relaxes it to ||P_Omega(g) - y_Omega||_2 <= sqrt(M) eta.
    Only diagonal weight pairs are supported. Iteration exhaustion returns
    converged=False rather than raising.
    """
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
    if not weights.diagonal_flag:
        raise ValueError("only diagonal weight pairs are supported")
    if weights.dims != basis.dims:
        raise ValueError(f"weights of shape {weights.dims} do not match "
                         f"the {basis.dims} lift")

    wl = np.asarray(weights.left_diag, dtype=float)
    wr = np.asarray(weights.right_diag, dtype=float)
    # rescale so the largest cell weight is 1; pure rescaling of the
    # objective, but it keeps the ADMM tolerances meaningful
    cell = wl[basis.rows] * wr[basis.cols]
    peak = cell.max()
    if peak <= 0:
        raise ValueError("weights annihilate the lift")
    op = LiftOperator(basis, cell / peak)
    if np.any(op.normal_diag <= 0):
        raise ValueError("weights annihilate some coordinate of the lift")
    d1, d2 = basis.dims
    n = basis.n
    obs0 = sample_set.indices - 1
    radius = None if noise_bound is None \
        else float(noise_bound) * np.sqrt(sample_set.size)

    rho = config.penalty
    g = np.zeros(n, dtype=complex)
    g[obs0] = observed
    z = np.zeros((d1, d2), dtype=complex)
    lam = np.zeros((d1, d2), dtype=complex)
    sqrt_mn = np.sqrt(d1 * d2)
    primal = dual = np.inf
    converged = False
    it = 0

    for it in range(1, config.max_iters + 1):
        bg = op.forward(g)
        z_new = svt(bg + lam / rho, 1.0 / rho)

        target = z_new - lam / rho
        g = op.adjoint(target) / op.normal_diag
        if radius is None:
            g[obs0] = observed
        else:
            _ball_project(g, obs0, observed, radius)

        bg = op.forward(g)
        r = bg - z_new
        s = rho * (z_new - z)
        lam += rho * r
        z = z_new

        primal = float(np.linalg.norm(r))
        dual = float(np.linalg.norm(s))
        eps_pri = config.abs_tol * sqrt_mn + config.rel_tol * max(
            np.linalg.norm(bg), np.linalg.norm(z))
        eps_dual = config.abs_tol * sqrt_mn + config.rel_tol * np.linalg.norm(lam)
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break
        # residual balancing keeps rho useful across grid cells
        if primal > 10 * dual:
            rho *= 2.0
        elif dual > 10 * primal:
            rho /= 2.0

    objective = float(peak) * float(
        np.linalg.svd(op.forward(g), compute_uv=False).sum())
    return CompletionResult(g, it, primal, dual, objective, converged)
