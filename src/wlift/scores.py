"""Leverage scores, weighted leverage scores, and related diagnostics.

Scores measure how much each vector coordinate overlaps the row/column
space of the lifted signal; they drive the sampling-probability floor and
the weight-tuning objective. The A-norms and the incoherence check are
diagnostic quantities used by the recovery guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .lifting import LiftingBasis, lift
from .weights import WeightPair

__all__ = [
    "SubspacePair",
    "ScoreVector",
    "SingularWeightsError",
    "subspace_of",
    "leverage_scores",
    "weighted_leverage_scores",
    "lifting_coefficient",
    "probability_floor",
    "incoherence_check",
    "IncoherenceResult",
    "a_norm_inf",
    "a_norm_2",
    "diag_weight_bound",
    "corollary_beta",
    "scores_to_text",
]

GRAM_CONDITION_LIMIT = 1e12


class SingularWeightsError(ValueError):
    """Weight matrices made the projection Gram matrix numerically singular."""


@dataclass(frozen=True)
class SubspacePair:
    """Truncated SVD subspaces of a lifted (possibly weighted) signal."""

    left: np.ndarray          # d1 x K, orthonormal columns
    right: np.ndarray         # d2 x K, orthonormal columns
    singular_values: np.ndarray
    rank: int


@dataclass(frozen=True)
class ScoreVector:
    values: np.ndarray
    rank_used: int


def subspace_of(basis: LiftingBasis, x: np.ndarray, rank_tol: float = 1e-8,
                weights: Optional[WeightPair] = None) -> SubspacePair:
    """SVD subspace of L(x), or of W_L L(x) W_R^H when weights are given.

    Singular values below rank_tol times the largest are discarded.
    """
    m = lift(basis, x)
    if weights is not None:
        m = weights.left @ m @ weights.right.conj().T
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        raise ValueError("zero matrix has no subspace")
    k = int(np.count_nonzero(s > rank_tol * s[0]))
    return SubspacePair(u[:, :k], vh[:k, :].conj().T, s[:k], k)


def _right_product_norms(basis: LiftingBasis, g_right: np.ndarray) -> np.ndarray:
    """||A_n @ G||_F^2 per element, exact even when pattern rows repeat."""
    d1 = basis.dims[0]
    out = np.empty(basis.n)
    for k in range(basis.n):
        r, c = basis.pattern(k)
        if np.unique(r).size == r.size:
            out[k] = np.sum(np.abs(g_right[c, :]) ** 2) / basis.support_counts[k]
        else:
            acc = np.zeros((d1, g_right.shape[1]), dtype=complex)
            np.add.at(acc, r, g_right[c, :])
            out[k] = np.sum(np.abs(acc) ** 2) / basis.support_counts[k]
    return out


def _left_product_norms(basis: LiftingBasis, g_left: np.ndarray) -> np.ndarray:
    """||G @ A_n||_F^2 per element; pattern columns are distinct by condition 4."""
    col_sq = np.sum(np.abs(g_left) ** 2, axis=0)
    return basis.element_sum(col_sq[basis.rows]) / basis.support_counts


def leverage_scores(basis: LiftingBasis, subspace: SubspacePair) -> ScoreVector:
    """Unweighted scores (N/K) * max(||U^H A_n||_F^2, ||A_n V||_F^2).

    The second argument of the max is evaluated with V itself (d2 x K);
    the conjugate-transpose variant is dimensionally inconsistent for the
    lifted shapes handled here.
    """
    u, v = subspace.left, subspace.right
    if u.shape[0] != basis.dims[0] or v.shape[0] != basis.dims[1]:
        raise ValueError("subspace dimensions do not match the basis")
    left = _left_product_norms(basis, u.conj().T)
    right = _right_product_norms(basis, v)
    vals = basis.n / subspace.rank * np.maximum(left, right)
    return ScoreVector(vals, subspace.rank)


def _oblique_projectors(weights: WeightPair, subspace: SubspacePair):
    """Left/right oblique projector matrices from the weighted subspace."""
    u, v = subspace.left, subspace.right
    wlu = weights.left.conj().T @ u
    wrv = weights.right.conj().T @ v
    gram_l = wlu.conj().T @ wlu
    gram_r = wrv.conj().T @ wrv
    for gram, side in ((gram_l, "left"), (gram_r, "right")):
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise SingularWeightsError(
                f"{side} weight Gram matrix is ill-conditioned (cond={cond:.3e})")
    proj_l = wlu @ np.linalg.solve(gram_l, wlu.conj().T)
    proj_r = wrv @ np.linalg.solve(gram_r, wrv.conj().T)
    return proj_l, proj_r


def weighted_leverage_scores(basis: LiftingBasis, weights: WeightPair,
                             subspace: SubspacePair) -> ScoreVector:
    """Scores through the oblique projections induced by (W_L, W_R).

    P_U(Y) = W_L^H U (U^H W_L W_L^H U)^-1 U^H W_L Y and its right-hand
    mirror; the K x K Gram inverses are formed once and shared across n.
    """
    proj_l, proj_r = _oblique_projectors(weights, subspace)
    left = _left_product_norms(basis, proj_l)
    right = _right_product_norms(basis, proj_r)
    vals = basis.n / subspace.rank * np.maximum(left, right)
    return ScoreVector(vals, subspace.rank)


def lifting_coefficient(basis: LiftingBasis) -> float:
    """R = sum_n ||A_n (.) A_n||_{inf->inf} (max row sum of squared entries).

    Each occupied row of A_n contributes its entry count divided by
    omega_n; for single-entry-per-row structures this reduces to
    sum_n 1/omega_n.
    """
    total = 0.0
    for k in range(basis.n):
        r, _ = basis.pattern(k)
        per_row = np.bincount(r)
        total += per_row.max() / basis.support_counts[k]
    return float(total)


def probability_floor(scores: ScoreVector, r_l: float, n: int,
                      b1: float = 3.0) -> np.ndarray:
    """Per-index sampling floor min{1, max{1, R^2 c mu_n K^2 log N} / N}.

    c = 192^2 (b1 + 1) with b1 >= 3; the inner max keeps the floor at 1/N
    when the score term is negligible.
    """
    if b1 < 3:
        raise ValueError("b1 must be at least 3")
    c = 192.0 ** 2 * (b1 + 1.0)
    k = scores.rank_used
    inner = np.maximum(1.0, r_l ** 2 * c * scores.values * k ** 2 * math.log(n))
    return np.minimum(1.0, inner / n)


class IncoherenceResult(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def incoherence_check(basis: LiftingBasis, weights: WeightPair,
                      subspace: SubspacePair) -> IncoherenceResult:
    """1/(8 sqrt(log N)) <= min_i omega_i * min(||P_U(A_i)||^2, ||P_V(A_i)||^2)."""
    proj_l, proj_r = _oblique_projectors(weights, subspace)
    left = _left_product_norms(basis, proj_l)
    right = _right_product_norms(basis, proj_r)
    rhs = float(np.min(basis.support_counts * np.minimum(left, right)))
    lhs = 1.0 / (8.0 * math.sqrt(math.log(basis.n)))
    return IncoherenceResult(lhs, rhs, lhs <= rhs)


def _basis_inner(basis: LiftingBasis, m: np.ndarray) -> np.ndarray:
    """<A_n, M> for all n."""
    return (basis.element_sum(m[basis.rows, basis.cols])
            / np.sqrt(basis.support_counts))


def a_norm_inf(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """max_n |N <A_n, M> / (K mu_n sqrt(omega_n))|."""
    if np.any(scores.values <= 0):
        raise ValueError("A-norms need strictly positive scores")
    inner = _basis_inner(basis, np.asarray(m, dtype=complex))
    denom = scores.rank_used * scores.values * np.sqrt(basis.support_counts)
    return float(np.max(np.abs(basis.n * inner) / denom))


def a_norm_2(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """sqrt( sum_n |N <A_n, M>|^2 / (K mu_n omega_n N) )'s paper form.

    Exactly sum_n N |<A_n, M>|^2 / (K mu_n omega_n), square-rooted.
    """
    if np.any(scores.values <= 0):
        raise ValueError("A-norms need strictly positive scores")
    inner = _basis_inner(basis, np.asarray(m, dtype=complex))
    denom = scores.rank_used * scores.values * basis.support_counts
    return float(np.sqrt(np.sum(basis.n * np.abs(inner) ** 2 / denom)))


def corollary_beta(subspace: SubspacePair, n: int) -> float:
    """Beta for the diagonal-weight score bound, coherence reading.

    Uses the max squared row norm of U (and of V) as the per-row energy
    bound, chosen so that floor(N / (beta K)) equals the partial-sum length
    the underlying linear-programming argument actually extracts. The
    spectral-norm reading of the same symbol would force the count to 1.
    """
    mr_u = float(np.max(np.sum(np.abs(subspace.left) ** 2, axis=1)))
    mr_v = float(np.max(np.sum(np.abs(subspace.right) ** 2, axis=1)))
    return n / subspace.rank * max(mr_u, mr_v)


def diag_weight_bound(basis: LiftingBasis, weights: WeightPair, beta: float,
                      rank: int) -> np.ndarray:
    """Upper bound on mu_n K / N for diagonal weights.

    bound_n = max( ||W_L A_n||_F^2 / S_L , ||A_n W_R^T||_F^2 / S_R ) where
    S_L, S_R sum the floor(N / (beta K)) smallest squared diagonal weights.
    """
    if not weights.diagonal_flag:
        raise ValueError("bound applies to diagonal weights only")
    count = int(basis.n // (beta * rank))
    if count < 1:
        raise ValueError("empty partial sum: floor(N / (beta K)) is zero")
    wl_sq = np.asarray(weights.left_diag) ** 2
    wr_sq = np.asarray(weights.right_diag) ** 2
    s_l = np.sort(wl_sq)[:count].sum()
    s_r = np.sort(wr_sq)[:count].sum()
    left = basis.element_sum(wl_sq[basis.rows]) / basis.support_counts
    right = basis.element_sum(wr_sq[basis.cols]) / basis.support_counts
    return np.maximum(left / s_l, right / s_r)


def scores_to_text(scores: ScoreVector) -> str:
    """Two-column dump (1-based index, value) for inspection."""
    lines = [f"{i + 1} {v:.12g}" for i, v in enumerate(scores.values)]
    return "\n".join(lines) + "\n"
