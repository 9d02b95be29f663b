"""Leverage scores, weighted leverage scores, and related diagnostics.

Scores measure how much each vector coordinate overlaps the row/column
space of the lifted signal; they drive the sampling-probability floor and
the weight-tuning objective. The A-norms are diagnostic quantities used
by the recovery guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lifting import LiftingBasis, lift

if TYPE_CHECKING:
    from .weights import WeightPair

__all__ = [
    "SubspacePair",
    "ScoreVector",
    "subspace_of",
    "leverage_scores",
    "weighted_leverage_scores",
    "lifting_coefficient",
    "probability_floor",
    "a_norm_inf",
    "a_norm_2",
    "scores_to_text",
]

GRAM_CONDITION_LIMIT = 1e12
ORTHONORMAL_TOL = 1e-10
RANK_TOL = 1e-8
B1 = 3.0  # probability_floor's b1: the smallest the theorem allows


@dataclass(frozen=True)
class SubspacePair:
    """Truncated SVD subspaces of a lifted (possibly weighted) signal.

    Both factors have orthonormal columns, to ORTHONORMAL_TOL in every
    entry of Q^H Q - I. So the scores read U and V as they are, and each
    `qr` of W Q that the tuner makes has cond(R) at most max w / min w.
    """

    left: np.ndarray          # d1 x K, orthonormal columns, K >= 1
    right: np.ndarray         # d2 x K, orthonormal columns

    def __post_init__(self):
        if self.left.ndim != 2 or self.right.ndim != 2 \
                or self.left.shape[1] != self.right.shape[1]:
            raise ValueError("subspace factors must be 2-D with equal "
                             "column counts")
        if self.left.shape[1] == 0:
            raise ValueError("subspace factors have no columns (rank 0)")
        for q in (self.left, self.right):
            gap = np.abs(q.conj().T @ q - np.eye(q.shape[1])).max()
            if not gap <= ORTHONORMAL_TOL:
                raise ValueError("subspace factors must have orthonormal "
                                 f"columns (max |Q^H Q - I| = {gap:.3e})")

    @property
    def rank(self) -> int:
        """K, the column count of both factors."""
        return self.left.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    values: np.ndarray
    rank_used: int


def subspace_of(basis: LiftingBasis, x: np.ndarray) -> SubspacePair:
    """SVD subspace of L(x).

    Singular values below RANK_TOL times the largest are discarded.
    """
    u, s, vh = np.linalg.svd(lift(basis, x), full_matrices=False)
    if s.size == 0 or s[0] == 0:
        raise ValueError("zero matrix has no subspace")
    k = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return SubspacePair(u[:, :k], vh[:k, :].conj().T)


def _check_subspace(basis: LiftingBasis, subspace: SubspacePair) -> None:
    if (subspace.left.shape[0], subspace.right.shape[0]) != basis.dims:
        raise ValueError("subspace dimensions do not match the basis")


def _side_norms(q: np.ndarray, groups) -> np.ndarray:
    """||Q^H A_n||_F^2 or ||A_n Q||_F^2 for every n, by `side_groups`."""
    g_rows, e = groups
    # G is real, so G Q is one real product over Q's (re, im) floats
    s = g_rows @ np.ascontiguousarray(q).view(float)
    return (s * s).sum(axis=1) @ e


def leverage_scores(basis: LiftingBasis, subspace: SubspacePair) -> ScoreVector:
    """Unweighted scores (N/K) * max(||U^H A_n||_F^2, ||A_n V||_F^2)."""
    _check_subspace(basis, subspace)
    vals = basis.n / subspace.rank * np.maximum(
        _side_norms(subspace.left, basis.side_groups(True)),
        _side_norms(subspace.right, basis.side_groups(False)))
    return ScoreVector(vals, subspace.rank)


def _weighted_factor(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """An orthonormal factor F of diag(w) Q's range, from one `qr`.

    Raises ValueError when W Q = F R is numerically rank deficient, as
    caller weights with zero or tiny entries can make it: when cond(R)^2,
    the condition number of the Gram matrix Q^H W^2 Q, exceeds
    GRAM_CONDITION_LIMIT.
    """
    factor, r = np.linalg.qr(w[:, None] * q)
    cond = np.linalg.cond(r)
    if not cond <= math.sqrt(GRAM_CONDITION_LIMIT):
        raise ValueError("weight Gram matrix is ill-conditioned "
                         f"(cond(R) = {cond:.3e})")
    return factor


def weighted_leverage_scores(basis: LiftingBasis, weights: WeightPair,
                             subspace: SubspacePair) -> ScoreVector:
    """Scores through the oblique projections induced by (W_L, W_R).

    P_U(Y) = W_L^H U (U^H W_L W_L^H U)^-1 U^H W_L Y is the orthogonal
    projector onto the range of W_L U, so these are the unweighted scores
    of that range's orthonormal factor and of its right-hand mirror's.
    """
    _check_subspace(basis, subspace)
    weights.check_fits(basis)
    return leverage_scores(basis, SubspacePair(
        _weighted_factor(weights.left_diag, subspace.left),
        _weighted_factor(weights.right_diag, subspace.right)))


def lifting_coefficient(basis: LiftingBasis) -> float:
    """R = sum_n ||A_n (.) A_n||_{inf->inf} (max row sum of squared entries).

    Each occupied row of A_n contributes its entry count divided by
    omega_n; for single-entry-per-row structures this reduces to
    sum_n 1/omega_n.
    """
    d1 = basis.dims[0]
    per_row = np.bincount(basis.element * d1 + basis.rows,
                          minlength=basis.n * d1).reshape(basis.n, d1)
    # a Python sum adds in element order, rounding as a running total would
    return float(sum((per_row.max(axis=1) / basis.support_counts).tolist()))


def probability_floor(scores: ScoreVector, r_l: float, n: int) -> np.ndarray:
    """Per-index sampling floor min{1, max{1, R^2 c mu_n K^2 log N} / N}.

    c = 192^2 (B1 + 1); the inner max keeps the floor at 1/N when the
    score term is negligible.
    """
    c = 192.0 ** 2 * (B1 + 1.0)
    k = scores.rank_used
    inner = np.maximum(1.0, r_l ** 2 * c * scores.values * k ** 2 * math.log(n))
    return np.minimum(1.0, inner / n)


def _basis_inner(basis: LiftingBasis, scores: ScoreVector,
                 m: np.ndarray) -> np.ndarray:
    """<A_n, M> for all n, once the A-norms' scores and M are checked."""
    if np.any(scores.values <= 0):
        raise ValueError("A-norms need strictly positive scores")
    m = np.asarray(m, dtype=complex)
    if m.shape != basis.dims:
        raise ValueError(f"expected {basis.dims} matrix, got {m.shape}")
    cells = m[basis.rows, basis.cols]
    # each part adds its element's cells in pattern order
    inner = basis.element_sum(cells.real) + 1j * basis.element_sum(cells.imag)
    return inner / np.sqrt(basis.support_counts)


def a_norm_inf(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """max_n |N <A_n, M> / (K mu_n sqrt(omega_n))|."""
    inner = _basis_inner(basis, scores, m)
    denom = scores.rank_used * scores.values * np.sqrt(basis.support_counts)
    return float(np.max(np.abs(basis.n * inner) / denom))


def a_norm_2(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """sqrt( sum_n |N <A_n, M>|^2 / (K mu_n omega_n N) )'s paper form.

    Exactly sum_n N |<A_n, M>|^2 / (K mu_n omega_n), square-rooted.
    """
    inner = _basis_inner(basis, scores, m)
    denom = scores.rank_used * scores.values * basis.support_counts
    return float(np.sqrt(np.sum(basis.n * np.abs(inner) ** 2 / denom)))


def scores_to_text(scores: ScoreVector) -> str:
    """Two-column dump (1-based index, value) for inspection."""
    lines = [f"{i + 1} {v:.12g}" for i, v in enumerate(scores.values)]
    return "\n".join(lines) + "\n"
