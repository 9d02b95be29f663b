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
    "SingularWeightsError",
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


class SingularWeightsError(ValueError):
    """Weight matrices made the projection Gram matrix numerically singular."""


@dataclass(frozen=True)
class SubspacePair:
    """Truncated SVD subspaces of a lifted (possibly weighted) signal."""

    left: np.ndarray          # d1 x K, orthonormal columns
    right: np.ndarray         # d2 x K, orthonormal columns

    def __post_init__(self):
        if self.left.ndim != 2 or self.right.ndim != 2 \
                or self.left.shape[1] != self.right.shape[1]:
            raise ValueError("subspace factors must be 2-D with equal "
                             "column counts")

    @property
    def rank(self) -> int:
        """K, the column count of both factors."""
        return self.left.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    values: np.ndarray
    rank_used: int


def subspace_of(basis: LiftingBasis, x: np.ndarray,
                rank_tol: float = 1e-8) -> SubspacePair:
    """SVD subspace of L(x).

    Singular values below rank_tol times the largest are discarded.
    """
    u, s, vh = np.linalg.svd(lift(basis, x), full_matrices=False)
    if s.size == 0 or s[0] == 0:
        raise ValueError("zero matrix has no subspace")
    k = int(np.count_nonzero(s > rank_tol * s[0]))
    return SubspacePair(u[:, :k], vh[:k, :].conj().T)


def _side_pairs(basis: LiftingBasis, side: str):
    """(a, b, element): each factor G's side norms, ||G A_n||_F^2 ("left",
    H = G^H G) or ||A_n G||_F^2 ("right", H = G G^H), are (1/omega_n) sum
    Re H[a, b] over element n's pairs. An element's cells have distinct
    columns, so the left pairs are each cell's row with itself; the right
    pairs are its same-row cell pairs (`LiftingBasis.row_pairs`).
    """
    if side == "left":
        return basis.rows, basis.rows, basis.element
    return basis.row_pairs


def _side_norms(basis: LiftingBasis, side: str, h: np.ndarray) -> np.ndarray:
    """Per-element side norms from the side's Hermitian Gram matrix h."""
    a, b, element = _side_pairs(basis, side)
    return (np.bincount(element, weights=h[a, b].real, minlength=basis.n)
            / basis.support_counts)


def _check_subspace(basis: LiftingBasis, subspace: SubspacePair) -> None:
    if (subspace.left.shape[0], subspace.right.shape[0]) != basis.dims:
        raise ValueError("subspace dimensions do not match the basis")


def leverage_scores(basis: LiftingBasis, subspace: SubspacePair) -> ScoreVector:
    """Unweighted scores (N/K) * max(||U^H A_n||_F^2, ||A_n V||_F^2).

    These equal the side norms of the projectors U U^H and V V^H.
    """
    _check_subspace(basis, subspace)
    u, v = subspace.left, subspace.right
    left = _side_norms(basis, "left", u @ u.conj().T)
    right = _side_norms(basis, "right", v @ v.conj().T)
    vals = basis.n / subspace.rank * np.maximum(left, right)
    return ScoreVector(vals, subspace.rank)


def _side_projector(basis: LiftingBasis, w: np.ndarray, q: np.ndarray,
                    side: str):
    """(P, per-element norms) of one side's oblique projection at weights w.

    P = W^H Q (Q^H W W^H Q)^-1 Q^H W for the real weight diagonal w, with
    Q = U for side "left" and Q = V for side "right". W^H Q is a row
    scaling of Q, and P is an orthogonal projector. The norms are
    ||P A_n||_F^2 ("left") or ||A_n P||_F^2 ("right"), read by
    `_side_norms` from P itself, since P^H P = P P^H = P. Raises
    SingularWeightsError when the K x K Gram matrix is numerically singular.
    """
    wq = w[:, None] * q
    gram = wq.conj().T @ wq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise SingularWeightsError(
            f"{side} weight Gram matrix is ill-conditioned (cond={cond:.3e})")
    proj = wq @ np.linalg.solve(gram, wq.conj().T)
    return proj, _side_norms(basis, side, proj)


def weighted_leverage_scores(basis: LiftingBasis, weights: WeightPair,
                             subspace: SubspacePair) -> ScoreVector:
    """Scores through the oblique projections induced by (W_L, W_R).

    P_U(Y) = W_L^H U (U^H W_L W_L^H U)^-1 U^H W_L Y and its right-hand
    mirror; the K x K Gram inverses are formed once and shared across n.
    """
    _check_subspace(basis, subspace)
    _, left = _side_projector(basis, weights.left_diag, subspace.left, "left")
    _, right = _side_projector(basis, weights.right_diag, subspace.right,
                               "right")
    vals = basis.n / subspace.rank * np.maximum(left, right)
    return ScoreVector(vals, subspace.rank)


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


def probability_floor(scores: ScoreVector, r_l: float, n: int,
                      b1: float = 3.0) -> np.ndarray:
    """Per-index sampling floor min{1, max{1, R^2 c mu_n K^2 log N} / N}.

    c = 192^2 (b1 + 1) with b1 >= 3; the inner max keeps the floor at 1/N
    when the score term is negligible.
    """
    if not b1 >= 3:
        raise ValueError("b1 must be at least 3")
    c = 192.0 ** 2 * (b1 + 1.0)
    k = scores.rank_used
    inner = np.maximum(1.0, r_l ** 2 * c * scores.values * k ** 2 * math.log(n))
    return np.minimum(1.0, inner / n)


def _basis_inner(basis: LiftingBasis, m: np.ndarray) -> np.ndarray:
    """<A_n, M> for all n."""
    m = np.asarray(m, dtype=complex)
    if m.shape != basis.dims:
        raise ValueError(f"expected {basis.dims} matrix, got {m.shape}")
    cells = m[basis.rows, basis.cols]
    # each part adds its element's cells in pattern order
    inner = basis.element_sum(cells.real) + 1j * basis.element_sum(cells.imag)
    return inner / np.sqrt(basis.support_counts)


def a_norm_inf(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """max_n |N <A_n, M> / (K mu_n sqrt(omega_n))|."""
    if np.any(scores.values <= 0):
        raise ValueError("A-norms need strictly positive scores")
    inner = _basis_inner(basis, m)
    denom = scores.rank_used * scores.values * np.sqrt(basis.support_counts)
    return float(np.max(np.abs(basis.n * inner) / denom))


def a_norm_2(basis: LiftingBasis, scores: ScoreVector, m: np.ndarray) -> float:
    """sqrt( sum_n |N <A_n, M>|^2 / (K mu_n omega_n N) )'s paper form.

    Exactly sum_n N |<A_n, M>|^2 / (K mu_n omega_n), square-rooted.
    """
    if np.any(scores.values <= 0):
        raise ValueError("A-norms need strictly positive scores")
    inner = _basis_inner(basis, m)
    denom = scores.rank_used * scores.values * basis.support_counts
    return float(np.sqrt(np.sum(basis.n * np.abs(inner) ** 2 / denom)))


def scores_to_text(scores: ScoreVector) -> str:
    """Two-column dump (1-based index, value) for inspection."""
    lines = [f"{i + 1} {v:.12g}" for i, v in enumerate(scores.values)]
    return "\n".join(lines) + "\n"
