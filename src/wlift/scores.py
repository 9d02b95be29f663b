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


@dataclass(frozen=True)
class SubspacePair:
    """Truncated SVD subspaces of a lifted (possibly weighted) signal.

    Both factors have orthonormal columns, to ORTHONORMAL_TOL in every
    entry of Q^H Q - I. So U U^H is the left projector that the scores
    read, and the tuner's Gram matrices Q^H W^2 Q have condition number
    at most (max w / min w)^2.
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


def _side_map(basis: LiftingBasis, side: str):
    """(a, b, m): a side matrix h's side norms are h[a, b].real @ m.

    ||G A_n||_F^2 ("left", h = G^H G) or ||A_n G||_F^2 ("right", h = G G^H)
    is (1/omega_n) sum Re h[a, b] over the pairs of this side's indices
    (rows for "left") of element n's cells that share the other index. By
    column sparsity a left pair is one cell's row twice; double-Hankel's
    right pairs also cross its two blocks. m[p, n] is the count of pair p
    in element n over omega_n.
    """
    left = side == "left"
    this, other = (basis.rows, basis.cols) if left else (basis.cols, basis.rows)
    d, d_other = basis.dims if left else basis.dims[::-1]
    group = basis.element * d_other + other
    order = np.argsort(group)
    group = group[order]
    # cells t apart in group order pair up when they share a group
    i, j, t = [order], [order], 1
    while (s := np.flatnonzero(group[t:] == group[:-t])).size:
        i += [order[s], order[s + t]]
        j += [order[s + t], order[s]]
        t += 1
    i, j = np.concatenate(i), np.concatenate(j)
    a, b = this[i], this[j]
    # by (min, max, a > b): a pair and its mirror, equal in Re h, add in turn
    key = (np.minimum(a, b) * d + np.maximum(a, b)) * 2 + (a > b)
    listed = np.bincount(key, minlength=2 * d * d) > 0
    keys, slot = np.flatnonzero(listed), np.cumsum(listed) - 1
    counts = np.bincount(slot[key] * basis.n + basis.element[i],
                         minlength=keys.size * basis.n)
    lo, hi = np.divmod(keys // 2, d)
    a = np.where(keys % 2, hi, lo)
    return a, lo + hi - a, (counts.reshape(keys.size, basis.n)
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
    left, right = (h[a, b].real @ m for h, (a, b, m) in (
        (u @ u.conj().T, _side_map(basis, "left")),
        (v @ v.conj().T, _side_map(basis, "right"))))
    vals = basis.n / subspace.rank * np.maximum(left, right)
    return ScoreVector(vals, subspace.rank)


def _side_projector(w: np.ndarray, q: np.ndarray, side_map):
    """(P, per-element norms) of one side's oblique projection at weights w.

    P = W^H Q (Q^H W W^H Q)^-1 Q^H W for the real weight diagonal w, with
    Q = U for side "left" and Q = V for side "right". W^H Q is a row
    scaling of Q, and P is an orthogonal projector. The norms are
    ||P A_n||_F^2 ("left") or ||A_n P||_F^2 ("right"), read through the
    side's `_side_map` from P itself, since P^H P = P P^H = P. Raises
    ValueError when the K x K Gram matrix is numerically singular, which
    caller weights with zero or tiny entries can make it.
    """
    wq = w[:, None] * q
    gram = wq.conj().T @ wq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise ValueError(
            f"weight Gram matrix is ill-conditioned (cond={cond:.3e})")
    proj = wq @ np.linalg.solve(gram, wq.conj().T)
    a, b, m = side_map
    return proj, proj[a, b].real @ m


def weighted_leverage_scores(basis: LiftingBasis, weights: WeightPair,
                             subspace: SubspacePair) -> ScoreVector:
    """Scores through the oblique projections induced by (W_L, W_R).

    P_U(Y) = W_L^H U (U^H W_L W_L^H U)^-1 U^H W_L Y and its right-hand
    mirror; the K x K Gram inverses are formed once and shared across n.
    """
    _check_subspace(basis, subspace)
    _, left = _side_projector(weights.left_diag, subspace.left,
                              _side_map(basis, "left"))
    _, right = _side_projector(weights.right_diag, subspace.right,
                               _side_map(basis, "right"))
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
