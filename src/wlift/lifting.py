"""Sparse lifting bases and the lift operator.

A lifting basis is a family of N sparse d1 x d2 matrices {A_n}, each with
omega_n nonzeros all equal to 1/sqrt(omega_n), mutually orthogonal, with at
most one nonzero per column. The lift maps a length-N vector to
sum_n a_n * x_n * A_n with a_n = sqrt(omega_n), so every cell of element n
holds x_n; the back projection inverts it coordinate-wise. A basis may
mark some cells as conjugating, in which case those cells carry conj(x_n)
and the lift is real-linear instead of complex-linear.

Patterns are kept as flat coordinate arrays grouped by element, so the
lift and its adjoint are plain fancy-indexing operations. `LiftOperator`
is the one implementation of both; it also carries optional per-cell
weights, which is how the solver applies diagonal weight pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "LiftingBasis",
    "LiftOperator",
    "BasisReport",
    "hankel_basis",
    "double_hankel_basis",
    "make_basis",
    "lift",
    "adjoint",
    "validate_basis",
]


@dataclass(frozen=True)
class LiftingBasis:
    """Coordinate-form lifting basis.

    rows/cols/element are parallel flat arrays: entry j says element
    `element[j]` (0-based) has a nonzero at (rows[j], cols[j]) of value
    1/sqrt(omega) for that element. Entries are grouped by element;
    `offsets[n]:offsets[n+1]` slices element n's pattern.
    """

    structure: str
    n: int
    dims: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    element: np.ndarray
    offsets: np.ndarray
    support_counts: np.ndarray  # omega_n
    conjugated: Optional[np.ndarray] = None  # flat mask of conjugating cells

    @property
    def coefficients(self) -> np.ndarray:
        """a_n = sqrt(omega_n), which makes the lift the plain structured matrix."""
        return np.sqrt(self.support_counts)

    def pattern(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of element n, 0-based n."""
        lo, hi = self.offsets[n], self.offsets[n + 1]
        return self.rows[lo:hi], self.cols[lo:hi]

    def element_sum(self, vals: np.ndarray) -> np.ndarray:
        """Sum flat per-cell values (aligned with rows/cols) over each element."""
        if np.iscomplexobj(vals):
            return (np.bincount(self.element, weights=vals.real,
                                minlength=self.n)
                    + 1j * np.bincount(self.element, weights=vals.imag,
                                       minlength=self.n))
        return np.bincount(self.element, weights=vals, minlength=self.n)

    def element_dense(self, n: int) -> np.ndarray:
        r, c = self.pattern(n)
        a = np.zeros(self.dims)
        a[r, c] = 1.0 / np.sqrt(self.support_counts[n])
        return a


class LiftOperator:
    """The lift with optional positive per-cell weights.

    forward(x) puts cell[j] * x_n (conj(x_n) on conjugating cells) at each
    cell j of element n; cell=None means unit weights, i.e. the plain lift.
    adjoint is the adjoint for the real inner product Re<.,.>, so it
    conjugates the conjugating cells back before summing. Patterns are
    disjoint, so adjoint(forward(.)) is diagonal with entries normal_diag,
    the per-element sums of squared cell weights (omega_n for unit cells).
    """

    def __init__(self, basis: LiftingBasis, cell: Optional[np.ndarray] = None):
        self.basis = basis
        self.cell = cell
        self.normal_diag = (basis.support_counts.astype(float) if cell is None
                            else basis.element_sum(cell ** 2))

    def forward(self, x: np.ndarray) -> np.ndarray:
        b = self.basis
        vals = x[b.element]
        if b.conjugated is not None:
            vals = np.where(b.conjugated, np.conj(vals), vals)
        m = np.zeros(b.dims, dtype=complex)
        # patterns are pairwise disjoint, so plain assignment accumulates nothing
        m[b.rows, b.cols] = vals if self.cell is None else self.cell * vals
        return m

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        b = self.basis
        vals = m[b.rows, b.cols]
        if self.cell is not None:
            vals = self.cell * vals
        if b.conjugated is not None:
            vals = np.where(b.conjugated, np.conj(vals), vals)
        return b.element_sum(vals)


@dataclass(frozen=True)
class BasisReport:
    """Pass/fail per lifting-basis condition, with the first offender."""

    unit_frobenius: bool
    equal_positive_entries: bool
    orthogonal: bool
    column_sparsity: bool
    positive_coefficients: bool
    first_failure: Optional[Tuple[str, int]] = None

    @property
    def all_pass(self) -> bool:
        return (self.unit_frobenius and self.equal_positive_entries
                and self.orthogonal and self.column_sparsity
                and self.positive_coefficients)


def make_basis(structure: str, n: int, dims: Tuple[int, int],
               patterns: List[Tuple[np.ndarray, np.ndarray]],
               conjugated: Optional[np.ndarray] = None) -> LiftingBasis:
    """Assemble a basis from per-element (rows, cols) patterns.

    `conjugated`, when given, is a flat boolean mask (aligned with the
    concatenated patterns) marking cells that carry the conjugate of their
    coordinate instead of the coordinate itself.
    """
    counts = np.array([len(r) for r, _ in patterns], dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("every basis element needs a nonempty pattern")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rows = np.concatenate([r for r, _ in patterns]).astype(np.int64)
    cols = np.concatenate([c for _, c in patterns]).astype(np.int64)
    element = np.repeat(np.arange(n), counts)
    if conjugated is not None:
        conjugated = np.asarray(conjugated, dtype=bool)
        if conjugated.shape != rows.shape:
            raise ValueError("conjugation mask must align with the patterns")
    return LiftingBasis(structure, n, dims, rows, cols, element, offsets,
                        counts, conjugated)


def _hankel_patterns(n: int, d: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    d2 = n - d + 1
    pats = []
    for k in range(1, n + 1):  # 1-based element index, cells i + j - 1 = k
        i = np.arange(max(1, k - d2 + 1), min(d, k) + 1)
        pats.append((i - 1, k - i))
    return pats


def hankel_basis(n: int, pencil: int) -> LiftingBasis:
    """Hankel lifting basis of shape (d, N - d + 1).

    Element k occupies the antidiagonal i + j - 1 = k, so the lift
    reproduces the plain Hankel matrix M[i, j] = x[i + j - 1].
    """
    if not 1 <= pencil <= n:
        raise ValueError(f"pencil must lie in [1, N], got {pencil} for N={n}")
    return make_basis("hankel", n, (pencil, n - pencil + 1),
                      _hankel_patterns(n, pencil))


def double_hankel_basis(n: int, pencil: int) -> LiftingBasis:
    """Double-Hankel basis: [H_d(x) | H_d(conj(reverse(x)))] as one lift.

    Element k collects its antidiagonal in the Hankel lift of x (columns
    1..N-d+1) plus the antidiagonal of x_k inside the Hankel lift of the
    conjugate-reversed vector (columns N-d+2..2(N-d+1)). The two blocks
    use disjoint columns, so the column-sparsity condition survives the
    union. Conjugating the reversal keeps the second block on the same
    exponential bases as the first (for unit-modulus bases the conjugate
    of z^-n is z^n), so the lifted rank stays at the component count
    instead of doubling; this is what makes the double structure complete
    better than the single one.
    """
    if not 1 <= pencil <= n:
        raise ValueError(f"pencil must lie in [1, N], got {pencil} for N={n}")
    d2h = n - pencil + 1
    fwd = _hankel_patterns(n, pencil)
    pats = []
    conj_chunks = []
    for k in range(1, n + 1):
        r1, c1 = fwd[k - 1]
        r2, c2 = fwd[n - k]  # x_k sits at position N + 1 - k of the reversal
        pats.append((np.concatenate([r1, r2]),
                     np.concatenate([c1, c2 + d2h])))
        conj_chunks.append(np.concatenate([np.zeros(r1.size, dtype=bool),
                                           np.ones(r2.size, dtype=bool)]))
    return make_basis("double-hankel", n, (pencil, 2 * d2h), pats,
                      np.concatenate(conj_chunks))


def lift(basis: LiftingBasis, x: np.ndarray) -> np.ndarray:
    """Apply the lifting operator: sum_n a_n * x_n * A_n."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.n,):
        raise ValueError(f"expected length-{basis.n} vector, got {x.shape}")
    return LiftOperator(basis).forward(x)


def adjoint(basis: LiftingBasis, m: np.ndarray) -> np.ndarray:
    """Apply the back projection: x_n = <A_n, M> / a_n."""
    m = np.asarray(m, dtype=complex)
    if m.shape != basis.dims:
        raise ValueError(f"expected {basis.dims} matrix, got {m.shape}")
    # <A_n, M> / a_n is the sum over element n's cells divided by omega_n
    return LiftOperator(basis).adjoint(m) / basis.support_counts


def validate_basis(basis: LiftingBasis, tol: float = 1e-12) -> BasisReport:
    """Check the four lifting-basis conditions plus coefficient positivity.

    Failures never raise; they are recorded with the first offending
    element index (0-based).
    """
    first: Optional[Tuple[str, int]] = None

    def note(name: str, idx: int):
        nonlocal first
        if first is None:
            first = (name, idx)

    unit_frob = True
    equal_entries = True
    for k in range(basis.n):
        lo, hi = basis.offsets[k], basis.offsets[k + 1]
        omega = hi - lo
        if omega != basis.support_counts[k]:
            unit_frob = False
            note("unit_frobenius", k)
        # entries are 1/sqrt(omega) by construction; Frobenius norm is then
        # sqrt(omega * (1/omega)) = 1 whenever counts agree
        if omega < 1:
            equal_entries = False
            note("equal_positive_entries", k)

    # orthogonality: disjoint supports with equal-sign entries
    flat = basis.rows * basis.dims[1] + basis.cols
    orthogonal = True
    uniq, idx_first = np.unique(flat, return_index=True)
    if uniq.size != flat.size:
        orthogonal = False
        seen = np.zeros(basis.dims[0] * basis.dims[1], dtype=bool)
        for j, cell in enumerate(flat):
            if seen[cell]:
                note("orthogonal", int(basis.element[j]))
                break
            seen[cell] = True

    column_ok = True
    for k in range(basis.n):
        _, c = basis.pattern(k)
        if np.unique(c).size != c.size:
            column_ok = False
            note("column_sparsity", k)
            break

    coeff_ok = bool(np.all(basis.coefficients > 0))
    if not coeff_ok:
        note("positive_coefficients", int(np.argmax(basis.coefficients <= 0)))

    return BasisReport(unit_frob, equal_entries, orthogonal, column_ok,
                       coeff_ok, first)
