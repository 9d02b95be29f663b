"""Sparse lifting bases and the lift operator.

A lifting basis is a family of N sparse d1 x d2 matrices {A_n}, each with
omega_n nonzeros all equal to 1/sqrt(omega_n), mutually orthogonal, with at
most one nonzero per column. The lift maps a length-N vector to
sum_n a_n * x_n * A_n with a_n = sqrt(omega_n), so every cell of element n
holds x_n; the back projection inverts it coordinate-wise. A basis may
mark some cells as conjugating, in which case those cells carry conj(x_n)
and the lift is real-linear instead of complex-linear; a Hankel basis
marks none.

A basis is four flat per-cell arrays (row, column, element, conjugation
mask), grouped by element; the Hankel builders compute them from grid
index arithmetic. `LiftOperator` is the one lift operator: a gather table
over the (re, im) floats of x, so the lift is one gather and its adjoint
one `bincount` in table order. It carries optional per-cell weights,
which is how the solver applies diagonal weight pairs. A centro-Hermitian
weighted lift (the double-Hankel one with mirror-symmetric weights) also
has a real form, the same class with a two-term table: one fixed unitary
change of basis on each side makes the lifted matrix real.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Optional, Tuple

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

    rows/cols/element/conjugated are parallel flat arrays: entry j says
    element `element[j]` (0-based) has a nonzero at (rows[j], cols[j]) of
    value 1/sqrt(omega) for that element, and conjugated[j] whether that
    cell carries conj(x_n). Entries are grouped by element, in the order
    the per-element sums (`element_sum`, the scores) add them.
    """

    n: int
    dims: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    element: np.ndarray
    support_counts: np.ndarray  # omega_n
    conjugated: np.ndarray  # flat mask of conjugating cells

    def element_sum(self, vals: np.ndarray) -> np.ndarray:
        """Sum real per-cell values (aligned with rows/cols) over each element."""
        return np.bincount(self.element, weights=vals, minlength=self.n)

    @cached_property
    def row_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cols_a, cols_b, element) over ordered same-row cell pairs.

        Lists every ordered pair of cells (self-pairs included) that belong
        to one element and share a row. Hankel rows never repeat within an
        element, so there the pairs are just the cells; double-Hankel rows
        repeat across its two blocks. Built on first use.
        """
        key = self.element * self.dims[0] + self.rows
        order = np.argsort(key, kind="stable")
        _, start, size = np.unique(key[order], return_index=True,
                                   return_counts=True)
        # sorted cell j pairs with each cell of its group, j itself included
        group = np.repeat(size, size)
        first = np.repeat(start, size)
        a = np.repeat(np.arange(order.size), group)
        rank = np.arange(a.size) - np.repeat(np.cumsum(group) - group, group)
        ia, ib = order[a], order[np.repeat(first, group) + rank]
        return self.cols[ia], self.cols[ib], self.element[ia]


class LiftOperator:
    """The lift with optional positive per-cell weights, as one gather table.

    forward(x) puts cell[j] * x_n (conj(x_n) on conjugating cells) at each
    cell j of element n; cell=None means unit weights. Each float of the
    lifted matrix is sum_t coef[t] * v[source[t]] over the interleaved
    (re, im) floats v of x. The complex lift is the one-term table of its
    d1 x 2 d2 float view, with the imaginary weight negated on conjugating
    cells; `real_form` is a two-term table. So forward is one gather and
    adjoint, the adjoint for the real inner products, one signed
    `bincount` that adds the table's terms in table order: grid order,
    term 0 then term 1, positions outside every pattern adding 0 * m.
    Patterns are disjoint, so adjoint(forward(.)) is diagonal with entries
    normal_diag, the per-element sums of squared cell weights (omega_n for
    unit cells).
    """

    def __init__(self, basis: LiftingBasis, cell: Optional[np.ndarray] = None):
        d1, d2 = basis.dims
        cell = np.ones(basis.rows.size) if cell is None else cell
        self.dims, self.n, self.dtype = basis.dims, basis.n, complex
        self.normal_diag = basis.element_sum(cell ** 2)
        # each cell's (re, im) floats in the float view; positions outside
        # every pattern read 0 * v[0]
        at = (2 * (basis.rows * d2 + basis.cols)[:, None] + [0, 1]).ravel()
        self.source = np.zeros((1, d1, 2 * d2), dtype=np.int64)
        self.coef = np.zeros((1, d1, 2 * d2))
        self.source.ravel()[at] = (2 * basis.element[:, None] + [0, 1]).ravel()
        self.coef.ravel()[at] = np.stack(
            (cell, np.where(basis.conjugated, -cell, cell)), axis=1).ravel()

    def forward(self, x: np.ndarray) -> np.ndarray:
        terms = np.ascontiguousarray(x, dtype=complex).view(float).take(
            self.source)
        terms *= self.coef
        return (terms[0] if len(terms) == 1 else terms[0] + terms[1]
                ).view(self.dtype)

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        """Adjoint of forward; m is a d1 x d2 array of forward's dtype."""
        m = np.ascontiguousarray(m, dtype=self.dtype).view(float)
        return np.bincount(self.source.ravel(), weights=(self.coef * m).ravel(),
                           minlength=2 * self.n).view(complex)

    def real_form(self) -> Optional[LiftOperator]:
        """This lift in real coordinates, or None when it is not centro-Hermitian.

        The lifted matrix M is centro-Hermitian when d2 is even and each
        grid position's mirror (d1-1-r, d2-1-c) holds its conjugate: the
        same element with the opposite conjugation and the same weight.
        Then M = [A, J conj(A) J] for its left half A (J the order
        reversal). With U = (I + iJ)/sqrt(2) and
        V = (1/sqrt(2)) [[I, iI], [iJ, J]], U^H M V is the real matrix
        [Re A + J Im A, J Re A - Im A], with the singular values of M.
        Its two-term table adds in grid order, term 0 then term 1.
        """
        d1, d2 = self.dims
        if self.dtype is not complex or d2 % 2:
            return None
        # the (re, im) table entries of each grid position
        source = self.source.reshape(d1, d2, 2)
        coef = self.coef.reshape(d1, d2, 2)
        if (np.any(source[::-1, ::-1] != source)
                or np.any(coef[::-1, ::-1] != coef * [1, -1])):
            return None
        re, im = source[:, :d2 // 2, 0], source[:, :d2 // 2, 1]
        w, sw = coef[:, :d2 // 2, 0], coef[:, :d2 // 2, 1]
        flip = np.flipud
        real = copy.copy(self)
        real.dtype = float
        real.source = np.stack((np.hstack((re, flip(re))),
                                np.hstack((flip(im), im))))
        real.coef = np.stack((np.hstack((w, flip(w))),
                              np.hstack((flip(sw), -sw))))
        return real


@dataclass(frozen=True)
class BasisReport:
    """Pass/fail per lifting-basis condition, with the first offender."""

    unit_frobenius: bool
    equal_positive_entries: bool
    orthogonal: bool
    column_sparsity: bool
    first_failure: Optional[Tuple[str, int]] = None

    @property
    def all_pass(self) -> bool:
        return self.first_failure is None


def make_basis(n: int, dims: Tuple[int, int], rows: np.ndarray,
               cols: np.ndarray, element: np.ndarray,
               conjugated: Optional[np.ndarray] = None) -> LiftingBasis:
    """Assemble a basis from flat per-cell arrays.

    Cell j of element `element[j]` (0-based) sits at (rows[j], cols[j]).
    A stable sort groups the cells by element, so each element keeps its
    cells in the order given. `conjugated` is a flat boolean mask over the
    same cells marking those that carry the conjugate of their coordinate
    instead of the coordinate itself; None marks none.
    """
    element = np.asarray(element, dtype=np.int64)
    if np.any((element < 0) | (element >= n)):
        raise ValueError(f"element indices must lie in [0, {n})")
    counts = np.bincount(element, minlength=n)
    if np.any(counts < 1):
        raise ValueError("every basis element needs a nonempty pattern")
    rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
    if rows.shape != element.shape or cols.shape != element.shape:
        raise ValueError("rows, cols and element must align")
    mask = np.zeros(element.shape, dtype=bool) if conjugated is None \
        else np.asarray(conjugated, dtype=bool)
    if mask.shape != element.shape:
        raise ValueError("conjugation mask must align with the cells")
    order = np.argsort(element, kind="stable")
    return LiftingBasis(n, dims, rows[order], cols[order], element[order],
                        counts, mask[order])


def _hankel_grid(n: int, pencil: int) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the d x (N - d + 1) grid's cells, row-major."""
    if not all(isinstance(v, Integral) and not isinstance(v, bool)
               for v in (n, pencil)):
        raise ValueError(f"N and pencil must be integers, got {n!r}, {pencil!r}")
    if not 1 <= pencil <= n:
        raise ValueError(f"pencil must lie in [1, N], got {pencil} for N={n}")
    return np.divmod(np.arange(pencil * (n - pencil + 1)), n - pencil + 1)


def hankel_basis(n: int, pencil: int) -> LiftingBasis:
    """Hankel lifting basis of shape (d, N - d + 1).

    Element k occupies the antidiagonal i + j - 1 = k, so the lift
    reproduces the plain Hankel matrix M[i, j] = x[i + j - 1].
    """
    rows, cols = _hankel_grid(n, pencil)
    return make_basis(n, (pencil, n - pencil + 1), rows, cols, rows + cols)


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
    rows, cols = _hankel_grid(n, pencil)
    d2h = n - pencil + 1
    # mirror antidiagonal a holds conj(x) at 0-based position N - 1 - a
    return make_basis(n, (pencil, 2 * d2h), np.tile(rows, 2),
                      np.concatenate([cols, cols + d2h]),
                      np.concatenate([rows + cols, n - 1 - (rows + cols)]),
                      np.arange(2 * rows.size) >= rows.size)


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


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key already occurs at an earlier position."""
    mask = np.ones(keys.size, dtype=bool)
    mask[np.unique(keys, return_index=True)[1]] = False
    return mask


def validate_basis(basis: LiftingBasis) -> BasisReport:
    """Check the four lifting-basis conditions on the stored patterns.

    Failures never raise; the report records the first failing condition,
    in the order below, with its first offending element index (0-based).
    """
    d2 = basis.dims[1]
    offenders = {
        # entries are 1/sqrt(omega_n): unit norm iff omega_n counts the cells
        "unit_frobenius": np.flatnonzero(np.bincount(
            basis.element, minlength=basis.n) != basis.support_counts),
        "equal_positive_entries": np.flatnonzero(basis.support_counts < 1),
        # equal-sign entries are orthogonal iff no cell is shared
        "orthogonal": basis.element[_repeated(basis.rows * d2 + basis.cols)],
        "column_sparsity": basis.element[
            _repeated(basis.element * d2 + basis.cols)],
    }
    first = next(((name, int(found[0])) for name, found in offenders.items()
                  if found.size), None)
    return BasisReport(*(found.size == 0 for found in offenders.values()),
                       first)
