"""Sparse lifting bases and the lift operator.

A lifting basis is a family of N sparse d1 x d2 matrices {A_n} that meets
four conditions: unit Frobenius norm and equal positive entries (A_n has
omega_n nonzeros, all 1/sqrt(omega_n)), orthogonality (no grid position
holds two cells) and column sparsity (no element has two cells in one
column). A `LiftingBasis` is valid by construction: its constructor
raises ValueError unless all four hold. It is four flat per-cell arrays
(row, column, element, conjugation mask), grouped by element; the Hankel
builders compute them from grid index arithmetic. `side_groups` groups
them so that every side norm ||Q^H A_n||_F^2 or ||A_n Q||_F^2 is one
grouped row sum of Q.

The lift maps a length-N vector to sum_n a_n * x_n * A_n with
a_n = sqrt(omega_n), so every cell of element n holds x_n; the back
projection inverts it coordinate-wise. A basis may mark some cells as
conjugating, in which case those cells carry conj(x_n) and the lift is
real-linear instead of complex-linear; a Hankel basis marks none.
`LiftOperator` is the one lift operator: a gather table over the (re, im)
floats of x, so the lift is one gather and its adjoint one `bincount` in
table order. It carries optional per-cell weights, which is how the
solver applies diagonal weight pairs. A centro-Hermitian weighted lift
(the double-Hankel one with mirror-symmetric weights) also has a real
form, the same class with a two-term table: one fixed unitary change of
basis on each side makes the lifted matrix real.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Tuple

import numpy as np

from .signal import _check_count

__all__ = [
    "LiftingBasis",
    "LiftOperator",
    "hankel_basis",
    "double_hankel_basis",
    "lift",
    "adjoint",
]


@dataclass(frozen=True, eq=False)
class LiftingBasis:
    """Coordinate-form lifting basis, valid by construction.

    rows/cols/element/conjugated are parallel flat arrays: entry j says
    element `element[j]` (0-based) has a nonzero at (rows[j], cols[j]) of
    the d1 x d2 grid, of value 1/sqrt(omega) for that element, and
    conjugated[j] whether that cell carries conj(x_n); None marks none.
    A stable sort groups the cells by element; their order within an
    element matters only to `element_sum`, which adds them in that order
    for the lift's `normal_diag` and the A-norms. omega_n
    (`support_counts`) is element n's cell count, at least 1, so unit
    Frobenius norm and equal positive entries hold by definition; the
    constructor, also behind `dataclasses.replace`, raises ValueError
    unless orthogonality and column sparsity hold too.
    """

    n: int
    dims: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    element: np.ndarray
    conjugated: Optional[np.ndarray] = None  # flat mask of conjugating cells
    support_counts: np.ndarray = field(init=False)  # omega_n

    def __post_init__(self):
        dims, n = self.dims, self.n
        _check_count("n", n)
        if len(dims) != 2 or not all(isinstance(v, Integral) and v >= 1
                                     and not isinstance(v, bool) for v in dims):
            raise ValueError(f"dims must be two positive integers, got {dims!r}")
        d1, d2 = dims = (int(dims[0]), int(dims[1]))
        rows, cols, element = (np.asarray(a, dtype=np.int64)
                               for a in (self.rows, self.cols, self.element))
        if np.any((element < 0) | (element >= n)):
            raise ValueError(f"element indices must lie in [0, {n})")
        counts = np.bincount(element, minlength=n)
        if np.any(counts < 1):
            raise ValueError("every basis element needs a nonempty pattern")
        if rows.shape != element.shape or cols.shape != element.shape:
            raise ValueError("rows, cols and element must align")
        if np.any((rows < 0) | (rows >= d1) | (cols < 0) | (cols >= d2)):
            raise ValueError(f"cells must lie in the {d1} x {d2} grid")
        mask = np.zeros(element.shape, dtype=bool) if self.conjugated is None \
            else np.asarray(self.conjugated, dtype=bool)
        if mask.shape != element.shape:
            raise ValueError("conjugation mask must align with the cells")
        order = np.argsort(element, kind="stable")
        rows, cols, element = rows[order], cols[order], element[order]
        # equal-sign entries are orthogonal iff no grid position is shared
        for key, fault in (
                (rows * d2 + cols, "two cells share grid position ({r}, {c}); "
                 "the lift needs disjoint patterns"),
                (element * d2 + cols, "element {e} has two cells in column {c}; "
                 "a lifting basis needs column sparsity")):
            if np.bincount(key, minlength=1).max() > 1:
                # both cells with the key share every field the fault names
                j = np.flatnonzero(np.bincount(key)[key] > 1)[0]
                raise ValueError(fault.format(r=rows[j], c=cols[j], e=element[j]))
        for name, value in (("n", int(n)), ("dims", dims), ("rows", rows),
                            ("cols", cols), ("element", element),
                            ("conjugated", mask[order]),
                            ("support_counts", counts)):
            object.__setattr__(self, name, value)

    def element_sum(self, vals: np.ndarray) -> np.ndarray:
        """Sum real per-cell values (aligned with rows/cols) over each element."""
        return np.bincount(self.element, weights=vals, minlength=self.n)

    def side_groups(self, left: bool) -> Tuple[np.ndarray, np.ndarray]:
        """(G, E), which make one side's norms a grouped row sum.

        A group is the cells of one element that share the other index (a
        column on the left, a row on the right), as a 0/1 row of G over
        this side's indices. Equal groups are one row, and E[j, n] adds
        1/omega_n for each of element n's groups equal to row j. Then
        ||Q^H A_n||_F^2 (left) or ||A_n Q||_F^2 (right) is
        (|G Q|^2 summed over Q's columns) @ E. Column sparsity makes a left
        group one cell; a double-Hankel right group holds one per block.
        """
        this, other = (self.rows, self.cols) if left else (self.cols, self.rows)
        d, d_other = self.dims if left else self.dims[::-1]
        keys, group = np.unique(self.element * d_other + other,
                                return_inverse=True)
        member = np.zeros((keys.size, d), dtype=bool)
        member[group, this] = True
        # equal groups have equal packed bytes, so one 1-D unique finds them
        packed = np.packbits(member, axis=1)
        _, first, slot = np.unique(
            packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        owner = keys // d_other
        e = np.bincount(slot * self.n + owner,
                        weights=1.0 / self.support_counts[owner],
                        minlength=first.size * self.n)
        return member[first].astype(float), e.reshape(first.size, self.n)


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
    A basis's patterns are disjoint, so adjoint(forward(.)) is diagonal
    with entries normal_diag, the per-element sums of squared cell weights
    (omega_n for unit cells).
    """

    def __init__(self, basis: LiftingBasis, cell: Optional[np.ndarray] = None):
        d1, d2 = basis.dims
        flat = basis.rows * d2 + basis.cols
        cell = np.ones(basis.rows.size) if cell is None else cell
        self.dims, self.n, self.dtype = basis.dims, basis.n, complex
        self.normal_diag = basis.element_sum(cell ** 2)
        # each cell's (re, im) floats in the float view; positions outside
        # every pattern read 0 * v[0]
        at = (2 * flat[:, None] + [0, 1]).ravel()
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
    return LiftingBasis(n, (pencil, n - pencil + 1), rows, cols, rows + cols)


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
    return LiftingBasis(n, (pencil, 2 * d2h), np.tile(rows, 2),
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
