"""Exponential mixture generation, bounded noise, and random sample sets.

The observation model: a length-N vector y with y[n] = sum_k b_k * z_k**n
(n = 1..N), optionally perturbed by noise whose entries are bounded in
magnitude, and observed on a random index subset.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "Mixture",
    "SampleSet",
    "synthesize",
    "add_noise",
    "sample_uniform_m",
    "project",
    "mixture_to_text",
]


@dataclass(frozen=True)
class Mixture:
    """A mixture of K complex exponentials sampled at n = 1..N.

    Each component is a (coefficient, base) pair; the realized sample
    vector is y[n] = sum_k coeff_k * base_k**n.
    """

    n_samples: int
    components: Tuple[Tuple[complex, complex], ...]

    def __init__(self, n_samples: int, components: Sequence[Tuple[complex, complex]]):
        if isinstance(n_samples, bool) or n_samples < 1 or n_samples % 1:
            raise ValueError(f"need a whole number of samples, at least one, "
                             f"got N={n_samples}")
        comps = tuple((complex(b), complex(z)) for b, z in components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        for b, z in comps:
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError(f"non-finite base {z!r}")
            if z == 0:
                raise ValueError("zero base is not allowed")
        object.__setattr__(self, "n_samples", int(n_samples))
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class SampleSet:
    """Observed index set over {1..N}, 1-based and strictly increasing."""

    universe: int
    indices: np.ndarray

    def __post_init__(self):
        if isinstance(self.universe, bool) or self.universe < 0 \
                or self.universe % 1:
            raise ValueError(f"universe must be a whole number, at least "
                             f"zero, got {self.universe}")
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or np.any(idx % 1):
            raise ValueError("indices must be a 1-D array of whole numbers")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (idx[0] < 1 or idx[-1] > self.universe):
            raise ValueError("indices out of range")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "universe", int(self.universe))
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def complement(self) -> np.ndarray:
        """Unobserved indices (1-based)."""
        mask = np.ones(self.universe + 1, dtype=bool)
        mask[0] = False
        mask[self.indices] = False
        return np.flatnonzero(mask)


def synthesize(mixture: Mixture) -> np.ndarray:
    """Realize the sample vector y[n] = sum_k b_k * z_k**n for n = 1..N."""
    n = np.arange(1, mixture.n_samples + 1)
    y = np.zeros(mixture.n_samples, dtype=complex)
    for b, z in mixture.components:
        y += b * np.power(z, n)
    return y


def add_noise(y: np.ndarray, amplitude_bound: float, seed: int = 0) -> np.ndarray:
    """Add noise drawn uniformly on the complex disk of radius `amplitude_bound`.

    Deterministic for a fixed seed; the zero-radius case returns `y` unchanged.
    """
    _check_noise_bound(amplitude_bound)
    y = np.asarray(y, dtype=complex)
    if amplitude_bound == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    # sqrt of a uniform radius^2 gives the uniform-on-disk law
    r = amplitude_bound * np.sqrt(rng.random(y.size))
    phase = rng.random(y.size) * 2 * np.pi
    return y + r * np.exp(1j * phase)


def sample_uniform_m(n: int, m: int, seed: int = 0) -> SampleSet:
    """Draw a uniformly random M-subset of {1..N}."""
    _check_count("N", n)
    _check_count("M", m)
    if m > n:
        raise ValueError(f"need 1 <= M <= N, got M={m}, N={n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False)) + 1
    return SampleSet(n, idx)


def project(y: np.ndarray, sample_set: SampleSet) -> np.ndarray:
    """Keep the entries of y on the observed index set, in increasing order."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (sample_set.universe,):
        raise ValueError("vector length must equal the universe size")
    return y[sample_set.indices - 1]


def mixture_to_text(mixture: Mixture) -> str:
    """One component per line: Re(b) Im(b) Re(z) Im(z). First line is N."""
    out = io.StringIO()
    out.write(f"{mixture.n_samples}\n")
    for b, z in mixture.components:
        out.write(f"{b.real!r} {b.imag!r} {z.real!r} {z.imag!r}\n")
    return out.getvalue()


def _check_noise_bound(eta) -> None:
    """Reject a noise bound that is a bool, negative, NaN or infinite."""
    if isinstance(eta, (bool, np.bool_)) or not 0 <= eta < np.inf:
        raise ValueError(f"noise bound must be finite and nonnegative, got {eta}")


def _check_count(name: str, count) -> None:
    """Reject a count that is not a positive integer (bools included)."""
    if not isinstance(count, Integral) or isinstance(count, bool) or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {count!r}")
