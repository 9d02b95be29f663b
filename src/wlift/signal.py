"""Exponential mixture generation, bounded noise, and random sample sets.

The observation model: a length-N vector y with y[n] = sum_k b_k * z_k**n
(n = 1..N), optionally perturbed by noise whose entries are bounded in
magnitude, and observed on a random index subset.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Mixture",
    "NoiseSpec",
    "SampleSet",
    "synthesize",
    "add_noise",
    "sample_bernoulli",
    "sample_uniform_m",
    "project",
    "mixture_to_text",
    "mixture_from_text",
    "sample_set_to_text",
    "sample_set_from_text",
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
        if n_samples < 1:
            raise ValueError(f"need at least one sample, got N={n_samples}")
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

    @property
    def order(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded complex noise: every entry satisfies |e_n| <= amplitude_bound."""

    amplitude_bound: float
    seed: int = 0

    def __post_init__(self):
        if self.amplitude_bound < 0:
            raise ValueError("noise amplitude bound must be nonnegative")


@dataclass(frozen=True)
class SampleSet:
    """Observed index set over {1..N}, 1-based and strictly increasing.

    `probabilities`, when present, holds the per-index inclusion
    probability for all N positions.
    """

    universe: int
    indices: np.ndarray
    probabilities: Optional[np.ndarray] = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size and (idx[0] < 1 or idx[-1] > self.universe):
            raise ValueError("indices out of range")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        if self.probabilities is not None:
            p = np.asarray(self.probabilities, dtype=float)
            if p.shape != (self.universe,):
                raise ValueError("probabilities must have length N")
            if np.any(p <= 0) or np.any(p > 1):
                raise ValueError("probabilities must lie in (0, 1]")
            object.__setattr__(self, "probabilities", p)

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


def add_noise(y: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Add noise drawn uniformly on the complex disk of radius `amplitude_bound`.

    Deterministic for a fixed seed; the zero-radius case returns `y` unchanged.
    """
    y = np.asarray(y, dtype=complex)
    if spec.amplitude_bound == 0:
        return y.copy()
    rng = np.random.default_rng(spec.seed)
    # sqrt of a uniform radius^2 gives the uniform-on-disk law
    r = spec.amplitude_bound * np.sqrt(rng.random(y.size))
    phase = rng.random(y.size) * 2 * np.pi
    return y + r * np.exp(1j * phase)


def sample_bernoulli(probabilities: np.ndarray, seed: int = 0) -> SampleSet:
    """Include each index n independently with probability p_n."""
    p = np.asarray(probabilities, dtype=float)
    if np.any(p <= 0) or np.any(p > 1):
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    keep = rng.random(p.size) < p
    return SampleSet(p.size, np.flatnonzero(keep) + 1, probabilities=p)


def sample_uniform_m(n: int, m: int, seed: int = 0) -> SampleSet:
    """Draw a uniformly random M-subset of {1..N}; probabilities set to M/N."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= M <= N, got M={m}, N={n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False)) + 1
    return SampleSet(n, idx, probabilities=np.full(n, m / n))


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


def mixture_from_text(text: str) -> Mixture:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n = int(lines[0])
    comps = []
    for ln in lines[1:]:
        br, bi, zr, zi = (float(t) for t in ln.split())
        comps.append((complex(br, bi), complex(zr, zi)))
    return Mixture(n, comps)


def sample_set_to_text(sample_set: SampleSet) -> str:
    """First line 'N M', second line the 1-based indices."""
    idx = " ".join(str(i) for i in sample_set.indices)
    return f"{sample_set.universe} {sample_set.size}\n{idx}\n"


def sample_set_from_text(text: str) -> SampleSet:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n, m = (int(t) for t in lines[0].split())
    idx = np.array([int(t) for t in lines[1].split()], dtype=np.int64) if m else np.array([], dtype=np.int64)
    if idx.size != m:
        raise ValueError("index count does not match header")
    return SampleSet(n, idx)
