"""Harmonic retrieval via weighted lifted-structure low-rank completion."""

import os

# numpy's BLAS runs a thread per core in every pool worker unless pinned
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # a value the user set wins

from .lifting import (LiftingBasis, adjoint, double_hankel_basis, hankel_basis,
                      lift)
from .scores import (ScoreVector, SubspacePair, a_norm_2, a_norm_inf,
                     leverage_scores, lifting_coefficient, probability_floor,
                     subspace_of, weighted_leverage_scores)
from .signal import (Mixture, SampleSet, add_noise, project, sample_uniform_m,
                     synthesize)
from .solver import CompletionResult, SolverConfig, complete, relative_error, svt
from .weights import (WeightPair, identity_weights, tune_diagonal_weights,
                      two_stage_pipeline)

__version__ = "0.1.0"
