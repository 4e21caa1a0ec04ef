"""Continuous-time Markov chain (CTMC) substrate.

Low-level numerical building blocks shared by the arrival-process package,
the QBD solver and the truncated-chain validation path:

* :mod:`~repro.markov.generator` -- generator-matrix validation.
* :mod:`~repro.markov.stationary` -- stationary solves (dense LU and the
  numerically stable GTH elimination).
* :mod:`~repro.markov.deviation` -- deviation matrix and absorbing-chain
  utilities.
"""

from repro.markov.generator import (
    is_generator,
    validate_generator,
)
from repro.markov.stationary import (
    stationary_distribution,
    stationary_distribution_dense,
    stationary_distribution_gth,
)
from repro.markov.deviation import (
    absorption_probabilities,
    deviation_matrix,
    fundamental_matrix,
    mean_absorption_times,
)

__all__ = [
    "is_generator",
    "validate_generator",
    "stationary_distribution",
    "stationary_distribution_dense",
    "stationary_distribution_gth",
    "absorption_probabilities",
    "deviation_matrix",
    "fundamental_matrix",
    "mean_absorption_times",
]
