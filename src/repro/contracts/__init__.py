"""Runtime contracts: machine-checked invariants of the analytic stack.

* :mod:`~repro.contracts.checks` -- vectorized validators
  (:func:`check_generator`, :func:`check_r_matrix`, ...), each raising a
  typed :class:`ContractViolation` naming the offending matrix and check.
* :mod:`~repro.contracts.decorator` -- the :func:`contracted` pre/post
  condition decorator.
* :mod:`~repro.contracts.solution` -- :func:`check_solution`, the
  whole-solution validator guarding the engine's cache-load path.

Contracts are **on by default** and add < 2% to the Figure-5 sweep
(``benchmarks/bench_contracts.py``); set ``REPRO_CONTRACTS=off`` to
disable them all.  This package sits below ``repro.core``/``repro.qbd``
in the import graph: it imports neither, so the solvers can call the
checks freely.
"""

from repro.contracts.checks import (
    DEFAULT_ATOL,
    ENV_SWITCH,
    certify_spectral_radius_below_one,
    check_finite,
    check_generator,
    check_nonnegative,
    check_probability_vector,
    check_r_matrix,
    check_readonly,
    check_shape,
    check_stochastic,
    check_substochastic,
    contracts_enabled,
)
from repro.contracts.decorator import contracted
from repro.contracts.errors import ContractViolation
from repro.contracts.solution import check_solution

__all__ = [
    "DEFAULT_ATOL",
    "ENV_SWITCH",
    "ContractViolation",
    "certify_spectral_radius_below_one",
    "check_finite",
    "check_generator",
    "check_nonnegative",
    "check_probability_vector",
    "check_r_matrix",
    "check_readonly",
    "check_shape",
    "check_solution",
    "check_stochastic",
    "check_substochastic",
    "contracted",
    "contracts_enabled",
]
