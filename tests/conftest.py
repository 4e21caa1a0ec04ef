"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import compute_metrics
from repro.processes import MMPP, PoissonProcess
from repro.qbd import (
    QBDStationaryDistribution,
    r_matrix_functional_iteration,
    solve_boundary,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(20060101)


@pytest.fixture
def poisson() -> PoissonProcess:
    """A plain Poisson process at rate 0.1/ms."""
    return PoissonProcess(0.1)


@pytest.fixture
def mmpp_bursty() -> MMPP:
    """A small bursty MMPP(2) with visible autocorrelation."""
    return MMPP.two_state(v1=2e-4, v2=2e-5, l1=8e-2, l2=7e-3)


def assert_distribution(pi: np.ndarray, atol: float = 1e-9) -> None:
    """Assert that ``pi`` is a probability vector."""
    assert np.all(pi >= -atol), f"negative probabilities: min={pi.min()}"
    np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-8)


def functional_iteration_solution(model):
    """``model``'s metrics from an R found independently of ``model.solve()``.

    Neuts' functional iteration supplies R; the boundary solve and the
    metrics are the shared downstream stages.
    """
    qbd = model.qbd
    r = r_matrix_functional_iteration(qbd.a0, qbd.a1, qbd.a2)
    return compute_metrics(
        space=model.state_space,
        qbd_solution=QBDStationaryDistribution(qbd, r, *solve_boundary(qbd, r)),
        arrival=model.arrival,
        service_rate=model.service_rate,
        bg_probability=model.bg_probability,
    )
