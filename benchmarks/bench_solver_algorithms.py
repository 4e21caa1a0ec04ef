"""Performance of the R-matrix solvers on the paper's model.

Times logarithmic reduction (``r_matrix``) against the two linear rungs of
its escalation ladder on the model's repeating blocks, at a demanding
operating point (high load, strongly correlated arrivals -- sp(R) close
to 1, where linear iterations slow down and logarithmic reduction shines).
"""

import numpy as np
import pytest

from repro.core.model import FgBgModel
from repro.qbd import (
    r_matrix,
    r_matrix_functional_iteration,
    r_matrix_natural_iteration,
)
from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS

SOLVERS = {
    "logarithmic-reduction": r_matrix,
    "functional": r_matrix_functional_iteration,
    "natural": r_matrix_natural_iteration,
}


def make_model() -> FgBgModel:
    arrival = WORKLOADS["email"].fit().scaled_to_utilization(
        0.7, SERVICE_RATE_PER_MS
    )
    return FgBgModel(
        arrival=arrival, service_rate=SERVICE_RATE_PER_MS, bg_probability=0.6
    )


@pytest.mark.parametrize("name", list(SOLVERS))
def bench_solver_algorithm(benchmark, name):
    qbd = make_model().qbd
    blocks = (qbd.a0, qbd.a1, qbd.a2)
    r = benchmark(SOLVERS[name], *blocks)
    # All solvers must land on the same minimal R.
    np.testing.assert_allclose(r, r_matrix(*blocks), rtol=0, atol=1e-8)
