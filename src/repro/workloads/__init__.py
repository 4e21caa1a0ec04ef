"""The paper's workloads and their comparators.

* :mod:`~repro.workloads.paper` -- the three trace-derived 2-state MMPPs of
  Figures 1-2 (E-mail, Software Development, User Accounts) and the 6 ms
  exponential service process.
* :mod:`~repro.workloads.comparators` -- the Section 5.4 processes matched
  to the E-mail workload: high-ACF MMPP, low-ACF MMPP, IPP, Poisson.
* :mod:`~repro.workloads.traces` -- synthetic trace generation and I/O.
"""

from repro.workloads.paper import (
    SERVICE_RATE_PER_MS,
    SERVICE_TIME_MS,
    WORKLOADS,
    WorkloadSpec,
    email,
    software_development,
    user_accounts,
)
from repro.workloads.comparators import (
    COMPARATOR_NAMES,
    dependence_comparators,
)
from repro.workloads.traces import (
    generate_trace,
    load_trace,
    save_trace,
    trace_summary,
)

__all__ = [
    "SERVICE_RATE_PER_MS",
    "SERVICE_TIME_MS",
    "WORKLOADS",
    "WorkloadSpec",
    "email",
    "software_development",
    "user_accounts",
    "COMPARATOR_NAMES",
    "dependence_comparators",
    "generate_trace",
    "load_trace",
    "save_trace",
    "trace_summary",
]
