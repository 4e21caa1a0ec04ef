"""The three paper workloads as fitted 2-state MMPPs.

The paper fits one MMPP(2) per measured trace (Figure 2).  The printed
parameter table in the available copy of the paper is partially corrupted,
so the workloads here are re-fitted with :func:`repro.processes.fit_mmpp2`
to the *stated* characteristics (see DESIGN.md section 5):

========================  ===========  =====  ==========  =================
workload                  utilization  SCV    ACF decay   dependence label
========================  ===========  =====  ==========  =================
E-mail                    8%           2.40   0.995       high ACF (LRD-ish)
Software Development      6%           1.40   0.85        low ACF (SRD)
User Accounts             2%           2.05   0.99        strong ACF, light
========================  ===========  =====  ==========  =================

All three share the paper's 6 ms exponential service process.  Time is in
milliseconds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.processes.fitting import fit_mmpp2
from repro.processes.mmpp import MMPP

__all__ = [
    "SERVICE_TIME_MS",
    "SERVICE_RATE_PER_MS",
    "WorkloadSpec",
    "WORKLOADS",
    "email",
    "software_development",
    "user_accounts",
]

#: The paper's mean service time ("an exponential distribution with mean
#: service time of 6 ms").
SERVICE_TIME_MS = 6.0

#: The corresponding service rate, in jobs per millisecond.
SERVICE_RATE_PER_MS = 1.0 / SERVICE_TIME_MS


@dataclass(frozen=True)
class WorkloadSpec:
    """Fitting targets of one trace-derived workload."""

    name: str
    #: Foreground utilization of the measured system (lambda / mu).
    base_utilization: float
    #: Squared coefficient of variation of inter-arrival times.
    scv: float
    #: Geometric decay factor of the inter-arrival ACF.
    acf_decay: float

    @property
    def base_rate(self) -> float:
        """Mean arrival rate (per ms) at the measured utilization."""
        return self.base_utilization * SERVICE_RATE_PER_MS

    # One fit per spec for the life of the process: specs are frozen and
    # hashable, and a fitted MMPP's matrices are read-only.
    @cache
    def fit(self) -> MMPP:
        """The fitted MMPP(2) for this workload (fitted once, then shared)."""
        return fit_mmpp2(rate=self.base_rate, scv=self.scv, decay=self.acf_decay)


#: The three workloads of the paper's Figure 1/Figure 2.
WORKLOADS: dict[str, WorkloadSpec] = {
    "email": WorkloadSpec(
        name="E-mail", base_utilization=0.08, scv=2.40, acf_decay=0.995
    ),
    "software_development": WorkloadSpec(
        name="Software Development", base_utilization=0.06, scv=1.40, acf_decay=0.85
    ),
    "user_accounts": WorkloadSpec(
        name="User Accounts", base_utilization=0.02, scv=2.05, acf_decay=0.99
    ),
}


def email() -> MMPP:
    """The E-mail workload: strongly autocorrelated, slowly decaying ACF."""
    return WORKLOADS["email"].fit()


def software_development() -> MMPP:
    """The Software Development workload: weak, fast-decaying ACF."""
    return WORKLOADS["software_development"].fit()


def user_accounts() -> MMPP:
    """The User Accounts workload: strong ACF at a very light load."""
    return WORKLOADS["user_accounts"].fit()
