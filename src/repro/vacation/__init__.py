"""Analytic vacation-queue baselines.

The paper positions its model against the vacation-model literature
(Takagi; Bachmat & Schindler).  This package provides the classical closed
forms used as sanity baselines and for the related-work comparisons:

* :mod:`~repro.vacation.mm1` -- the plain M/M/1 queue;
* :mod:`~repro.vacation.priority` -- the non-preemptive two-class priority
  queue (Cobham), the strict-priority alternative to idle-wait admission.
"""

from repro.vacation.mm1 import MM1Queue
from repro.vacation.priority import NonPreemptivePriorityQueue

__all__ = [
    "MM1Queue",
    "NonPreemptivePriorityQueue",
]
