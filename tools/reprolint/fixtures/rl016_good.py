"""Fixture twin: conformable block assembly, correctly split (no RL016)."""

import numpy as np

from repro.qbd.rmatrix import r_matrix
from repro.qbd.structure import QBDProcess


def kron_assembly(d1, m_g):
    # Row-oriented block enters the kron untransposed.
    a0 = np.kron(np.eye(m_g), d1)
    return a0


def boundary_split(n_b, m):
    b00 = np.zeros((n_b, n_b))
    b01 = np.zeros((n_b, m))
    b10 = np.zeros((m, n_b))
    a0 = np.zeros((m, m))
    a1 = np.zeros((m, m))
    a2 = np.zeros((m, m))
    return QBDProcess(b00=b00, b01=b01, b10=b10, a0=a0, a1=a1, a2=a2)


def straight_solve(a0, a1, a2):
    return r_matrix(a0, a1, a2)
