"""Fixture: certificates issued over still-writable arrays (RL006 x2)."""

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import check_generator


@dataclass(frozen=True)
class BadCertifiedProcess:
    rates: object
    d0: object = field(init=False)
    _generator_validated: bool = field(init=False, default=False)

    def __post_init__(self):
        base = np.asarray(self.rates, dtype=float)
        d0 = base - np.diag(base.sum(axis=1))
        check_generator(d0)
        object.__setattr__(self, "d0", d0)
        # RL006: d0 was validated but never frozen before certifying.
        object.__setattr__(self, "_generator_validated", True)


def _freeze_if(array, flag):
    # Conditionally freezing helper: NOT in the freeze oracle (the freeze
    # must hold on every path), so certificates relying on it stay flagged.
    if flag:
        array.setflags(write=False)


@dataclass(frozen=True)
class ConditionallyFrozenProcess:
    rates: object
    d0: object = field(init=False)
    _generator_validated: bool = field(init=False, default=False)

    def __post_init__(self):
        base = np.asarray(self.rates, dtype=float)
        d0 = base - np.diag(base.sum(axis=1))
        check_generator(d0)
        _freeze_if(d0, d0.size > 0)
        object.__setattr__(self, "d0", d0)
        # RL006: the helper freezes only on one path; the certificate is
        # not provably sound.
        object.__setattr__(self, "_generator_validated", True)
