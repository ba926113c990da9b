"""Tightening of the AV-HV minimum gap by the HV position uncertainty."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class GapConstraintParams:
    """Minimum-gap constraint between the trailing AV and the HV."""

    delta: float
    p_def: float = 0.95
    # standard-normal quantile of p_def, derived once per parameter set
    quantile: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.p_def < 1.0:
            raise ValueError("p_def must lie in (0, 1)")
        object.__setattr__(self, "quantile", float(ndtri(self.p_def)))


def tightened_min_gap(params: GapConstraintParams, sigma):
    """Deterministic gap bound absorbing the HV position uncertainty.

    The AV-HV feasibility test is: trailing AV position minus HV position
    mean must be at least this value. ``sigma`` is one variance (the bound
    is a float) or an array of them (one bound per entry); each must be
    finite and non-negative.
    """
    s = np.asarray(sigma, dtype=float)
    if not (np.isfinite(s) & (s >= 0)).all():
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    # in place, so each control step's call allocates one array, not three
    bound = np.sqrt(s)
    bound *= params.quantile
    bound += params.delta
    return float(bound) if s.ndim == 0 else bound
