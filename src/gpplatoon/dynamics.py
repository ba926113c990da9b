"""Tightening of the AV-HV minimum gap by the HV position uncertainty."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import normal_quantile


@dataclass(frozen=True)
class GapConstraintParams:
    """Minimum-gap constraint between the trailing AV and the HV."""

    delta: float
    delta_ext: float = 0.0
    p_def: float = 0.95
    # standard-normal quantile of p_def, derived once per parameter set
    quantile: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.delta_ext) and self.delta_ext >= 0):
            raise ValueError("delta_ext must be non-negative and finite")
        if not 0.0 < self.p_def < 1.0:
            raise ValueError("p_def must lie in (0, 1)")
        object.__setattr__(self, "quantile", normal_quantile(self.p_def))


def tightened_min_gap(params: GapConstraintParams, sigma):
    """Deterministic gap bound absorbing the HV position uncertainty.

    The AV-HV feasibility test is: trailing AV position minus HV position
    mean must be at least this value. ``sigma`` is one variance (the bound
    is a float) or an array of them (one bound per entry).
    """
    s = np.asarray(sigma, dtype=float)
    if (s < 0).any():
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    # in place, so each control step's call allocates one array, not three
    bound = np.sqrt(s)
    bound *= params.quantile
    bound += params.delta + params.delta_ext
    return float(bound) if s.ndim == 0 else bound
