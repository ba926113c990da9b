"""Vehicle kinematics, HV position-belief propagation, and gap tightening."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import normal_quantile


@dataclass(frozen=True)
class AvState:
    """Position and velocity of one AV."""

    p: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.v)):
            raise ValueError("AV state must be finite")


def av_step(state: AvState, acc: float, step: float) -> AvState:
    """Advance one AV by one sample: position uses the pre-update velocity."""
    return AvState(p=state.p + step * state.v, v=state.v + step * acc)


def propagate_hv_mean(mu: float, v_hv: float, gp_mean: float, step: float) -> float:
    """One-step update of the HV position mean."""
    return mu + step * v_hv + step * gp_mean


def propagate_hv_variance(sigma: float, gp_var: float, step: float) -> float:
    """One-step update of the HV position variance; never decreases."""
    if sigma < 0 or gp_var < 0:
        raise ValueError(f"variances must be non-negative, got {sigma}, {gp_var}")
    return sigma + step * step * gp_var


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
