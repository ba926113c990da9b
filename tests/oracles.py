"""Scalar reference laws the tests compare the vectorised program against.

The controller condenses these laws into the matrices of one QP; here each
one is written out for a single vehicle and a single sample, as the paper
states it. :func:`token_with_active_rows` makes a QP solver token with a
chosen active set, from a program whose optimum is known by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gpplatoon.hv import N_LAGS, ArxParams, VelocityHistory
from gpplatoon.qp import ActiveRows, QuadraticProgram, solve_qp


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


def dc_gain(params: ArxParams) -> float:
    """Steady-state velocity ratio between the HV and a constant lead input."""
    return float(params.b.sum() / (1.0 + params.c.sum()))


def constant_history(v_hv: float, v_av: float) -> VelocityHistory:
    """A history in which both vehicles have held one velocity each."""
    return VelocityHistory(hv=np.full(N_LAGS, float(v_hv)), av=np.full(N_LAGS, float(v_av)))


def token_with_active_rows(qp: QuadraticProgram, rows) -> ActiveRows:
    """A current token of ``qp``'s template whose carried active rows are
    ``rows``, linearly independent rows of G: the token of a solve of
    ``qp.with_vectors(q', h')`` whose optimum is x = 0, with h' zero on the
    rows S and one on the others and q' = -G_S^T 1, so the rows S are tight
    with multiplier 1 and every other row has slack 1. The next solve of
    the template resumes it."""
    rows = sorted(int(i) for i in rows)
    tight = np.zeros(qp.ineq_vector.size)
    tight[rows] = 1.0
    sol = solve_qp(qp.with_vectors(-(qp.ineq_matrix.T @ tight), 1.0 - tight))
    assert sol.status == "optimal" and sol.active == tuple(rows), (sol.status, sol.active, rows)
    assert sol.active.workspace(qp) is not None
    return sol.active
