"""Correctness checks the benchmark applies to the program's outputs.

They are written against the public data types only (``QuadraticProgram``,
``QpSolution``, ``SimResult``, ``MpcConfig``), independently of the
solver's own residual code. A failed check fails the run; a collision or a
controller fallback does not, it is reported as a metric.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """The program produced an output the benchmark rejects."""


def kkt_residuals(qp, sol) -> dict:
    """Primal, stationarity, dual-sign and complementarity residuals.

    For min 0.5 x'Px + q'x s.t. Ax = b, Gx <= h with multipliers (lam, mu):
    stationarity is ||Px + q + A'lam + G'mu||_inf, and complementarity is
    max |mu_i (h - Gx)_i|.
    """
    x = np.asarray(sol.x, dtype=float)
    mu = np.asarray(sol.ineq_multipliers, dtype=float)
    grad = qp.cost_matrix @ x + qp.cost_vector
    if qp.eq_vector.size:
        grad = grad + qp.eq_matrix.T @ np.asarray(sol.eq_multipliers, dtype=float)
    slack = qp.ineq_vector - qp.ineq_matrix @ x
    if qp.ineq_vector.size:
        grad = grad + qp.ineq_matrix.T @ mu
    return {
        "primal": max(qp.max_violation(x), 0.0),
        "stationarity": float(np.max(np.abs(grad))) if grad.size else 0.0,
        "dual": float(max(-np.min(mu), 0.0)) if mu.size else 0.0,
        "complementarity": float(np.max(np.abs(mu * slack))) if mu.size else 0.0,
    }


def check_kkt_residuals(res: dict, tol: float) -> float:
    """Worst of the residuals from :func:`kkt_residuals`; raises above ``tol``."""
    for name, value in res.items():
        if not value <= tol:
            raise CheckFailed(f"optimal QP solution fails {name}: {value:.3e} > tol {tol:g}")
    return max(res.values())


def check_trajectory(result, cfg, tol: float) -> None:
    """Finite trajectories, accelerations and AV velocities within bounds."""
    for name in ("av_pos", "av_vel", "av_acc", "hv_pos", "hv_vel"):
        if not np.all(np.isfinite(getattr(result, name))):
            raise CheckFailed(f"non-finite entries in {name}")
    acc, vel = result.av_acc, result.av_vel
    if acc.min() < cfg.acc_min - tol or acc.max() > cfg.acc_max + tol:
        raise CheckFailed(f"applied acceleration {acc.min():.6g}..{acc.max():.6g} "
                          f"outside [{cfg.acc_min}, {cfg.acc_max}]")
    if vel.min() < cfg.v_min - tol or vel.max() > cfg.v_max + tol:
        raise CheckFailed(f"AV velocity {vel.min():.6g}..{vel.max():.6g} "
                          f"outside [{cfg.v_min}, {cfg.v_max}]")


RESULT_FIELDS = ("av_pos", "av_vel", "av_acc", "hv_pos", "hv_vel", "iterations",
                 "gap_bound", "sigma_terminal")


def check_same_result(a, b, what: str) -> None:
    """Bitwise-identical closed-loop trajectories and solver statuses."""
    for name in RESULT_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            raise CheckFailed(f"{what}: {name} differs")
    if a.status != b.status or a.events != b.events:
        raise CheckFailed(f"{what}: solver statuses or events differ")


def check_same_fit(a, b, what: str) -> None:
    """Bitwise-identical GP fits (exact hyperparameters and sparse model)."""
    pairs = (
        (a.exact.hyper.to_log_vector(), b.exact.hyper.to_log_vector()),
        (a.dataset.targets, b.dataset.targets),
        (a.sparse.inducing, b.sparse.inducing),
        (a.sparse.mean_weights, b.sparse.mean_weights),
    )
    if not all(np.array_equal(x, y) for x, y in pairs):
        raise CheckFailed(f"{what}: GP fits differ")
