"""Correctness checks on a finished pipeline run, independent of timing.

Each check returns None on success or a one-line reason on failure; the
runner counts every call as one attempted operation.
"""

from __future__ import annotations

import numpy as np

from nic.invert import ControllerConfig, build_objective
from nic.optim import FEAS_TOL
from nic.validate import STRICT_TOL, GammaDataSet

ORACLE_GRID = 100_000   # dense-grid points of the criterion-1 oracle
ORACLE_TOL = 1e-9       # allowed excess of J(u) over the grid minimum
GAMMA_RTOL = 1e-12      # blocked recomputation vs reported gamma_min
BLOCK_ROWS = 256        # rows per block: O(BLOCK_ROWS * P) memory


def tube_holds(report: dict, model_diag: dict) -> str | None:
    """identify succeeded and the stored model stays inside its eta*rho
    tube, up to the LP feasibility tolerance."""
    if not report.get("success"):
        return "identify reports failure"
    tube = float(model_diag["eta"]) * float(model_diag["rho"])
    res = float(report["residual_linf"])
    if not res <= tube + FEAS_TOL:
        return f"residual_linf {res:.3e} exceeds eta*rho {tube:.3e}"
    return None


def oracle_gap(model, cfg: ControllerConfig, q: np.ndarray, r: float,
               u: float) -> float:
    """J(u) minus the minimum of J over a dense grid of [u_min, u_max]."""
    J = build_objective(model, q, r, cfg)
    grid = np.linspace(cfg.u_min, cfg.u_max, ORACLE_GRID)
    return float(J(u)) - float(J(grid).min())


def gamma_min_blocked(ds: GammaDataSet) -> float:
    """The gamma_min closed form, max over window pairs of
    (|yhat_i - yhat_j| - 2 eps) / ||w_i - w_j||_inf, clipped at 0, computed
    in row blocks so no P x P array is built.  Identical windows whose
    predictions differ by more than 2 eps give inf."""
    w, yhat, eps = ds.windows, ds.yhat, ds.eps
    best = 0.0
    for lo in range(0, w.shape[0], BLOCK_ROWS):
        blk = slice(lo, lo + BLOCK_ROWS)
        dist = np.zeros((w[blk].shape[0], w.shape[0]))
        for v in range(w.shape[1]):
            np.maximum(dist, np.abs(w[blk, v, None] - w[None, :, v]), out=dist)
        dy = np.abs(yhat[blk, None] - yhat[None, :])
        same = dist == 0.0
        if (dy[same] > 2.0 * eps + STRICT_TOL).any():
            return float("inf")
        apart = ~same
        if apart.any():
            best = max(best, float(((dy[apart] - 2.0 * eps) / dist[apart]).max()))
    return best


def gamma_agrees(reported: float, recomputed: float) -> str | None:
    if np.isinf(reported) and np.isinf(recomputed):
        return None
    if abs(reported - recomputed) <= GAMMA_RTOL * max(1.0, abs(reported)):
        return None
    return f"gamma_min {reported!r} != blocked recomputation {recomputed!r}"
