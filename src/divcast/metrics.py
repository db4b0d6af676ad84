"""Forecast scoring (RMSFE, log score, CRPS) and the Diebold-Mariano test of
equal predictive accuracy."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ForecastSeries, InputError, ObservationSeries


def crps_series(draws: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample CRPS per time step: draws (S, D) against outcomes (S,).

    Uses the sorted-form identity for the pairwise term, which equals the
    kernel form mean|X - y| - 0.5 mean|X - X'| exactly, in O(D log D).
    """
    draws = np.asarray(draws, dtype=float)
    ys = np.asarray(ys, dtype=float)
    srt = np.sort(draws, axis=1)
    D = srt.shape[1]
    if D < 2:
        raise InputError("CRPS needs at least two draws")
    term1 = np.mean(np.abs(srt - ys[:, None]), axis=1)
    coeff = 2.0 * np.arange(1, D + 1) - D - 1
    pairwise = 2.0 * (srt @ coeff)  # sum_{i,j} |x_i - x_j| for sorted x, i 1-based
    return term1 - 0.5 * pairwise / (D * D)


@dataclass(frozen=True)
class DMResult:
    statistic: float
    p_value: float
    degenerate: bool = False


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray, h: int = 1) -> DMResult:
    """Diebold-Mariano test on the loss differential loss_a - loss_b.

    The differential variance is HAC-estimated with a Bartlett kernel
    truncated at lag h-1; the Harvey-Leybourne-Newbold small-sample factor is
    applied and the two-sided p-value comes from a Student-t with T-1 degrees
    of freedom.  Negative statistics favor method a.
    """
    loss_a = np.asarray(loss_a, dtype=float)
    loss_b = np.asarray(loss_b, dtype=float)
    if len(loss_a) != len(loss_b):
        raise InputError("loss series must have equal length")
    d = loss_a - loss_b
    T = d.size
    if T < 10:
        raise InputError("DM test needs at least 10 observations")
    if h < 1:
        raise InputError("horizon must be >= 1")
    dbar = d.mean()
    dc = d - dbar
    gamma0 = np.dot(dc, dc) / T
    var = gamma0
    for lag in range(1, h):
        cov = np.dot(dc[lag:], dc[:-lag]) / T
        var += 2.0 * (1.0 - lag / h) * cov
    if var <= 0:
        return DMResult(0.0, 1.0, degenerate=True)
    stat = dbar / np.sqrt(var / T)
    hln = np.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
    stat = float(hln * stat)
    # imported here, as scipy.special is most of the CLI's start-up time
    from scipy.special import stdtr

    p = float(2.0 * stdtr(T - 1, -abs(stat)))
    return DMResult(stat, p, degenerate=False)


@dataclass(frozen=True)
class ScoreRow:
    method: str
    horizon: int
    variable: str
    rmsfe: float
    ls: float
    crps: float
    n_eval: int


def _eval_mask(targets: np.ndarray, window: tuple[int, int] | None) -> np.ndarray:
    if window is None:
        return np.ones(len(targets), dtype=bool)
    lo, hi = window
    return (targets >= lo) & (targets <= hi)


def loss_series(
    fs: ForecastSeries,
    obs: ObservationSeries,
    window: tuple[int, int] | None = None,
) -> dict:
    """Per-target loss paths used both for scoring and for DM comparisons.

    Returns per-variable squared errors, negative marginal log predictives
    and CRPS values, plus the joint negative log predictive, restricted to
    the evaluation window.
    """
    mask = _eval_mask(fs.targets, window)
    if not np.any(mask):
        raise InputError("evaluation window contains no forecast targets")
    targets = fs.targets[mask]
    y = obs.values[targets - 1]  # (S, L)
    point = fs.point[mask]
    sq_err = (y - point) ** 2
    neg_lp_marginal = -fs.log_pred_marginal[mask]
    neg_lp_joint = -fs.log_pred[mask]
    L = obs.n_vars
    crps = np.column_stack(
        [crps_series(fs.draws[mask][:, :, l], y[:, l]) for l in range(L)]
    )
    return {
        "targets": targets,
        "sq_err": sq_err,
        "neg_log_pred": neg_lp_marginal,
        "neg_log_pred_joint": neg_lp_joint,
        "crps": crps,
    }


def score_forecasts(method: str, horizon: int, losses: dict, variable_names: Sequence[str]) -> list[ScoreRow]:
    """Score one forecast block from its loss_series: one row per variable,
    an unweighted average row, and a joint row (log score only) when there
    is more than one variable."""
    n_eval = len(losses["targets"])
    rows = []
    per_var = []
    for l, name in enumerate(variable_names):
        r = float(np.sqrt(losses["sq_err"][:, l].mean()))
        ls = float(losses["neg_log_pred"][:, l].mean())
        c = float(losses["crps"][:, l].mean())
        per_var.append((r, ls, c))
        rows.append(ScoreRow(method, horizon, name, r, ls, c, n_eval))
    avg = tuple(float(np.mean([v[i] for v in per_var])) for i in range(3))
    rows.append(ScoreRow(method, horizon, "average", avg[0], avg[1], avg[2], n_eval))
    if len(variable_names) > 1 and np.all(np.isfinite(losses["neg_log_pred_joint"])):
        joint_ls = float(losses["neg_log_pred_joint"].mean())
        rows.append(ScoreRow(method, horizon, "joint", np.nan, joint_ls, np.nan, n_eval))
    return rows
