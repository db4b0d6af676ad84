"""Per-target forecast losses (squared error, negative log predictive,
sample CRPS) and the Diebold-Mariano test of equal predictive accuracy.
experiment.METRICS turns the loss paths into the RMSFE, log score and CRPS
of a score row.

The DM p-value comes from this module's own two-sided Student-t tail with
T-1 degrees of freedom, written with ``math`` alone; it matches
``2 * scipy.stats.t.sf(|stat|, T-1)`` within 1e-11 relative (1.1e-12 worst
over df 9..5000 and |stat| <= 40), so scoring needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ForecastSeries, InputError, ObservationSeries


def crps_series(draws: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample CRPS of each row of draws (..., D) against its outcome in ys
    (...): mean|X - y| - 0.5 mean|X - X'|, with the sorted-form identity for
    the pairwise term, in O(D log D).

    The draws are sorted into a C-contiguous copy, the only (..., D)
    temporary: the pairwise term is taken from it first, and |X - y| is then
    written into it.  The pairwise term is einsum's own loop, not a BLAS
    product, and every row is summed alone over contiguous memory, so a
    row's CRPS has the same bits whatever rows share the call and whatever
    the layout of draws: a target scores the same in a block, alone, or in
    a step of the filter.
    """
    srt = np.array(draws, dtype=float, order="C")
    srt.sort(axis=-1)
    D = srt.shape[-1]
    if D < 2:
        raise InputError("CRPS needs at least two draws")
    coeff = 2.0 * np.arange(1, D + 1) - D - 1
    pairwise = 2.0 * np.einsum("...j,j->...", srt, coeff)  # sum_{i,j} |x_i - x_j| for sorted x, i 1-based
    ys = np.asarray(ys, dtype=float)[..., None]
    term1 = np.mean(np.abs(np.subtract(srt, ys, out=srt), out=srt), axis=-1)
    return term1 - 0.5 * pairwise / (D * D)


def percentiles(draws: np.ndarray, q: tuple[float, ...]) -> np.ndarray:
    """np.percentile(draws, q, axis=0) of draws (J, ...) by numpy's default
    linear rule, bit for bit: (len(q), ...).

    Percentile p takes the order statistics at i = floor((J-1) p/100) and
    i + 1 and combines them as numpy's _lerp does, a + (b - a) g, or
    b - (b - a)(1 - g) where g >= 0.5, with g = (J-1) p/100 - i.  The order
    statistics come from numpy's own partition of a copy, at the positions
    np.percentile asks for, so even ties of -0.0 and 0.0 fall alike, and a
    column holding a NaN gives its largest value, a NaN, as numpy does.
    np.percentile itself would load numpy.ma (through np.unique) into every
    process that takes forecast quantiles.
    """
    last = len(draws) - 1
    virtual = last * (np.asarray(q, dtype=float) / 100)
    i = np.where(virtual >= last, -1, np.floor(virtual)).astype(np.intp)  # numpy takes -1 past the end
    j = np.where(i < 0, -1, i + 1)
    gamma = (virtual - i).reshape(-1, *[1] * (np.ndim(draws) - 1))
    part = np.array(draws, dtype=float)
    part.partition(sorted({0, -1, *i.tolist(), *j.tolist()}), axis=0)
    a, b = part[i], part[j]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    np.copyto(out, part[-1], where=np.isnan(part[-1]))  # NaN sorts last
    return out


def _t_two_sided(stat: float, df: int) -> float:
    """P(|T| > |stat|) for a Student-t T with integer df >= 1.

    Up to |stat| = 2, where p > 0.045, it is one minus the finite trig series
    for P(|T| < |stat|) (Abramowitz & Stegun 26.7.3-4).  Beyond, it is the
    regularized incomplete beta I_x(df/2, 1/2), x = df / (df + stat^2), whose
    continued fraction sums the tail itself, so a small p keeps its relative
    accuracy; x lies below the beta mean there, where the fraction converges
    in under 50 terms.
    """
    t = abs(stat)
    if t != t:
        return math.nan
    if t == math.inf:
        return 0.0
    odd = df % 2
    if t <= 2.0:
        z = 1.0 + t * t / df  # 1 / cos^2 of the series' angle
        f = term = 1.0
        for j in range(2 + odd, df - 1, 2):
            term *= (j - 1) / (z * j)
            f += term
        if not odd:
            return 1.0 - f * t / math.sqrt(z * df)
        u = t / math.sqrt(df)
        return 1.0 - (math.atan(u) + (f * u / z if df > 1 else 0.0)) * 2.0 / math.pi
    a = df / 2
    x = df / (df + t * t)
    # 1 / B(a, 1/2), stepped up from B(1/2, 1/2) = pi or B(1, 1/2) = 2
    inv_beta = 1.0 / math.pi if odd else 0.5
    for k in range(2 - odd, df, 2):
        inv_beta *= (k + 1) / k
    # x^a (1 - x)^(1/2) / (a B(a, 1/2)), then the fraction by Lentz's method
    front = math.exp(-a * math.log1p(t * t / df)) * t / math.sqrt(df + t * t) * inv_beta / a
    c, d = 1.0, 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
    h = d
    for m in range(1, 100):
        for num in (
            m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) < math.ulp(1.0):
            break
    return front * h


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
    return DMResult(stat, _t_two_sided(stat, T - 1), degenerate=False)


def _eval_slice(targets: np.ndarray, window: tuple[int, int] | None) -> slice:
    """The rows of ascending targets that lie in the window lo..hi (every row
    when window is None), as a slice, so indexing by it copies nothing."""
    if window is None:
        return slice(None)
    lo, hi = window
    return slice(int(np.searchsorted(targets, lo, side="left")), int(np.searchsorted(targets, hi, side="right")))


def loss_series(
    fs: ForecastSeries,
    obs: ObservationSeries,
    window: tuple[int, int] | None = None,
) -> dict:
    """Per-target loss paths used both for scoring and for DM comparisons.

    Returns per-variable squared errors, negative marginal log predictives
    and CRPS values (the block's own, scored where its draws were made),
    plus the joint negative log predictive, restricted to the evaluation
    window.
    """
    rows = _eval_slice(fs.targets, window)
    targets = fs.targets[rows]
    if not len(targets):
        raise InputError("evaluation window contains no forecast targets")
    y = obs.values[targets - 1]  # (S, L)
    sq_err = (y - fs.point[rows]) ** 2
    neg_lp_marginal = -fs.log_pred_marginal[rows]
    neg_lp_joint = -fs.log_pred[rows]
    return {
        "targets": targets,
        "sq_err": sq_err,
        "neg_log_pred": neg_lp_marginal,
        "neg_log_pred_joint": neg_lp_joint,
        "crps": fs.crps[rows],
    }
