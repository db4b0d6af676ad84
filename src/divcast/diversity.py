"""Scaled model diversity: the forward-looking signal injected into the
latent weight process.

For one variable, entry k is the sum of squared distances of model k's
forecast to every other model's forecast, normalized by the total over all
ordered pairs.  Columns therefore sum to one, and entries are invariant to
shifting or rescaling all forecasts of a variable together.  The panel is
frozen, so a filter takes the whole path of a horizon, every target time's
vector, in one call.
"""

from __future__ import annotations

import numpy as np

from .core import InputError, PredictorPanel, matrix_to_latent


def scaled_diversity(preds: np.ndarray) -> np.ndarray:
    """Diversity matrices of a (K, L) block, or a (T, K, L) stack of blocks,
    of point forecasts.

    Entry (k, l) is sum_i (p[k,l]-p[i,l])^2 / sum_{i,j} (p[i,l]-p[j,l])^2.
    A column whose forecasts are all identical carries no diversity
    information and falls back to the uniform 1/K column.  Each block of a
    stack gets the bits it gets alone.
    """
    preds = np.asarray(preds, dtype=float)
    if preds.ndim == 1:
        preds = preds[:, None]
    if preds.ndim not in (2, 3):
        raise InputError("predictions must be a (K, L) matrix or a (T, K, L) stack")
    K = preds.shape[-2]
    if K < 2:
        raise InputError("diversity needs at least two models")
    if not np.all(np.isfinite(preds)):
        raise InputError("predictions must be finite")

    # Pairwise squared differences, computed from actual differences so the
    # location invariance holds to round-off.
    diff = preds[..., :, None, :] - preds[..., None, :, :]  # ([T,] K, K, L)
    num = (diff**2).sum(axis=-2)  # ([T,] K, L)
    den = num.sum(axis=-2, keepdims=True)  # ([T,] 1, L)
    degenerate = den == 0.0
    return np.where(degenerate, 1.0 / K, num / np.where(degenerate, 1.0, den))


def diversity_vector(panel: PredictorPanel, h: int) -> np.ndarray:
    """Diversity path of the panel's horizon-h draw means, (T, K*L): row t-1
    is target time t's vector, laid out entrywise with the latent weight
    vector (the (k, l) diversity entry multiplies the (k, l) latent
    coordinate).
    """
    if not 1 <= h <= panel.n_horizons:
        raise InputError(f"horizon {h} outside 1..{panel.n_horizons}")
    return matrix_to_latent(scaled_diversity(panel._means[..., h - 1]))
