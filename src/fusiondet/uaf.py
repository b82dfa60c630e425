"""Uncertainty-aware fusion: distance prediction, uncertainty mapping and
uncertainty-weighted feature fusion.

Per-modality uncertainty is u = 1 - exp(-d) for a nonnegative distance d:
either predicted by a small MLP on the pooled RoI feature (inference) or
derived from the auxiliary BEV regressor against a matched ground-truth box
(training targets and oracle-mode robustness evaluation). The decoder runs
both heads in predicted mode, the regressor alone in oracle mode and neither
under equal fusion, leaving a head's LayerPrediction fields None where it
does not run.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def pool_roi(roi: T.Tensor) -> T.Tensor:
    """Mean over the S sampled rows: (N, S, C) -> (N, C)."""
    return T.mean(roi, axis=1)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def uncertainty_from_distance(d: T.Tensor) -> T.Tensor:
    """1 - exp(-d) of an (N,) distance Tensor: strictly increasing, maps
    [0, inf) onto [0, 1).

    Each element where rounding would saturate to exactly 1 is clamped, on
    its own, to the largest double below 1 (mathematically the value never
    reaches 1); the gradient is that of 1 - exp(-d) throughout.
    """
    if np.any(d.data < 0):
        raise ValueError("distance must be nonnegative")
    u = T.sub(1.0, T.exp(T.neg(d)))
    excess = u.data - np.minimum(u.data, _BELOW_ONE)
    return T.sub(u, excess) if excess.any() else u


def predict_distance(pooled: T.Tensor, params) -> T.Tensor:
    """Nonnegative distance estimate from a pooled RoI feature: (N,) values.

    ``params`` is a two-layer head group (``ParamStore.group("layer0.lidar.dist")``).
    """
    return T.reshape(T.softplus(T.mlp(pooled, params)), (pooled.shape[0],))


def regress_xy(pooled: T.Tensor, params, centers_xy: T.Tensor) -> T.Tensor:
    """Modality-specific BEV position estimate from a pooled RoI feature:
    query center + learned residual (``params`` as in :func:`predict_distance`)."""
    return T.add(centers_xy, T.mlp(pooled, params))


def oracle_distance_xy(est_xy: np.ndarray, gt_xy: np.ndarray) -> np.ndarray:
    """Euclidean BEV distance between position estimates and matched GT."""
    return np.linalg.norm(np.asarray(est_xy) - np.asarray(gt_xy), axis=-1)


def fuse(
    feat_cam: T.Tensor,
    u_cam: T.Tensor,
    feat_lid: T.Tensor,
    u_lid: T.Tensor,
    params,
) -> T.Tensor:
    """FFN (a two-layer head group) over the concatenation of (1-u)-weighted
    modality features; ``u_cam`` and ``u_lid`` are (N,) Tensors."""
    n = feat_cam.shape[0]
    w_cam = T.reshape(T.sub(1.0, u_cam), (n, 1))
    w_lid = T.reshape(T.sub(1.0, u_lid), (n, 1))
    cat = T.concat([T.mul(feat_cam, w_cam), T.mul(feat_lid, w_lid)], axis=1)
    return T.mlp(cat, params)
