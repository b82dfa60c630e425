"""Uncertainty-aware fusion: distance prediction, uncertainty mapping and
uncertainty-weighted feature fusion.

Per-modality uncertainty is u = 1 - exp(-d) for a nonnegative distance d:
either predicted by a small MLP on the pooled RoI feature (inference) or
derived from the auxiliary BEV regressor against a matched ground-truth box
(training targets and oracle-mode robustness evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .rias import RoIFeature


@dataclass
class DistanceParams:
    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor


@dataclass
class FuseParams:
    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor


def distance_params(store: ParamStore, prefix: str) -> DistanceParams:
    return DistanceParams(
        w1=store[f"{prefix}.w1"],
        b1=store[f"{prefix}.b1"],
        w2=store[f"{prefix}.w2"],
        b2=store[f"{prefix}.b2"],
    )


def fuse_params(store: ParamStore, prefix: str) -> FuseParams:
    return FuseParams(
        w1=store[f"{prefix}.fuse.w1"],
        b1=store[f"{prefix}.fuse.b1"],
        w2=store[f"{prefix}.fuse.w2"],
        b2=store[f"{prefix}.fuse.b2"],
    )


def pool_roi(roi: RoIFeature) -> T.Tensor:
    """Mean over the S sampled rows: (N, S, C) -> (N, C)."""
    return T.mean(roi.feat, axis=1)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def uncertainty_from_distance(d):
    """1 - exp(-d): strictly increasing, maps [0, inf) onto [0, 1).

    Clamped to the largest double below 1 where rounding would otherwise
    saturate to exactly 1 (mathematically the value never reaches 1).
    """
    if isinstance(d, T.Tensor):
        if np.any(d.data < 0):
            raise ValueError("distance must be nonnegative")
        u = T.sub(1.0, T.exp(T.neg(d)))
        if np.any(u.data >= 1.0):
            u = T.mul(u, _BELOW_ONE)
        return u
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    return np.minimum(1.0 - np.exp(-d), _BELOW_ONE)


def predict_distance(pooled: T.Tensor, params: DistanceParams) -> T.Tensor:
    """Nonnegative distance estimate from a pooled RoI feature: (N,) values."""
    h = T.relu(T.linear(pooled, params.w1, params.b1))
    raw = T.linear(h, params.w2, params.b2)
    return T.reshape(T.softplus(raw), (pooled.shape[0],))


def predict_uncertainty(roi: RoIFeature, params: DistanceParams) -> T.Tensor:
    """Predicted per-query uncertainty in [0, 1), differentiable."""
    return uncertainty_from_distance(predict_distance(pool_roi(roi), params))


def regress_xy(roi: RoIFeature, params: DistanceParams, centers_xy: T.Tensor) -> T.Tensor:
    """Modality-specific BEV position estimate: query center + learned residual."""
    h = T.relu(T.linear(pool_roi(roi), params.w1, params.b1))
    offset = T.linear(h, params.w2, params.b2)
    return T.add(centers_xy, offset)


def oracle_distance_xy(est_xy: np.ndarray, gt_xy: np.ndarray) -> np.ndarray:
    """Euclidean BEV distance between position estimates and matched GT."""
    return np.linalg.norm(np.asarray(est_xy) - np.asarray(gt_xy), axis=-1)


def fuse(
    feat_cam: T.Tensor,
    u_cam,
    feat_lid: T.Tensor,
    u_lid,
    params: FuseParams,
) -> T.Tensor:
    """FFN over the concatenation of (1-u)-weighted modality features."""
    w_cam = _fusion_weight(u_cam, feat_cam)
    w_lid = _fusion_weight(u_lid, feat_lid)
    cat = T.concat([T.mul(feat_cam, w_cam), T.mul(feat_lid, w_lid)], axis=1)
    h = T.relu(T.linear(cat, params.w1, params.b1))
    return T.linear(h, params.w2, params.b2)


def _fusion_weight(u, like: T.Tensor):
    n = like.shape[0]
    if isinstance(u, T.Tensor):
        w = T.sub(1.0, u)
        if w.ndim == 1:
            w = T.reshape(w, (n, 1))
        return w
    u = np.asarray(u, dtype=like.data.dtype)
    if u.ndim == 0:
        u = np.full((n, 1), float(u), dtype=like.data.dtype)
    elif u.ndim == 1:
        u = u[:, None]
    return T.Tensor(1.0 - u)
