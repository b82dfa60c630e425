"""RoI-aware feature sampling: predicted offsets/weights, LiDAR BEV and
multi-view/scale/frame camera sampling, and channel-spatial adaptive mixing.

All operations are batched over queries (leading axis N) and fully
differentiable w.r.t. feature maps, offsets, attention weights and box
centers. Offsets are predicted in the box frame (scaled by half-extents,
rotated by yaw) and bounded by tanh times a configurable factor; attention
weights are softmax-normalized jointly over scales x points for LiDAR and
over scales x points within each frame for the camera branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelSection
from .featuremaps import CameraFeatureSet, LidarFeaturePyramid
from .geometry import DEPTH_FLOOR, CameraRig, GeometryError
from .queries import QueryBatch


@dataclass
class SamplingPattern:
    """Predicted offsets (meters) and normalized attention weights.

    LiDAR: offsets (N, R, K, 2), weights (N, R, K) summing to 1 over (R, K).
    Camera: offsets (N, T, K, 3), weights (N, T, M, K) summing to 1 over
    (M, K) within each frame.
    """

    offsets: T.Tensor
    weights: T.Tensor


_SINCOS_TO_ROTATION = np.array([[0.0, -1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])


def predict_pattern(batch: QueryBatch, params, branch: str, cfg: ModelSection) -> SamplingPattern:
    """Predict a sampling pattern from the batch's query features.

    ``params`` is the branch's parameter group (``offset_w``, ``offset_b``,
    ``weight_w``, ``weight_b``; ``ParamStore.group("layer0.lidar")``).

    Offsets are scaled by the boxes' half-extents and rotated by their yaw.
    LiDAR predicts R = ``num_lidar_scales`` groups of K points in BEV with
    weights normalized jointly over (R, K); the camera branch predicts
    T = ``num_frames`` groups of K 3D points with weights normalized over
    (M, K) within each frame, M = ``num_cam_scales``.
    """
    if branch == "lidar":
        G, M, dims = cfg.num_lidar_scales, 1, 2
    else:
        G, M, dims = cfg.num_frames, cfg.num_cam_scales, 3
    K = cfg.num_points
    features = batch.features
    N = features.shape[0]

    raw = T.linear(features, params.offset_w, params.offset_b)
    bounded = T.mul(T.tanh(raw), cfg.max_offset_factor)
    local = T.reshape(bounded, (N, G, K, dims))

    # scale by half-extents, rotate the BEV components by box yaw
    half = T.reshape(T.narrow(batch.half_extents(), 1, 0, dims), (N, 1, 1, dims))
    scaled = T.mul(local, half)
    # (sin, cos) -> the rows [[c, -s], [s, c]] of each query's rotation
    rot = T.matmul(batch.yaw_sincos(), _SINCOS_TO_ROTATION.astype(batch.box_state.dtype))
    # (x, y) ahead of the G x K points: each entry of the rotation's gradient
    # then sums one contiguous run of points, which numpy adds pairwise, as
    # it does for the per-column chain that tests/test_rias.py keeps
    xy = T.transpose(scaled if dims == 2 else T.narrow(scaled, 3, 0, 2), (0, 3, 1, 2))
    prod = T.mul(T.reshape(xy, (N, 1, 2, G, K)), T.reshape(rot, (N, 2, 2, 1, 1)))
    offsets = T.transpose(T.sum_(prod, axis=2), (0, 2, 3, 1))
    if dims == 3:
        offsets = T.concat([offsets, T.narrow(scaled, 3, 2, 1)], axis=3)

    raw_w = T.linear(features, params.weight_w, params.weight_b)
    if branch == "lidar":
        weights = T.reshape(T.softmax(raw_w, axis=-1), (N, G, K))
    else:
        per_frame = T.reshape(raw_w, (N, G, M * K))
        weights = T.reshape(T.softmax(per_frame, axis=-1), (N, G, M, K))
    return SamplingPattern(offsets=offsets, weights=weights)


def sample_lidar(
    centers_xy: T.Tensor,
    pattern: SamplingPattern,
    pyramid: LidarFeaturePyramid,
) -> T.Tensor:
    """Weighted multi-scale BEV samples at K offset points per query, all
    scales in one packed read: (N, K, C) rows."""
    N, R, K, _ = pattern.offsets.shape
    rng = pyramid.det_range
    # the conversions return the gradients w.r.t. the pattern in its own
    # dtype, whatever dtype arrives from above
    offsets = T.astype(pattern.offsets, pattern.offsets.dtype)
    pts = T.add(T.reshape(centers_xy, (N, 1, 1, 2)), offsets)  # (N, R, K, 2)
    shift = np.array([-rng.x_min, -rng.y_min])
    # texels per meter along (u, v) = (cols, rows) at each scale
    scale = pyramid.shapes[:, ::-1] / np.array([rng.x_max - rng.x_min, rng.y_max - rng.y_min])
    uv = T.mul(T.add(pts, shift), scale.reshape(1, R, 1, 2))
    map_idx = np.broadcast_to(np.arange(R).reshape(1, R, 1), (N, R, K))
    samp = pyramid.sample(map_idx, uv)
    term = T.mul(samp, T.astype(T.reshape(pattern.weights, (N, R, K, 1)), samp.dtype))
    return T.sum_(term, axis=1)


def sample_camera(
    centers: T.Tensor,
    pattern: SamplingPattern,
    feats: CameraFeatureSet,
    rig: CameraRig,
) -> T.Tensor:
    """Hit-view-averaged, scale-weighted camera samples per (frame, point):
    (N, T*K, C) rows.

    Sample points are temporally aligned per frame; points outside every
    view's frustum produce zero rows. Hit decisions (and the 1/|V| factor)
    are constants of the forward pass; gradients flow through projection
    and bilinear weights. Projection runs in double precision for all
    frames and views at once, with the constants the rig stacks once
    (``rig.projection``); only the hit (frame, view, point) triples are
    read, every scale in one packed read, and each term is added into its
    (frame, point) row in view-then-scale order.
    """
    N, Tt, K, _ = pattern.offsets.shape
    M, V, C = feats.num_scales, len(rig.views), feats.channels
    P = N * K

    if Tt > rig.num_frames:
        raise GeometryError(f"{Tt} sampled frames, but the rig has {rig.num_frames}")
    proj = rig.projection

    # 1. every frame's points in that frame's ego coordinates: (T, P, 3);
    # the conversions return the pattern's gradients in its own dtype
    pts = T.add(T.reshape(centers, (N, 1, 1, 3)), pattern.offsets)  # (N, T, K, 3)
    pts = T.reshape(T.transpose(T.astype(pts, np.float64), (1, 0, 2, 3)), (Tt, P, 3))
    p_t = T.add(T.matmul(pts, proj.align_rot[:Tt]), proj.align_shift[:Tt])

    # 2. into every view's pixels: (T, V, P, 2), depth (T, V, P, 1)
    p_cam = T.add(T.matmul(T.reshape(p_t, (Tt, 1, P, 3)), proj.ext_rot), proj.ext_shift)
    z = T.narrow(p_cam, 3, 2, 1)
    uv = T.add(T.mul(T.div(T.narrow(p_cam, 3, 0, 2), T.clamp_min(z, DEPTH_FLOOR)), proj.focal),
               proj.principal)
    inside = (uv.data >= 0.0) & (uv.data < proj.image_size)
    hit = (z.data[..., 0] > DEPTH_FLOOR) & inside[..., 0] & inside[..., 1]  # (T, V, P)

    # 3. compact to the hit (frame, view, point) triples, M scale rows each
    t_h, v_h, p_h = np.nonzero(hit)
    if t_h.size == 0:
        return T.Tensor(np.zeros((N, Tt * K, C), dtype=centers.data.dtype))
    inv_count = 1.0 / np.maximum(hit.sum(axis=1), 1)  # (T, P): 1 / hit views
    m_r = np.tile(np.arange(M), t_h.size)
    t_r, v_r, p_r = (np.repeat(a, M) for a in (t_h, v_h, p_h))
    inv_stride = 1.0 / np.asarray(feats.strides)
    coords = T.mul(T.gather_rows(T.reshape(uv, (Tt * V * P, 2)), (t_r * V + v_r) * P + p_r),
                   inv_stride[m_r][:, None])

    # 4. one packed read; (sample x weight) x gate into its (frame, point) row
    samp = feats.sample(feats.index(v_r, m_r, t_r), coords)
    n_r, k_r = p_r // K, p_r % K
    w_rows = T.gather_rows(T.reshape(pattern.weights, (-1, 1)),
                           ((n_r * Tt + t_r) * M + m_r) * K + k_r)
    term = T.mul(T.mul(samp, T.astype(w_rows, samp.dtype)), inv_count[t_r, p_r][:, None])
    rows = T.scatter_add_rows(term, (n_r * Tt + t_r) * K + k_r, N * Tt * K)
    return T.reshape(rows, (N, Tt * K, C))


def adaptive_mix(features: T.Tensor, roi: T.Tensor, params) -> T.Tensor:
    """Channel then spatial correlation mixing of the (N, S, C) sampled rows
    ``roi``, aggregated back to C channels.

    Mixing matrices are generated from the query feature; the flattened
    result is projected to C and residual-added to the query, followed by
    layer norm. ``params`` is the branch's mixer group
    (``ParamStore.group("layer0.lidar.mix")``).
    """
    N, S, C = roi.shape
    if params.agg_w.shape != (S * C, C):
        raise ValueError(
            f"mix params expect S*C={params.agg_w.shape[0]}, got {S * C}"
        )
    w_c = T.reshape(T.linear(features, params.chan_w, params.chan_b), (N, C, C))
    m_c = T.relu(
        T.layer_norm(T.matmul(roi, w_c), params.ln_chan_gain, params.ln_chan_shift)
    )
    w_s = T.reshape(T.linear(features, params.spat_w, params.spat_b), (N, S, S))
    m_s = T.relu(
        T.layer_norm(
            T.matmul(T.transpose(m_c, (0, 2, 1)), w_s), params.ln_spat_gain, params.ln_spat_shift
        )
    )
    flat = T.reshape(m_s, (N, C * S))
    out = T.linear(flat, params.agg_w, params.agg_b)
    return T.layer_norm(
        T.add(features, out), params.ln_out_gain, params.ln_out_shift
    )
