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
from .geometry import CameraRig, invert_rigid
from .params import ParamStore
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
    branch: str


@dataclass
class RoIFeature:
    """Per-query sampled feature rows: (N, S, C) with S=K or S=T*K."""

    feat: T.Tensor
    branch: str


@dataclass
class PatternParams:
    offset_w: T.Tensor
    offset_b: T.Tensor
    weight_w: T.Tensor
    weight_b: T.Tensor


@dataclass
class MixParams:
    chan_w: T.Tensor
    chan_b: T.Tensor
    spat_w: T.Tensor
    spat_b: T.Tensor
    ln_chan_gain: T.Tensor
    ln_chan_shift: T.Tensor
    ln_spat_gain: T.Tensor
    ln_spat_shift: T.Tensor
    agg_w: T.Tensor
    agg_b: T.Tensor
    ln_out_gain: T.Tensor
    ln_out_shift: T.Tensor


def pattern_params(store: ParamStore, prefix: str) -> PatternParams:
    return PatternParams(
        offset_w=store[f"{prefix}.offset_w"],
        offset_b=store[f"{prefix}.offset_b"],
        weight_w=store[f"{prefix}.weight_w"],
        weight_b=store[f"{prefix}.weight_b"],
    )


def mix_params(store: ParamStore, prefix: str) -> MixParams:
    return MixParams(
        chan_w=store[f"{prefix}.mix.chan_w"],
        chan_b=store[f"{prefix}.mix.chan_b"],
        spat_w=store[f"{prefix}.mix.spat_w"],
        spat_b=store[f"{prefix}.mix.spat_b"],
        ln_chan_gain=store[f"{prefix}.mix.ln_chan_gain"],
        ln_chan_shift=store[f"{prefix}.mix.ln_chan_shift"],
        ln_spat_gain=store[f"{prefix}.mix.ln_spat_gain"],
        ln_spat_shift=store[f"{prefix}.mix.ln_spat_shift"],
        agg_w=store[f"{prefix}.mix.agg_w"],
        agg_b=store[f"{prefix}.mix.agg_b"],
        ln_out_gain=store[f"{prefix}.mix.ln_out_gain"],
        ln_out_shift=store[f"{prefix}.mix.ln_out_shift"],
    )


def predict_pattern(
    batch: QueryBatch,
    params: PatternParams,
    branch: str,
    cfg: ModelSection,
) -> SamplingPattern:
    """Predict a sampling pattern from the batch's query features.

    Offsets are scaled by the boxes' half-extents and rotated by their yaw.
    LiDAR predicts R = ``num_lidar_scales`` groups of K points in BEV with
    weights normalized jointly over (R, K); the camera branch predicts
    T = ``num_frames`` groups of K 3D points with weights normalized over
    (M, K) within each frame, M = ``num_cam_scales``.
    """
    if cfg.num_points < 1:
        raise ValueError("need at least one sampling point")
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
    yaw_sincos = batch.yaw_sincos()
    s = T.reshape(T.narrow(yaw_sincos, 1, 0, 1), (N, 1, 1, 1))
    c = T.reshape(T.narrow(yaw_sincos, 1, 1, 1), (N, 1, 1, 1))
    lx = T.narrow(scaled, 3, 0, 1)
    ly = T.narrow(scaled, 3, 1, 1)
    wx = T.sub(T.mul(c, lx), T.mul(s, ly))
    wy = T.add(T.mul(s, lx), T.mul(c, ly))
    if dims == 2:
        offsets = T.concat([wx, wy], axis=3)
    else:
        lz = T.narrow(scaled, 3, 2, 1)
        offsets = T.concat([wx, wy, lz], axis=3)

    raw_w = T.linear(features, params.weight_w, params.weight_b)
    if branch == "lidar":
        weights = T.reshape(T.softmax(raw_w, axis=-1), (N, G, K))
    else:
        per_frame = T.reshape(raw_w, (N, G, M * K))
        weights = T.reshape(T.softmax(per_frame, axis=-1), (N, G, M, K))
    return SamplingPattern(offsets=offsets, weights=weights, branch=branch)


def sample_lidar(
    centers_xy: T.Tensor,
    pattern: SamplingPattern,
    pyramid: LidarFeaturePyramid,
) -> RoIFeature:
    """Weighted multi-scale BEV samples at K offset points per query."""
    N = centers_xy.shape[0]
    K = pattern.offsets.shape[2]
    R = pyramid.num_scales
    rng = pyramid.det_range
    base = T.reshape(centers_xy, (N, 1, 2))
    acc = None
    for r in range(R):
        cols, rows = pyramid.grid_shape(r)
        off_r = T.reshape(T.narrow(pattern.offsets, 1, r, 1), (N, K, 2))
        pts = T.add(base, off_r)
        shift = np.array([-rng.x_min, -rng.y_min])
        scale = np.array(
            [cols / (rng.x_max - rng.x_min), rows / (rng.y_max - rng.y_min)]
        )
        uv = T.mul(T.add(pts, shift), scale)
        samp = T.bilinear_sample(pyramid.maps[r].data, uv)  # (N, K, C)
        w_r = T.reshape(T.narrow(pattern.weights, 1, r, 1), (N, K, 1))
        term = T.mul(samp, w_r)
        acc = term if acc is None else T.add(acc, term)
    return RoIFeature(feat=acc, branch="lidar")


def sample_camera(
    centers: T.Tensor,
    pattern: SamplingPattern,
    feats: CameraFeatureSet,
    rig: CameraRig,
) -> RoIFeature:
    """Hit-view-averaged, scale-weighted camera samples per (frame, point).

    Sample points are temporally aligned per frame; points outside every
    view's frustum produce zero rows. Hit decisions (and the 1/|V| factor)
    are constants of the forward pass; gradients flow through projection
    and bilinear weights.
    """
    N = centers.shape[0]
    Tt = feats.num_frames
    M = feats.num_scales
    K = pattern.offsets.shape[2]
    frame_rows = []
    for t in range(Tt):
        off_t = T.reshape(T.narrow(pattern.offsets, 1, t, 1), (N, K, 3))
        pts = T.add(T.reshape(centers, (N, 1, 3)), off_t)
        flat = T.reshape(pts, (N * K, 3))
        rel = invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[0]
        p_t = T.add(T.matmul(flat, rel[:3, :3].T.copy()), rel[:3, 3].copy())

        view_samples = []
        hit_masks = []
        for v, view in enumerate(rig.views):
            E = view.extrinsics
            p_cam = T.add(T.matmul(p_t, E[:3, :3].T.copy()), E[:3, 3].copy())
            x = T.narrow(p_cam, 1, 0, 1)
            y = T.narrow(p_cam, 1, 1, 1)
            z = T.narrow(p_cam, 1, 2, 1)
            z_safe = T.clamp_min(z, 0.1)
            Kmat = view.intrinsics
            u = T.add(T.mul(T.div(x, z_safe), Kmat[0, 0]), Kmat[0, 2])
            w = T.add(T.mul(T.div(y, z_safe), Kmat[1, 1]), Kmat[1, 2])
            W_img, H_img = view.image_size
            hit = (
                (z.data[:, 0] > 0.1)
                & (u.data[:, 0] >= 0.0)
                & (u.data[:, 0] < W_img)
                & (w.data[:, 0] >= 0.0)
                & (w.data[:, 0] < H_img)
            )
            hit_masks.append(hit)
            view_samples.append((u, w))

        counts = np.sum(np.stack(hit_masks), axis=0)  # hit views per point
        inv_count = 1.0 / np.maximum(counts, 1)
        acc_t = None
        for v in range(len(rig.views)):
            if not hit_masks[v].any():
                continue
            u, w = view_samples[v]
            gate = (hit_masks[v] * inv_count)[:, None]
            for m in range(M):
                stride = feats.strides[m]
                coords = T.mul(T.concat([u, w], axis=1), 1.0 / stride)
                samp = T.bilinear_sample(feats.get(v, m, t).data, coords)
                w_m = T.reshape(
                    T.narrow(T.narrow(pattern.weights, 1, t, 1), 2, m, 1), (N, K)
                )
                w_flat = T.reshape(w_m, (N * K, 1))
                term = T.mul(T.mul(samp, w_flat), gate)
                acc_t = term if acc_t is None else T.add(acc_t, term)
        if acc_t is None:
            acc_t = T.Tensor(
                np.zeros((N * K, feats.channels), dtype=centers.data.dtype)
            )
        frame_rows.append(T.reshape(acc_t, (N, K, feats.channels)))
    return RoIFeature(feat=T.concat(frame_rows, axis=1), branch="camera")


def adaptive_mix(features: T.Tensor, roi: RoIFeature, params: MixParams) -> T.Tensor:
    """Channel then spatial correlation mixing, aggregated back to C channels.

    Mixing matrices are generated from the query feature; the flattened
    result is projected to C and residual-added to the query, followed by
    layer norm.
    """
    N, S, C = roi.feat.shape
    if params.agg_w.shape != (S * C, C):
        raise ValueError(
            f"mix params expect S*C={params.agg_w.shape[0]}, got {S * C}"
        )
    w_c = T.reshape(T.linear(features, params.chan_w, params.chan_b), (N, C, C))
    m_c = T.relu(
        T.layer_norm(T.matmul(roi.feat, w_c), params.ln_chan_gain, params.ln_chan_shift)
    )
    w_s = T.reshape(T.linear(features, params.spat_w, params.spat_b), (N, S, S))
    m_s = T.relu(
        T.layer_norm(
            T.matmul(T.swap_last(m_c), w_s), params.ln_spat_gain, params.ln_spat_shift
        )
    )
    flat = T.reshape(m_s, (N, C * S))
    out = T.linear(flat, params.agg_w, params.agg_b)
    return T.layer_norm(
        T.add(features, out), params.ln_out_gain, params.ln_out_shift
    )
