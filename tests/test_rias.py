"""RoI sampling and mixing against independent loop-based dense references.

The references below re-implement the sampling equations with scalar loops
and their own bilinear interpolation; they share no code with the batched
implementation under test.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusiondet import geometry, gradsuite
from fusiondet import tensor as T
from fusiondet.config import ModelSection, RunConfig
from fusiondet.featuremaps import CameraFeatureSet, LidarFeaturePyramid
from fusiondet.geometry import (
    DEPTH_FLOOR,
    CameraRig,
    CameraView,
    DetectionRange,
    make_rigid,
    rot_z,
)
from fusiondet.paqg import generate_queries
from fusiondet.params import init_model_params
from fusiondet.queries import QueryBatch, boxes_to_state
from fusiondet.rias import (
    SamplingPattern,
    adaptive_mix,
    predict_pattern,
    sample_camera,
    sample_lidar,
)
from fusiondet.geometry import Box3D, BoxArray, invert_rigid
from fusiondet.scenesim import generate_scene
from desk_grads import DESK_SCENES, assert_same, desk_queries, outputs_and_grads
from paqg_reference import hit_views, packed_map


# ---------------------------------------------------------------------------
# independent reference implementations
# ---------------------------------------------------------------------------


def ref_bilinear(grid: np.ndarray, u: float, v: float) -> np.ndarray:
    """Scalar bilinear read with texel centers at +0.5 and zero padding."""
    H, W, C = grid.shape
    x = u - 0.5
    y = v - 0.5
    i0, j0 = math.floor(x), math.floor(y)
    fx, fy = x - i0, y - j0
    out = np.zeros(C)
    for di, dj, w in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        ii, jj = i0 + di, j0 + dj
        if 0 <= ii < W and 0 <= jj < H:
            out = out + w * grid[jj, ii]
    return out


def ref_sample_lidar(centers_xy, offsets, weights, grids, det_range):
    """Loop-form of the LiDAR RoI read: rows k, sum over scales r."""
    N, R, K, _ = offsets.shape
    C = grids[0].shape[2]
    out = np.zeros((N, K, C))
    for n in range(N):
        for k in range(K):
            for r in range(R):
                px = centers_xy[n, 0] + offsets[n, r, k, 0]
                py = centers_xy[n, 1] + offsets[n, r, k, 1]
                rows, cols = grids[r].shape[0], grids[r].shape[1]
                u = (px - det_range.x_min) / (det_range.x_max - det_range.x_min) * cols
                v = (py - det_range.y_min) / (det_range.y_max - det_range.y_min) * rows
                out[n, k] += ref_bilinear(grids[r], u, v) * weights[n, r, k]
    return out


def ref_sample_camera(centers, offsets, weights, grids, strides, rig):
    """Loop-form of the camera RoI read: per (t, k), hit-view mean of the
    scale-weighted reads at the temporally aligned projected point."""
    N, Tt, K, _ = offsets.shape
    M = len(strides)
    C = grids[(0, 0, 0)].shape[2]
    out = np.zeros((N, Tt * K, C))
    for n in range(N):
        for t in range(Tt):
            rel = np.linalg.inv(rig.ego_poses[t]) @ rig.ego_poses[0]
            for k in range(K):
                p = centers[n] + offsets[n, t, k]
                p_t = rel[:3, :3] @ p + rel[:3, 3]
                hits = []
                for vi, view in enumerate(rig.views):
                    pc = view.extrinsics[:3, :3] @ p_t + view.extrinsics[:3, 3]
                    if pc[2] <= 0.1:
                        continue
                    u = view.intrinsics[0, 0] * pc[0] / pc[2] + view.intrinsics[0, 2]
                    vv = view.intrinsics[1, 1] * pc[1] / pc[2] + view.intrinsics[1, 2]
                    W, H = view.image_size
                    if 0 <= u < W and 0 <= vv < H:
                        hits.append((vi, u, vv))
                if not hits:
                    continue
                acc = np.zeros(C)
                for vi, u, vv in hits:
                    for m in range(M):
                        acc += (
                            ref_bilinear(grids[(vi, m, t)], u / strides[m], vv / strides[m])
                            * weights[n, t, m, k]
                        )
                out[n, t * K + k] = acc / len(hits)
    return out


def _random_rig(rng, num_views, num_frames):
    K = np.array([[50.0, 0.0, 32.0], [0.0, 50.0, 24.0], [0.0, 0.0, 1.0]])
    views = []
    for v in range(num_views):
        ang = 2 * math.pi * v / num_views + rng.uniform(-0.1, 0.1)
        fwd = np.array([math.cos(ang), math.sin(ang), 0.0])
        right = np.array([math.sin(ang), -math.cos(ang), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        R = np.stack([right, down, fwd], axis=0)
        views.append(CameraView(K, make_rigid(R, [0, 0, 1.5]), (64, 48)))
    poses = [
        make_rigid(rot_z(rng.uniform(-0.2, 0.2) * t), [-1.5 * t, rng.uniform(-0.2, 0.2), 0])
        for t in range(num_frames)
    ]
    return CameraRig(views, poses)


def _normalized_weights(rng, shape, axes):
    w = rng.uniform(0.1, 1.0, size=shape)
    s = w.sum(axis=axes, keepdims=True)
    return w / s


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------


class TestOracleEquivalence:
    def test_lidar_100_random_instances(self):
        det = DetectionRange(-12, 12, -12, 12, -2, 2)
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([31, seed]))
            N = int(rng.integers(1, 6))
            R = int(rng.integers(1, 4))
            K = int(rng.integers(1, 5))
            C = int(rng.integers(1, 6))
            grids = [rng.normal(size=(8 // (1 + (r > 1)), 8, C)) for r in range(R)]
            centers = rng.uniform(-10, 10, size=(N, 2))
            offsets = rng.normal(0, 1.5, size=(N, R, K, 2))
            weights = _normalized_weights(rng, (N, R, K), (1, 2))
            pyramid = LidarFeaturePyramid(grids, det)
            got = sample_lidar(
                T.Tensor(centers, dtype=np.float64),
                SamplingPattern(T.Tensor(offsets, dtype=np.float64),
                                T.Tensor(weights, dtype=np.float64)),
                pyramid,
            ).data
            want = ref_sample_lidar(centers, offsets, weights, grids, det)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-10

    def test_camera_100_random_instances(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([37, seed]))
            N = int(rng.integers(1, 5))
            V = int(rng.integers(1, 4))
            M = int(rng.integers(1, 3))
            Tt = int(rng.integers(1, 3))
            K = int(rng.integers(1, 4))
            C = int(rng.integers(1, 5))
            rig = _random_rig(rng, V, Tt)
            strides = [2.0 * 2 ** m for m in range(M)]
            grids = {
                (v, m, t): rng.normal(size=(48 // int(strides[m] // 2), 64 // int(strides[m] // 2), C))
                for v in range(V) for m in range(M) for t in range(Tt)
            }
            feats = CameraFeatureSet(grids, V, M, Tt, strides)
            centers = np.column_stack([
                rng.uniform(-8, 8, N), rng.uniform(-8, 8, N), rng.uniform(-0.5, 1.5, N)
            ])
            offsets = rng.normal(0, 1.0, size=(N, Tt, K, 3))
            weights = _normalized_weights(rng, (N, Tt, M, K), (2, 3))
            got = sample_camera(
                T.Tensor(centers, dtype=np.float64),
                SamplingPattern(T.Tensor(offsets, dtype=np.float64),
                                T.Tensor(weights, dtype=np.float64)),
                feats, rig,
            ).data
            want = ref_sample_camera(centers, offsets, weights, grids, strides, rig)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# the packed reads give the per-view and per-scale loops' numbers bit for bit
# ---------------------------------------------------------------------------


def _pattern_slice(a, axis, i):
    """Slice ``i`` of ``a`` along ``axis``, whose gradient is rounded to
    ``a``'s dtype, as the samplers' ``T.astype`` rounds the pattern's."""
    return T.astype(T.narrow(a, axis, i, 1), a.dtype)


def per_view_sample_camera(centers, pattern, feats, rig):
    """The camera sampler as one graph per frame, view and scale: points
    projected view by view, every view with a hit read at every scale."""
    N = centers.shape[0]
    Tt = feats.num_frames
    M = feats.num_scales
    K = pattern.offsets.shape[2]
    frame_rows = []
    for t in range(Tt):
        off_t = T.reshape(_pattern_slice(pattern.offsets, 1, t), (N, K, 3))
        pts = T.add(T.reshape(centers, (N, 1, 3)), off_t)
        flat = T.reshape(pts, (N * K, 3))
        rel = invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[0]
        p_t = T.add(T.matmul(flat, rel[:3, :3].T.copy()), rel[:3, 3].copy())
        view_samples = []
        hit_masks = []
        for view in rig.views:
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
            hit_masks.append((z.data[:, 0] > 0.1) & (u.data[:, 0] >= 0.0)
                             & (u.data[:, 0] < W_img) & (w.data[:, 0] >= 0.0)
                             & (w.data[:, 0] < H_img))
            view_samples.append((u, w))
        inv_count = 1.0 / np.maximum(np.sum(np.stack(hit_masks), axis=0), 1)
        acc_t = None
        for v in range(len(rig.views)):
            if not hit_masks[v].any():
                continue
            u, w = view_samples[v]
            gate = (hit_masks[v] * inv_count)[:, None]
            for m in range(M):
                coords = T.mul(T.concat([u, w], axis=1), 1.0 / feats.strides[m])
                samp = T.bilinear_sample(packed_map(feats, feats.index(v, m, t)), coords)
                w_m = T.reshape(
                    _pattern_slice(T.narrow(pattern.weights, 1, t, 1), 2, m), (N, K)
                )
                term = T.mul(T.mul(samp, T.reshape(w_m, (N * K, 1))), gate)
                acc_t = term if acc_t is None else T.add(acc_t, term)
        if acc_t is None:
            acc_t = T.Tensor(np.zeros((N * K, feats.channels), dtype=centers.data.dtype))
        frame_rows.append(T.reshape(acc_t, (N, K, feats.channels)))
    return T.concat(frame_rows, axis=1)


def per_scale_sample_lidar(centers_xy, pattern, pyramid):
    """The LiDAR sampler as one graph per scale."""
    N = centers_xy.shape[0]
    K = pattern.offsets.shape[2]
    rng = pyramid.det_range
    base = T.reshape(centers_xy, (N, 1, 2))
    acc = None
    for r in range(pyramid.num_scales):
        rows, cols = pyramid.shapes[r]
        off_r = T.reshape(_pattern_slice(pattern.offsets, 1, r), (N, K, 2))
        shift = np.array([-rng.x_min, -rng.y_min])
        scale = np.array([cols / (rng.x_max - rng.x_min), rows / (rng.y_max - rng.y_min)])
        uv = T.mul(T.add(T.add(base, off_r), shift), scale)
        samp = T.bilinear_sample(packed_map(pyramid, r), uv)
        term = T.mul(samp, T.reshape(_pattern_slice(pattern.weights, 1, r), (N, K, 1)))
        acc = term if acc is None else T.add(acc, term)
    return acc


def _rows_and_gradients(sampler, centers, offsets, weights, *args):
    off = T.Tensor(offsets, requires_grad=True)
    w = T.Tensor(weights, requires_grad=True)
    rows = sampler(centers, SamplingPattern(off, w), *args)
    rows.backward(np.random.default_rng(0).normal(size=rows.shape))
    return rows.data, off.grad, w.grad


@pytest.mark.parametrize("pattern_dtype", [np.float64, np.float32])
class TestPackedReadsMatchPerGridLoops:
    # desk defaults with single-precision maps. Patterns are double when a
    # query feature comes from the default embedding and single when every
    # one comes from a map read; the gradients must come back in that dtype
    def _desk(self, scene_id, branch, pattern_dtype):
        cfg = RunConfig()
        scene = generate_scene(cfg.model, cfg.sim, scene_id)
        store = init_model_params(cfg.model, seed=scene_id)
        batch = generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                                 cfg.model, cfg.sim.oracle, store["query.default_embedding"],
                                 np.random.default_rng(scene_id))
        pat = predict_pattern(batch, store.group(f"layer0.{branch}"), branch, cfg.model)
        rng = np.random.default_rng(scene_id)
        # widened offsets spread the points over several views
        offsets = (pat.offsets.data * 4.0).astype(pattern_dtype)
        weights = (pat.weights.data * rng.uniform(0.5, 1.5, pat.weights.shape)).astype(
            pattern_dtype)
        return cfg, scene, batch, offsets, weights

    @staticmethod
    def _assert_same(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_camera_rows_and_gradients(self, pattern_dtype):
        multi_view_hits = 0
        for scene_id in range(3):
            cfg, scene, batch, offsets, weights = self._desk(scene_id, "camera", pattern_dtype)
            args = (batch.centers(), offsets, weights, scene.feature_set(cfg.model), scene.rig)
            self._assert_same(_rows_and_gradients(sample_camera, *args),
                              _rows_and_gradients(per_view_sample_camera, *args))
            centers = batch.centers().data
            multi_view_hits += sum(
                len(hit_views(centers[n] + offsets[n, t, k], scene.rig, t)) > 1
                for n in range(offsets.shape[0]) for t in range(offsets.shape[1])
                for k in range(offsets.shape[2])
            )
        # points read from two views check the order the terms are added in
        assert multi_view_hits > 0

    def test_lidar_rows_and_gradients(self, pattern_dtype):
        for scene_id in range(3):
            cfg, scene, batch, offsets, weights = self._desk(scene_id, "lidar", pattern_dtype)
            args = (batch.centers_xy(), offsets, weights, scene.lidar_pyramid(cfg.model))
            self._assert_same(_rows_and_gradients(sample_lidar, *args),
                              _rows_and_gradients(per_scale_sample_lidar, *args))

# ---------------------------------------------------------------------------
# the row-wide box geometry gives the per-column chains' numbers bit for bit
# ---------------------------------------------------------------------------


def per_column_predict_pattern(batch, params, branch, cfg):
    """``predict_pattern`` with the yaw rotation written column by column:
    x and y narrowed, rotated by four products, joined back with z."""
    if branch == "lidar":
        G, M, dims = cfg.num_lidar_scales, 1, 2
    else:
        G, M, dims = cfg.num_frames, cfg.num_cam_scales, 3
    K = cfg.num_points
    features = batch.features
    N = features.shape[0]
    raw = T.linear(features, params.offset_w, params.offset_b)
    local = T.reshape(T.mul(T.tanh(raw), cfg.max_offset_factor), (N, G, K, dims))
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
        offsets = T.concat([wx, wy, T.narrow(scaled, 3, 2, 1)], axis=3)
    raw_w = T.linear(features, params.weight_w, params.weight_b)
    if branch == "lidar":
        weights = T.reshape(T.softmax(raw_w, axis=-1), (N, G, K))
    else:
        per_frame = T.reshape(raw_w, (N, G, M * K))
        weights = T.reshape(T.softmax(per_frame, axis=-1), (N, G, M, K))
    return SamplingPattern(offsets=offsets, weights=weights)


def per_column_sample_camera(centers, pattern, feats, rig):
    """``sample_camera`` with the pinhole projection written column by
    column: u and w each divided, scaled and shifted, then joined."""
    N, Tt, K, _ = pattern.offsets.shape
    M, V, C = feats.num_scales, len(rig.views), feats.channels
    P = N * K
    pts = T.add(T.reshape(centers, (N, 1, 1, 3)), pattern.offsets)
    pts = T.reshape(T.transpose(T.astype(pts, np.float64), (1, 0, 2, 3)), (Tt, P, 3))
    rel = np.stack([invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[0] for t in range(Tt)])
    p_t = T.add(T.matmul(pts, np.swapaxes(rel[:, :3, :3], 1, 2).copy()),
                rel[:, None, :3, 3].copy())
    ext = np.stack([view.extrinsics for view in rig.views])
    p_cam = T.add(T.matmul(T.reshape(p_t, (Tt, 1, P, 3)),
                           np.swapaxes(ext[:, :3, :3], 1, 2).copy()),
                  ext[:, None, :3, 3].copy())
    x = T.narrow(p_cam, 3, 0, 1)
    y = T.narrow(p_cam, 3, 1, 1)
    z = T.narrow(p_cam, 3, 2, 1)
    z_safe = T.clamp_min(z, DEPTH_FLOOR)
    intr = np.stack([view.intrinsics for view in rig.views]).reshape(1, V, 3, 3)
    u = T.add(T.mul(T.div(x, z_safe), intr[:, :, 0:1, 0:1]), intr[:, :, 0:1, 2:3])
    w = T.add(T.mul(T.div(y, z_safe), intr[:, :, 1:2, 1:2]), intr[:, :, 1:2, 2:3])
    size = np.array([view.image_size for view in rig.views]).reshape(1, V, 1, 2)
    hit = ((z.data > DEPTH_FLOOR) & (u.data >= 0.0) & (u.data < size[..., 0:1])
           & (w.data >= 0.0) & (w.data < size[..., 1:2]))[..., 0]
    t_h, v_h, p_h = np.nonzero(hit)
    if t_h.size == 0:
        return T.Tensor(np.zeros((N, Tt * K, C), dtype=centers.data.dtype))
    inv_count = 1.0 / np.maximum(hit.sum(axis=1), 1)
    m_r = np.tile(np.arange(M), t_h.size)
    t_r, v_r, p_r = (np.repeat(a, M) for a in (t_h, v_h, p_h))
    uw = T.reshape(T.concat([u, w], axis=3), (Tt * V * P, 2))
    inv_stride = 1.0 / np.asarray(feats.strides)
    coords = T.mul(T.gather_rows(uw, (t_r * V + v_r) * P + p_r), inv_stride[m_r][:, None])
    samp = feats.sample(feats.index(v_r, m_r, t_r), coords)
    n_r, k_r = p_r // K, p_r % K
    w_rows = T.gather_rows(T.reshape(pattern.weights, (-1, 1)),
                           ((n_r * Tt + t_r) * M + m_r) * K + k_r)
    term = T.mul(T.mul(samp, T.astype(w_rows, samp.dtype)), inv_count[t_r, p_r][:, None])
    rows = T.scatter_add_rows(term, (n_r * Tt + t_r) * K + k_r, N * Tt * K)
    return T.reshape(rows, (N, Tt * K, C))


@pytest.mark.parametrize("precision", ["single", "double"])
class TestRowWideGeometryMatchesPerColumnChains:
    # desk scenes; the features, the box state and the branch's heads all
    # get their gradients bit for bit, in their own dtypes

    @pytest.mark.parametrize("branch", ["lidar", "camera"])
    def test_predict_pattern(self, precision, branch):
        for scene_id in DESK_SCENES:
            model, _, store, batch = desk_queries(scene_id, precision)
            params = store.group(f"layer0.{branch}")
            leaves = [batch.features, batch.box_state, *vars(params).values()]

            def run(predict):
                def fn():
                    pat = predict(batch, params, branch, model)
                    return [pat.offsets, pat.weights]
                return outputs_and_grads(fn, leaves, scene_id)

            assert_same(run(predict_pattern), run(per_column_predict_pattern))

    def test_sample_camera(self, precision):
        for scene_id in DESK_SCENES:
            model, scene, store, batch = desk_queries(scene_id, precision)
            params = store.group("layer0.camera")
            maps = {key: T.Tensor(grid, requires_grad=True)
                    for key, grid in scene.cam_maps.items()}
            feats = CameraFeatureSet(maps, model.num_views, model.num_cam_scales,
                                     model.num_frames, scene.cam_set.strides)
            leaves = [batch.features, batch.box_state, *vars(params).values(), *maps.values()]

            def run(sample):
                def fn():
                    pat = predict_pattern(batch, params, "camera", model)
                    return [sample(batch.centers(), pat, feats, scene.rig)]
                return outputs_and_grads(fn, leaves, scene_id)

            assert_same(run(sample_camera), run(per_column_sample_camera))


class TestGradsuiteMapCoverage:
    # (builder, indices of its map inputs, fewest map elements FD must probe)
    CASES = [
        ("sample_camera", [3, 4], 40),
        ("sample_lidar", [3, 4], 40),
        ("bilinear_sample_packed", [0], 40),
        ("compute_loss", [2, 3], 12),
    ]

    @pytest.mark.parametrize("name,maps,probes", CASES)
    def test_maps_get_analytic_gradients(self, name, maps, probes):
        rng = np.random.default_rng(np.random.SeedSequence([0, 23, 0]))
        fn, inputs = gradsuite.BUILDERS[name](rng)
        for t in inputs:
            t.requires_grad = True
        T.sum_(fn(inputs)).backward()
        cap = gradsuite.ELEMENT_CAPS.get(name)
        # maps no point reads get none, but the reads reach some map
        assert any(inputs[i].grad is not None and np.any(inputs[i].grad != 0.0)
                   for i in maps)
        for i in maps:
            assert min(inputs[i].size, cap or inputs[i].size) >= probes


# ---------------------------------------------------------------------------
# pattern prediction
# ---------------------------------------------------------------------------


def _mini_cfg(**kw):
    base = dict(
        channels=8, num_queries=4, num_top=2, num_random=2, num_points=4,
        num_layers=1, num_cam_scales=2, num_lidar_scales=2, num_frames=2,
        num_views=2, num_classes=2, range_xy=[-12.0, 12.0], range_z=[-2.0, 2.0],
        precision="double",
    )
    base.update(kw)
    return ModelSection(**base)


def _batch(rng, cfg, n):
    boxes = [
        Box3D(rng.uniform(-8, 8, 3), rng.uniform(0.5, 4, 3),
              rng.uniform(-math.pi, math.pi), rng.normal(0, 1, 2))
        for _ in range(n)
    ]
    feats = T.Tensor(rng.normal(size=(n, cfg.channels)), dtype=np.float64)
    return QueryBatch(feats, T.Tensor(boxes_to_state(BoxArray.stack(boxes)), dtype=np.float64))


class TestPredictPattern:
    def test_zero_init_offsets_on_ring(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        batch = _batch(rng, cfg, 3)
        pp = store.group("layer0.lidar")
        pat = predict_pattern(batch, pp, "lidar", cfg)
        # zero weights => offsets depend only on the ring bias: |Delta| = 0.5 *
        # half-extent in the box plane
        half = batch.half_extents().data
        offs = pat.offsets.data
        for n in range(3):
            for r in range(cfg.num_lidar_scales):
                for k in range(cfg.num_points):
                    local = rot_z(-math.atan2(batch.box_state.data[n, 6],
                                              batch.box_state.data[n, 7]))[:2, :2] @ offs[n, r, k]
                    expected_r = 0.5 * np.array([half[n, 0], half[n, 1]])
                    ang = 2 * math.pi * k / cfg.num_points
                    np.testing.assert_allclose(
                        local, expected_r * np.array([math.cos(ang), math.sin(ang)]),
                        atol=1e-9,
                    )

    def test_uniform_weights_at_init(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        batch = _batch(rng, cfg, 2)
        pat = predict_pattern(batch, store.group("layer0.lidar"), "lidar", cfg)
        R, K = cfg.num_lidar_scales, cfg.num_points
        np.testing.assert_allclose(pat.weights.data, 1.0 / (R * K), atol=1e-12)

    def test_weight_groups_sum_to_one(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(2)
        for name, t in store.items():
            if name.endswith("weight_w"):
                t.data = rng.normal(size=t.data.shape)
        batch = _batch(rng, cfg, 5)
        lid = predict_pattern(batch, store.group("layer0.lidar"), "lidar", cfg)
        np.testing.assert_allclose(lid.weights.data.sum(axis=(1, 2)), 1.0, atol=1e-6)
        cam = predict_pattern(batch, store.group("layer0.camera"), "camera", cfg)
        np.testing.assert_allclose(cam.weights.data.sum(axis=(2, 3)), 1.0, atol=1e-6)

    def test_offsets_bounded_by_half_extents_times_factor(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(3)
        for name, t in store.items():
            if "offset" in name:
                t.data = rng.normal(0, 5, size=t.data.shape)
        batch = _batch(rng, cfg, 6)
        pat = predict_pattern(batch, store.group("layer0.lidar"), "lidar", cfg)
        half = batch.half_extents().data
        bound = cfg.max_offset_factor * np.linalg.norm(half[:, :2], axis=1)
        norms = np.linalg.norm(pat.offsets.data, axis=3)
        assert np.all(norms <= bound[:, None, None] + 1e-9)


# ---------------------------------------------------------------------------
# closed-form sampling checks
# ---------------------------------------------------------------------------


class TestClosedForm:
    def test_lidar_constant_maps(self):
        # every row equals const * (sum of that row's weights across scales)
        det = DetectionRange(-12, 12, -12, 12, -2, 2)
        rng = np.random.default_rng(5)
        N, R, K, C = 3, 2, 4, 2
        consts = [1.5, -0.75]
        grids = [np.full((8, 8, C), c) for c in consts]
        pyramid = LidarFeaturePyramid(grids, det)
        centers = rng.uniform(-4, 4, size=(N, 2))
        offsets = rng.normal(0, 1, size=(N, R, K, 2))
        weights = _normalized_weights(rng, (N, R, K), (1, 2))
        out = sample_lidar(
            T.Tensor(centers, dtype=np.float64),
            SamplingPattern(T.Tensor(offsets, dtype=np.float64),
                            T.Tensor(weights, dtype=np.float64)),
            pyramid,
        ).data
        want = np.zeros((N, K, C))
        for r, c in enumerate(consts):
            want += weights[:, r, :, None] * c
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_lidar_single_scale_unit_weight(self):
        det = DetectionRange(-12, 12, -12, 12, -2, 2)
        rng = np.random.default_rng(6)
        grid = rng.normal(size=(8, 8, 3))
        pyramid = LidarFeaturePyramid([grid], det)
        center = np.array([[2.0, -3.0]])
        offsets = np.zeros((1, 1, 1, 2))
        weights = np.ones((1, 1, 1))
        out = sample_lidar(
            T.Tensor(center, dtype=np.float64),
            SamplingPattern(T.Tensor(offsets, dtype=np.float64),
                            T.Tensor(weights, dtype=np.float64)),
            pyramid,
        ).data
        u = (2.0 + 12) / 24 * 8
        v = (-3.0 + 12) / 24 * 8
        np.testing.assert_allclose(out[0, 0], ref_bilinear(grid, u, v), atol=1e-12)

    def test_camera_zero_offsets_one_view_constant(self):
        # T=1, one hit view, constant maps: row = const * sum_m sigma[m, k]
        rng = np.random.default_rng(7)
        V, M, Tt, K, C = 1, 2, 1, 3, 2
        rig = _random_rig(rng, V, Tt)
        consts = [2.0, 0.5]
        grids = {
            (0, m, 0): np.full((24, 32, C), consts[m]) for m in range(M)
        }
        feats = CameraFeatureSet(grids, V, M, Tt, [2.0, 4.0])
        # a point squarely inside view 0's frustum
        fwd = np.linalg.inv(rig.views[0].extrinsics)[:3, 2]
        center = (np.linalg.inv(rig.views[0].extrinsics)[:3, 3] + fwd * 10.0)[None, :]
        offsets = np.zeros((1, Tt, K, 3))
        weights = _normalized_weights(rng, (1, Tt, M, K), (2, 3))
        out = sample_camera(
            T.Tensor(center, dtype=np.float64),
            SamplingPattern(T.Tensor(offsets, dtype=np.float64),
                            T.Tensor(weights, dtype=np.float64)),
            feats, rig,
        ).data
        want = (weights[0, 0, 0, :, None] * consts[0] + weights[0, 0, 1, :, None] * consts[1])
        np.testing.assert_allclose(out[0], np.broadcast_to(want, (K, C)), atol=1e-12)

    def test_camera_out_of_frustum_zero_row(self):
        rng = np.random.default_rng(8)
        rig = _random_rig(rng, 1, 1)
        grids = {(0, 0, 0): rng.normal(size=(24, 32, 2))}
        feats = CameraFeatureSet(grids, 1, 1, 1, [2.0])
        # far behind the single camera
        fwd = np.linalg.inv(rig.views[0].extrinsics)[:3, 2]
        center = (-fwd * 50.0)[None, :]
        out = sample_camera(
            T.Tensor(center, dtype=np.float64),
            SamplingPattern(T.Tensor(np.zeros((1, 1, 2, 3)), dtype=np.float64),
                            T.Tensor(np.full((1, 1, 1, 2), 0.5), dtype=np.float64)),
            feats, rig,
        ).data
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_identical_hit_sets_give_identical_rows(self):
        # zero offsets + constant maps + identical ego poses: frames agree
        rng = np.random.default_rng(9)
        V, M, Tt, K, C = 2, 1, 2, 2, 2
        K_mat = np.array([[50.0, 0, 32.0], [0, 50.0, 24.0], [0, 0, 1.0]])
        views = []
        for v in range(V):
            ang = math.pi * v
            fwd = np.array([math.cos(ang), math.sin(ang), 0.0])
            right = np.array([math.sin(ang), -math.cos(ang), 0.0])
            R = np.stack([right, [0, 0, -1], fwd], axis=0)
            views.append(CameraView(K_mat, make_rigid(R, [0, 0, 1.5]), (64, 48)))
        rig = CameraRig(views, [np.eye(4), np.eye(4)])
        grids = {
            (v, 0, t): np.full((24, 32, C), 3.0) for v in range(V) for t in range(Tt)
        }
        feats = CameraFeatureSet(grids, V, 1, Tt, [2.0])
        center = np.array([[8.0, 0.0, 0.5]])
        weights = _normalized_weights(rng, (1, Tt, 1, K), (2, 3))
        weights[0, 1] = weights[0, 0]
        out = sample_camera(
            T.Tensor(center, dtype=np.float64),
            SamplingPattern(T.Tensor(np.zeros((1, Tt, K, 3)), dtype=np.float64),
                            T.Tensor(weights, dtype=np.float64)),
            feats, rig,
        ).data
        np.testing.assert_allclose(out[0, :K], out[0, K:], atol=1e-12)


class TestRigProjectionConstants:
    @staticmethod
    def _sample(rig):
        rng = np.random.default_rng(0)
        V, Tt, K = rig.num_views, rig.num_frames, 2
        feats = CameraFeatureSet({(v, 0, t): rng.normal(size=(24, 32, 2))
                                  for v in range(V) for t in range(Tt)}, V, 1, Tt, [2.0])
        pattern = SamplingPattern(T.Tensor(rng.normal(size=(2, Tt, K, 3))),
                                  T.Tensor(_normalized_weights(rng, (2, Tt, 1, K), (2, 3))))
        centers = T.Tensor(np.array([[8.0, 0.0, 0.5], [0.0, 6.0, 0.3]]))
        return sample_camera(centers, pattern, feats, rig).data

    def test_built_once_per_rig(self, monkeypatch):
        rig = _random_rig(np.random.default_rng(4), 3, 2)
        calls = []
        invert = geometry.invert_rigid
        monkeypatch.setattr(geometry, "invert_rigid", lambda pose: calls.append(1) or invert(pose))
        first = self._sample(rig)
        assert len(calls) == rig.num_frames
        assert np.array_equal(self._sample(rig), first) and len(calls) == rig.num_frames
        assert np.count_nonzero(first) > 0

    def test_read_only(self):
        rig = _random_rig(np.random.default_rng(4), 3, 2)
        for a in rig.projection:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_from_dict_and_replace_get_their_own(self):
        rig = _random_rig(np.random.default_rng(4), 3, 2)
        first = self._sample(rig)
        d = rig.to_dict()  # a rig rebuilt from its stored form
        copy = CameraRig([CameraView(**v) for v in d["views"]], d["ego_poses"])
        still = dataclasses.replace(rig, ego_poses=[np.eye(4), np.eye(4)])
        for other in (copy, still):
            assert "projection" not in vars(other)
            assert other.projection is not rig.projection
        assert all(np.array_equal(a, b) for a, b in zip(copy.projection, rig.projection))
        assert np.array_equal(self._sample(copy), first)
        assert np.count_nonzero(still.projection.align_shift) == 0
        assert np.count_nonzero(rig.projection.align_shift) > 0

    def test_more_frames_than_the_rig_errors(self):
        rig = _random_rig(np.random.default_rng(4), 1, 1)
        feats = CameraFeatureSet({(0, 0, t): np.ones((24, 32, 2)) for t in range(2)},
                                 1, 1, 2, [2.0])
        pattern = SamplingPattern(T.Tensor(np.zeros((1, 2, 2, 3))),
                                  T.Tensor(np.full((1, 2, 1, 2), 0.5)))
        with pytest.raises(geometry.GeometryError):
            sample_camera(T.Tensor(np.zeros((1, 3))), pattern, feats, rig)


# ---------------------------------------------------------------------------
# adaptive mixing
# ---------------------------------------------------------------------------


class TestAdaptiveMix:
    def test_identity_configuration_is_pure_residual(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(10)
        N, S, C = 3, cfg.num_points, cfg.channels
        qf = T.Tensor(rng.normal(size=(N, C)), dtype=np.float64)
        roi = T.Tensor(rng.normal(size=(N, S, C)), dtype=np.float64)
        out = adaptive_mix(qf, roi, store.group("layer0.lidar.mix"))
        want = T.layer_norm(qf, T.Tensor(np.ones(C)), T.Tensor(np.zeros(C))).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_zero_roi_is_finite(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        rng = np.random.default_rng(11)
        for name, t in store.items():
            if ".mix." in name:
                t.data = t.data + rng.normal(0, 0.3, size=t.data.shape)
        qf = T.Tensor(rng.normal(size=(2, cfg.channels)), dtype=np.float64)
        roi = T.Tensor(np.zeros((2, cfg.num_points, cfg.channels)))
        out = adaptive_mix(qf, roi, store.group("layer0.lidar.mix"))
        assert np.all(np.isfinite(out.data))

    def test_shape_mismatch_errors(self):
        cfg = _mini_cfg()
        store = init_model_params(cfg, seed=0)
        qf = T.Tensor(np.zeros((2, cfg.channels)))
        roi = T.Tensor(np.zeros((2, cfg.num_points + 1, cfg.channels)))
        with pytest.raises(ValueError):
            adaptive_mix(qf, roi, store.group("layer0.lidar.mix"))

    def test_gradients(self):
        rng = np.random.default_rng(12)
        N, S, C = 2, 3, 4
        names = dict(
            chan_w=(C, C * C), chan_b=(C * C,), spat_w=(C, S * S), spat_b=(S * S,),
            ln_chan_gain=(C,), ln_chan_shift=(C,), ln_spat_gain=(S,), ln_spat_shift=(S,),
            agg_w=(S * C, C), agg_b=(C,), ln_out_gain=(C,), ln_out_shift=(C,),
        )
        params = {k: T.Tensor(rng.normal(0, 0.4, size=s), dtype=np.float64)
                  for k, s in names.items()}
        qf = T.Tensor(rng.normal(size=(N, C)), dtype=np.float64)
        roi_data = T.Tensor(rng.normal(size=(N, S, C)), dtype=np.float64)

        def fn(ins):
            return adaptive_mix(ins[0], ins[1], SimpleNamespace(**params))

        rep = T.grad_check(fn, [qf, roi_data])
        assert rep.passed


class TestFullBlockGradient:
    def test_pattern_sample_mix_chain(self):
        # the whole block in one closure: predict pattern from the query
        # feature, sample the pyramid, mix back into the query
        det = DetectionRange(-12, 12, -12, 12, -2, 2)
        for seed in range(10):
            rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
            N, R, K, C = 2, 2, 2, 4
            S = K
            pattern_cfg = ModelSection(channels=C, num_lidar_scales=R, num_points=K,
                                       max_offset_factor=2.0)
            grids = [T.Tensor(rng.normal(size=(8, 8, C)), dtype=np.float64)
                     for _ in range(R)]
            qf = T.Tensor(rng.normal(size=(N, C)), dtype=np.float64)
            state = T.Tensor(boxes_to_state(BoxArray.stack([
                Box3D(rng.uniform(-6, 6, 3), rng.uniform(0.8, 3, 3),
                      rng.uniform(-3, 3), rng.normal(0, 1, 2))
                for _ in range(N)])), dtype=np.float64)
            pp = {
                "offset_w": T.Tensor(rng.normal(0, 0.3, size=(C, R * K * 2)), dtype=np.float64),
                "offset_b": T.Tensor(rng.normal(0, 0.3, size=(R * K * 2,)), dtype=np.float64),
                "weight_w": T.Tensor(rng.normal(0, 0.3, size=(C, R * K)), dtype=np.float64),
                "weight_b": T.Tensor(np.zeros(R * K), dtype=np.float64),
            }
            mp = {
                "chan_w": T.Tensor(rng.normal(0, 0.3, size=(C, C * C)), dtype=np.float64),
                "chan_b": T.Tensor(np.eye(C).reshape(-1), dtype=np.float64),
                "spat_w": T.Tensor(rng.normal(0, 0.3, size=(C, S * S)), dtype=np.float64),
                "spat_b": T.Tensor(np.eye(S).reshape(-1), dtype=np.float64),
                "ln_chan_gain": T.Tensor(np.ones(C), dtype=np.float64),
                "ln_chan_shift": T.Tensor(np.zeros(C), dtype=np.float64),
                "ln_spat_gain": T.Tensor(np.ones(S), dtype=np.float64),
                "ln_spat_shift": T.Tensor(np.zeros(S), dtype=np.float64),
                "agg_w": T.Tensor(rng.normal(0, 0.3, size=(S * C, C)), dtype=np.float64),
                "agg_b": T.Tensor(np.zeros(C), dtype=np.float64),
                "ln_out_gain": T.Tensor(np.ones(C), dtype=np.float64),
                "ln_out_shift": T.Tensor(np.zeros(C), dtype=np.float64),
            }

            def fn(ins):
                qf_in, state_in = ins[0], ins[1]
                pat = predict_pattern(QueryBatch(qf_in, state_in), SimpleNamespace(**pp),
                                      "lidar", pattern_cfg)
                pyr = LidarFeaturePyramid(ins[2:4], det)
                roi = sample_lidar(T.narrow(state_in, 1, 0, 2), pat, pyr)
                return adaptive_mix(qf_in, roi, SimpleNamespace(**mp))

            with T.track_kinks() as tracker:
                with T.no_grad():
                    fn([qf, state, grids[0], grids[1]])
            if tracker.min_distance() < 1e-4:
                continue
            rep = T.grad_check(fn, [qf, state, grids[0], grids[1]],
                               max_elements_per_input=30,
                               rng=np.random.default_rng(seed))
            assert rep.passed, rep.max_rel_error
