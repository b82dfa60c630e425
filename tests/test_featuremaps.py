"""Feature grids and bilinear sampling: boundary behavior, linearity,
packing, view-mean/scale-sum aggregation."""

import math

import numpy as np
import pytest

from fusiondet import tensor as T
from fusiondet.featuremaps import (
    CameraFeatureSet,
    FeatureMapError,
    LidarFeaturePyramid,
    sample_view_scale_mean,
)
from fusiondet.geometry import (
    CameraRig,
    CameraView,
    DetectionRange,
    make_rigid,
    project_to_view,
)


def _map(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr[:, :, None] if arr.ndim == 2 else arr


class TestBilinear:
    def test_exact_texel_center(self):
        fm = _map([[0.0, 1.0], [2.0, 3.0]])
        out = T.bilinear_sample(fm, T.Tensor([0.5, 0.5], dtype=np.float64))
        np.testing.assert_allclose(out.data, [0.0])

    def test_four_texel_mean(self):
        fm = _map([[0.0, 1.0], [2.0, 3.0]])
        out = T.bilinear_sample(fm, T.Tensor([1.0, 1.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [1.5])

    def test_zero_padding(self):
        fm = _map([[0.0, 1.0], [2.0, 3.0]])
        out = T.bilinear_sample(fm, T.Tensor([-3.0, -3.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [0.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 5, 3))
        B = rng.normal(size=(6, 5, 3))
        alpha, beta = 0.37, -1.21
        coords = T.Tensor(rng.uniform(-1, 7, size=(50, 2)), dtype=np.float64)
        lhs = T.bilinear_sample(_map(alpha * A + beta * B), coords).data
        rhs = (
            alpha * T.bilinear_sample(_map(A), coords).data
            + beta * T.bilinear_sample(_map(B), coords).data
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_constant_map_interior(self):
        fm = _map(np.full((8, 9), 2.75))
        rng = np.random.default_rng(1)
        coords = T.Tensor(
            np.column_stack([rng.uniform(0.5, 8.5, 30), rng.uniform(0.5, 7.5, 30)]),
            dtype=np.float64,
        )
        out = T.bilinear_sample(fm, coords)
        np.testing.assert_allclose(out.data, 2.75, atol=1e-12)

    def test_gradients_away_from_lattice(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            r = np.random.default_rng(seed)
            grid = T.Tensor(r.normal(size=(5, 6, 2)), dtype=np.float64)
            c = r.uniform(0.7, 4.2, size=(6, 2))
            frac = c - np.floor(c)
            c = np.where(np.abs(frac - 0.5) < 1e-3, c + 0.005, c)
            rep = T.grad_check(
                lambda ins: T.bilinear_sample(ins[0], ins[1]),
                [grid, T.Tensor(c, dtype=np.float64)],
            )
            assert rep.passed


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def _const_set(values_per_view, M=1, Tt=1, C=1):
    maps = {}
    V = len(values_per_view)
    for v, val in enumerate(values_per_view):
        for m in range(M):
            for t in range(Tt):
                if np.ndim(val) > 0:
                    const = np.asarray(val[m], dtype=float)
                else:
                    const = val
                maps[(v, m, t)] = np.full((10, 20, C), const, dtype=np.float64)
    return CameraFeatureSet(maps, V, M, Tt, [10.0 * 2 ** m for m in range(M)])


def _rig(num_views=1):
    K = np.array([[100.0, 0.0, 100.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
    views = []
    for v in range(num_views):
        ang = 2 * math.pi * v / max(num_views, 1)
        fwd = np.array([math.cos(ang), math.sin(ang), 0.0])
        right = np.array([math.sin(ang), -math.cos(ang), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        R = np.stack([right, down, fwd], axis=0)
        views.append(CameraView(K, make_rigid(R, [0, 0, 0]), (200, 100)))
    return CameraRig(views, [np.eye(4)])


class TestContainers:
    def test_missing_map_rejected(self):
        with pytest.raises(FeatureMapError):
            CameraFeatureSet({}, 1, 1, 1, [8.0])

    def test_pyramid_channel_consistency(self):
        det = DetectionRange(-10, 10, -10, 10, -2, 2)
        with pytest.raises(FeatureMapError):
            LidarFeaturePyramid(
                [_map(np.zeros((4, 4))), np.zeros((2, 2, 3))],
                det,
            )


    def test_map_must_be_h_w_c(self):
        with pytest.raises(FeatureMapError):
            CameraFeatureSet({(0, 0, 0): np.zeros((4, 4))}, 1, 1, 1, [8.0])


class TestPacking:
    def test_maps_are_packed_in_view_scale_frame_order(self):
        rng = np.random.default_rng(3)
        raw = {(v, m, 0): rng.normal(size=(6 // (m + 1), 8 // (m + 1), 2))
               for v in range(2) for m in range(2)}
        feats = CameraFeatureSet(raw, 2, 2, 1, [4.0, 8.0], dtype=np.float32)
        # the buffer holds the float64 maps rounded to the packing dtype
        assert feats.values.dtype == np.float32
        assert feats.channels == 2
        start = 0
        for v, m, t in sorted(raw):
            g = raw[(v, m, t)].astype(np.float32)
            i = feats.index(v, m, t)
            assert feats.shapes[i].tolist() == list(g.shape[:2]) and feats.starts[i] == start
            stop = start + g.shape[0] * g.shape[1]
            assert feats.values.data[start:stop].tobytes() == g.reshape(-1, 2).tobytes()
            view = feats.maps[(v, m, t)]
            assert view.tobytes() == g.tobytes() and not view.flags.writeable
            assert np.shares_memory(view, feats.values.data)
            start = stop
        assert feats.values.shape[0] == start
        # a read equals the read of a packing of float32-converted maps
        coords = rng.uniform(-1.0, 7.0, size=(50, 2))
        idx = np.arange(50) % 4
        ref = CameraFeatureSet({k: g.astype(np.float32) for k, g in raw.items()},
                               2, 2, 1, [4.0, 8.0])
        got, want = feats.sample(idx, coords), ref.sample(idx, coords)
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    def test_packing_dtype_is_the_buffer_dtype(self):
        det = DetectionRange(-10, 10, -10, 10, -2, 2)
        grids = [np.full((4, 4, 3), 0.1), np.full((2, 2, 3), 0.1)]
        for dtype in (np.float32, np.float64):
            pyr = LidarFeaturePyramid(grids, det, dtype)
            assert pyr.values.dtype == dtype
            for r, g in enumerate(grids):
                assert pyr.maps[r].tobytes() == g.astype(dtype).tobytes()
                assert np.shares_memory(pyr.maps[r], pyr.values.data)
        # with no dtype given, the maps' common dtype
        mixed = LidarFeaturePyramid([grids[0].astype(np.float32), grids[1]], det)
        assert mixed.values.dtype == np.float64

    def test_pyramid_is_packed_in_scale_order(self):
        det = DetectionRange(-10, 10, -10, 10, -2, 2)
        grids = [np.arange(4 * 4 * 3.0).reshape(4, 4, 3), -np.ones((2, 2, 3))]
        pyr = LidarFeaturePyramid(grids, det)
        assert pyr.shapes.tolist() == [[4, 4], [2, 2]] and pyr.starts.tolist() == [0, 16]
        assert np.array_equal(pyr.values.data, np.concatenate([g.reshape(-1, 3) for g in grids]))
        assert pyr.num_scales == 2 and pyr.channels == 3


def _hits(points, rig):
    """(box, view, pixel) of every view each point projects into, in point
    then view order."""
    box, view, uv = [], [], []
    for i, p in enumerate(points):
        for v, cam in enumerate(rig.views):
            proj = project_to_view(p, cam)
            if proj is not None:
                box.append(i)
                view.append(v)
                uv.append(proj[:2])
    return box, view, uv


class TestSampleViewScaleMean:
    def test_single_view_constant(self):
        feats = _const_set([7.0])
        rig = _rig(1)
        out = sample_view_scale_mean(feats, *_hits([[10.0, 0.0, 0.0]], rig), 1)
        np.testing.assert_allclose(out.data, [[7.0]], atol=1e-12)

    def test_mean_over_two_views(self):
        feats = _const_set([3.0, 5.0], M=1)
        rig = _rig(2)
        # two coincident views both see the point, so the mean covers both
        rig2 = CameraRig([rig.views[0], rig.views[0]], [np.eye(4)])
        out = sample_view_scale_mean(feats, *_hits([[10.0, 0.0, 0.0]], rig2), 1)
        np.testing.assert_allclose(out.data, [[4.0]], atol=1e-12)

    def test_sum_over_scales(self):
        # Eq. style: scales are summed, views averaged
        feats = _const_set([[2.0, 0.5]], M=2)
        rig = _rig(1)
        out = sample_view_scale_mean(feats, *_hits([[10.0, 0.0, 0.0]], rig), 1)
        np.testing.assert_allclose(out.data, [[2.5]], atol=1e-12)

    def test_one_row_per_box_zero_where_unseen(self):
        feats = _const_set([[2.0, 0.5]], M=2)
        rig = _rig(1)
        # the middle point is behind the camera
        out = sample_view_scale_mean(
            feats, *_hits([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0], [20.0, 1.0, 0.0]], rig), 3)
        np.testing.assert_allclose(out.data, [[2.5], [0.0], [2.5]], atol=1e-12)

    def test_empty_hit_set_errors(self):
        feats = _const_set([1.0])
        with pytest.raises(FeatureMapError):
            sample_view_scale_mean(feats, [], [], np.zeros((0, 2)), 1)
