"""Geometry: projections, temporal alignment, rotated IoU, NMS, all against
independent oracles (round trips, Monte-Carlo areas, brute-force greedy)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondet.geometry import (
    Box3D,
    BoxArray,
    CameraRig,
    CameraView,
    DetectionRange,
    GeometryError,
    align_temporal,
    bev_corners,
    bev_rotated_iou,
    invert_rigid,
    make_rigid,
    nms_3d,
    project_points,
    project_to_view,
    rot_z,
    unproject_center,
    wrap_angle,
)

K_SIMPLE = np.array([[100.0, 0.0, 100.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])


def _view(extr=None, size=(200, 100)):
    return CameraView(K_SIMPLE, np.eye(4) if extr is None else extr, size)


# ---------------------------------------------------------------------------
# unproject / project
# ---------------------------------------------------------------------------


class TestUnproject:
    def test_principal_point_ray(self):
        p = unproject_center(100.0, 50.0, 10.0, _view())
        np.testing.assert_allclose(p, [0.0, 0.0, 10.0], atol=1e-12)

    def test_translation_inverse(self):
        E = make_rigid(np.eye(3), [0.0, 0.0, -5.0])  # world -> camera
        p = unproject_center(100.0, 50.0, 10.0, _view(E))
        np.testing.assert_allclose(p, [0.0, 0.0, 15.0], atol=1e-12)

    def test_off_center_round_trip(self):
        p = unproject_center(150.0, 50.0, 2.0, _view())
        np.testing.assert_allclose(p, [1.0, 0.0, 2.0], atol=1e-12)
        u, v, d = project_to_view(p, _view())
        np.testing.assert_allclose([u, v, d], [150.0, 50.0, 2.0], atol=1e-12)

    def test_nonpositive_depth_errors(self):
        with pytest.raises(GeometryError):
            unproject_center(100.0, 50.0, 0.0, _view())

    def test_singular_intrinsics_errors(self):
        K = K_SIMPLE.copy()
        K[0, 0] = 0.0
        view = CameraView.__new__(CameraView)
        view.intrinsics = K
        view.extrinsics = np.eye(4)
        view.image_size = (200, 100)
        with pytest.raises(GeometryError):
            unproject_center(10.0, 10.0, 1.0, view)


class TestProject:
    def test_forward_point(self):
        np.testing.assert_allclose(
            project_to_view([0.0, 0.0, 10.0], _view()), (100.0, 50.0, 10.0)
        )

    def test_behind_camera_none(self):
        assert project_to_view([0.0, 0.0, -1.0], _view()) is None

    def test_outside_frame_none(self):
        # would project to u = 100 + 100*(x/z); pick x/z to exceed W
        assert project_to_view([2.1, 0.0, 2.0], _view()) is None

    def test_round_trip_property(self):
        rng = np.random.default_rng(0)
        view = _view()
        for _ in range(500):
            u = rng.uniform(0, 200)
            v = rng.uniform(0, 100)
            d = rng.uniform(0.2, 60.0)
            p = unproject_center(u, v, d, view)
            res = project_to_view(p, view)
            assert res is not None
            assert np.linalg.norm(unproject_center(*res, view) - p) < 1e-6


# ---------------------------------------------------------------------------
# hit views and BEV projection
# ---------------------------------------------------------------------------


def _azimuth_view(ang: float) -> CameraView:
    # camera at the origin looking along azimuth `ang` in the ground plane,
    # X-right / Y-down / Z-forward
    fwd = np.array([math.cos(ang), math.sin(ang), 0.0])
    right = np.array([math.sin(ang), -math.cos(ang), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    R_wc = np.stack([right, down, fwd], axis=0)
    return CameraView(K_SIMPLE, make_rigid(R_wc, [0.0, 0.0, 0.0]), (200, 100))


def _front_view():
    return _azimuth_view(0.0)


def hit_views(p, rig, t: int = 0) -> list:
    """Indices of views in which the (temporally aligned) point projects,
    from the batched hit mask."""
    _, hit = project_points(align_temporal(np.asarray(p, dtype=float)[None], rig, t),
                            rig.views)
    return np.flatnonzero(hit[:, 0]).tolist()


class TestHitViews:
    def test_single_forward_camera(self):
        rig = CameraRig([_front_view()], [np.eye(4)])
        assert hit_views([10.0, 0.0, 0.0], rig) == [0]
        proj = project_to_view([10.0, 0.0, 0.0], rig.views[0])
        assert proj is not None and abs(proj[0] - 100.0) < 1e-9

    def test_point_above_frusta(self):
        rig = CameraRig([_front_view()], [np.eye(4)])
        assert hit_views([1.0, 0.0, 50.0], rig) == []

    def test_overlapping_cameras(self):
        # views at azimuth 0 and 45 degrees; a point on the bisector is
        # 22.5 degrees off each axis, inside both 90-degree frusta
        rig = CameraRig([_azimuth_view(0.0), _azimuth_view(math.pi / 4)], [np.eye(4)])
        ang = math.pi / 8
        p = np.array([math.cos(ang), math.sin(ang), 0.0]) * 10.0
        assert hit_views(p, rig) == [0, 1]

    def test_batch_matches_one_point_projections(self):
        # every (view, point) entry of the batched projection is the lone
        # point's projection, bit for bit
        rng = np.random.default_rng(3)
        views = [_azimuth_view(a) for a in (0.0, 0.8, 2.0, -2.5)]
        points = np.column_stack([rng.uniform(-30, 30, (200, 2)), rng.uniform(-2, 2, 200)])
        uvz, hit = project_points(points, views)
        for v, view in enumerate(views):
            for n, p in enumerate(points):
                one = project_to_view(p, view)
                assert hit[v, n] == (one is not None)
                if one is not None:
                    assert tuple(uvz[v, n]) == one


# ---------------------------------------------------------------------------
# temporal alignment
# ---------------------------------------------------------------------------


class TestAlignTemporal:
    def test_identity_motion(self):
        rig = CameraRig([_view()], [np.eye(4), np.eye(4)])
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(align_temporal(p, rig, 1), p)

    def test_translation_by_hand(self):
        # ego was 2 m behind at the past frame: ego(1) = translate(-2, 0, 0).
        # A point at world x=5 sits 7 m ahead of the past ego position.
        rig = CameraRig([_view()], [np.eye(4), make_rigid(np.eye(3), [-2.0, 0.0, 0.0])])
        p1 = align_temporal([5.0, 0.0, 0.0], rig, 1)
        np.testing.assert_allclose(p1, [7.0, 0.0, 0.0], atol=1e-12)

    def test_pure_yaw_rotation(self):
        rig = CameraRig([_view()], [np.eye(4), make_rigid(rot_z(math.pi / 2), [0, 0, 0])])
        p = np.array([3.0, 4.0, 1.0])
        p1 = align_temporal(p, rig, 1)
        # rotating the frame by +90deg spins coordinates by -90deg
        np.testing.assert_allclose(p1, rot_z(-math.pi / 2) @ p, atol=1e-12)
        assert abs(np.linalg.norm(p1) - np.linalg.norm(p)) < 1e-12

    def test_round_trip_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pose1 = make_rigid(rot_z(rng.uniform(-3, 3)), rng.normal(size=3))
            rig = CameraRig([_view()], [np.eye(4), pose1])
            p = rng.normal(size=3) * 10
            p_past = align_temporal(p, rig, 1, current=0)
            p_back = align_temporal(p_past, rig, 0, current=1)
            assert np.linalg.norm(p_back - p) < 1e-9


# ---------------------------------------------------------------------------
# rotated BEV IoU against a Monte-Carlo oracle
# ---------------------------------------------------------------------------


def _mc_iou(a: Box3D, b: Box3D, n=100_000, seed=0) -> float:
    """Independent area-sampling estimate of the BEV IoU."""
    rng = np.random.default_rng(seed)
    corners = np.vstack([a.bev_corners(), b.bev_corners()])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box, p):
        d = p - box.center[:2]
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        local = np.column_stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1]])
        return (np.abs(local[:, 0]) <= box.size[0] / 2) & (
            np.abs(local[:, 1]) <= box.size[1] / 2
        )

    in_a = inside(a, pts)
    in_b = inside(b, pts)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def _box(x, y, l=1.0, w=1.0, yaw=0.0, score=1.0, cls=0):
    return Box3D([x, y, 0.0], [l, w, 1.0], yaw, [0.0, 0.0], cls, score)


class TestRotatedIoU:
    def test_identical(self):
        b = _box(1.0, 2.0, 4.0, 2.0, 0.7)
        assert bev_rotated_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bev_rotated_iou(_box(0, 0), _box(100, 0)) == 0.0

    def test_unit_squares_offset(self):
        # overlap 0.5, union 1.5
        assert bev_rotated_iou(_box(0, 0), _box(0.5, 0)) == pytest.approx(1 / 3)
        assert _mc_iou(_box(0, 0), _box(0.5, 0)) == pytest.approx(1 / 3, abs=0.01)

    def test_matches_monte_carlo_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for i in range(60):
            a = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4),
                     rng.uniform(0.5, 4), rng.uniform(-math.pi, math.pi))
            b = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4),
                     rng.uniform(0.5, 4), rng.uniform(-math.pi, math.pi))
            assert bev_rotated_iou(a, b) == pytest.approx(_mc_iou(a, b, seed=i), abs=0.01)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3),
                     rng.uniform(0.5, 3), rng.uniform(-math.pi, math.pi))
            b = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3),
                     rng.uniform(0.5, 3), rng.uniform(-math.pi, math.pi))
            ab = bev_rotated_iou(a, b)
            ba = bev_rotated_iou(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= 1.0


# ---------------------------------------------------------------------------
# NMS against a brute-force reference
# ---------------------------------------------------------------------------


def _brute_force_nms(boxes, thr):
    """Independent O(n^2) greedy reference."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    for i in order:
        if all(bev_rotated_iou(boxes[i], boxes[j]) <= thr for j in kept):
            kept.append(i)
    return kept


class TestNms:
    def test_identical_boxes_keep_higher_score(self):
        boxes = [_box(0, 0, score=0.9), _box(0, 0, score=0.8)]
        assert nms_3d(BoxArray.stack(boxes), 0.5) == [0]
        assert nms_3d(BoxArray.stack(boxes[::-1]), 0.5) == [1]
        assert nms_3d(BoxArray.stack([]), 0.5) == []

    def test_disjoint_keep_all(self):
        boxes = [_box(0, 0, score=0.5), _box(10, 0, score=0.9), _box(0, 10, score=0.7)]
        assert sorted(nms_3d(BoxArray.stack(boxes), 0.5)) == [0, 1, 2]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 51))
            boxes = [
                _box(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.5, 5),
                     rng.uniform(0.5, 5), rng.uniform(-math.pi, math.pi),
                     score=float(rng.uniform(0, 1)))
                for _ in range(n)
            ]
            assert nms_3d(BoxArray.stack(boxes), 0.5) == _brute_force_nms(boxes, 0.5)
        # dense clusters: most pairs pass the circumcircle filter, many are
        # suppressed, and scores tie
        near_pairs = suppressed = 0
        for _ in range(20):
            centers = rng.uniform(-6, 6, (int(rng.integers(1, 5)), 2))
            boxes = []
            for _ in range(int(rng.integers(2, 41))):
                cx, cy = centers[rng.integers(len(centers))] + rng.normal(0, 0.4, 2)
                boxes.append(_box(cx, cy, rng.uniform(0.5, 4.5), rng.uniform(0.5, 2.5),
                                  rng.uniform(-math.pi, math.pi),
                                  score=float(rng.integers(0, 8)) / 8))
            for thr in (0.1, 0.5, 0.8):
                kept = nms_3d(BoxArray.stack(boxes), thr)
                assert kept == _brute_force_nms(boxes, thr)
                suppressed += len(boxes) - len(kept)
            xy = np.array([b.center[:2] for b in boxes])
            r = np.array([0.5 * math.hypot(b.size[0], b.size[1]) for b in boxes])
            gap = np.linalg.norm(xy[:, None] - xy[None], axis=-1)
            near_pairs += int(np.sum(np.triu(gap < r[:, None] + r[None], k=1)))
        assert near_pairs > 500 and suppressed > 100

    def test_input_order_invariance(self):
        rng = np.random.default_rng(19)
        boxes = [
            _box(rng.uniform(-5, 5), rng.uniform(-5, 5), 2, 2,
                 rng.uniform(-math.pi, math.pi), score=float(rng.uniform(0, 1)))
            for _ in range(20)
        ]
        perm = rng.permutation(20)
        shuffled = [boxes[i] for i in perm]
        kept_orig = set(nms_3d(BoxArray.stack(boxes), 0.5))
        kept_perm = {int(perm[i]) for i in nms_3d(BoxArray.stack(shuffled), 0.5)}
        assert kept_orig == kept_perm


_coord = st.floats(-20.0, 20.0)
_extent = st.floats(0.05, 8.0)
_angle = st.floats(-math.pi, math.pi)


@settings(max_examples=400, deadline=None)
@given(_coord, _coord, _extent, _extent, _angle, _angle, _extent, _extent, _angle,
       st.floats(0.0, 10.0))
def test_disjoint_circumcircles_have_zero_iou(x, y, la, wa, yaw_a, direction, lb, wb, yaw_b,
                                              extra):
    # box b's center sits at least r_a + r_b from a's, with r = hypot(l, w) / 2:
    # the footprints share no area, which is why nms_3d skips such pairs
    a = _box(x, y, la, wa, yaw_a)
    dist = 0.5 * (math.hypot(la, wa) + math.hypot(lb, wb)) + extra
    b = _box(x + dist * math.cos(direction), y + dist * math.sin(direction), lb, wb, yaw_b)
    r_a, r_b = 0.5 * math.hypot(la, wa), 0.5 * math.hypot(lb, wb)
    if math.hypot(b.center[0] - x, b.center[1] - y) >= r_a + r_b:
        assert bev_rotated_iou(a, b) == 0.0
        assert bev_rotated_iou(b, a) == 0.0


def test_box_array_corners_match_box3d():
    rng = np.random.default_rng(29)
    boxes = [Box3D(rng.normal(0, 10, 3), rng.uniform(0.2, 5, 3), rng.uniform(-4, 4))
             for _ in range(50)]
    array = BoxArray.stack(boxes)
    for c, b in zip(bev_corners(array.center, array.size, array.yaw), boxes):
        assert np.array_equal(c, b.bev_corners())



def test_box_array_is_a_sequence_of_box3d_rows():
    rng = np.random.default_rng(31)
    boxes = [Box3D(rng.normal(0, 10, 3), rng.uniform(0.2, 5, 3), rng.uniform(-4, 4),
                   rng.normal(0, 1, 2), class_id=int(rng.integers(0, 3)),
                   score=float(rng.uniform()))
             for _ in range(20)]
    array = BoxArray.stack(boxes)
    assert len(array) == 20
    assert [b.to_dict() for b in array] == [b.to_dict() for b in boxes]
    assert array[-1].to_dict() == boxes[-1].to_dict()
    assert BoxArray.stack(list(array)).center.tobytes() == array.center.tobytes()
    row = array[3]
    row.center[0] += 1.0  # a row is a copy: the array stays read-only
    assert array.center[3, 0] == boxes[3].center[0]
    assert len(BoxArray.stack([])) == 0 and list(BoxArray.stack([])) == []

# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_box_yaw_normalized():
    b = _box(0, 0, yaw=3 * math.pi)
    assert -math.pi < b.yaw <= math.pi
    assert b.yaw == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


@settings(max_examples=2000, deadline=None)
@given(st.floats(-1e3, 1e3))
def test_wrap_angle_is_idempotent(a):
    # rebuilding a box from a wrapped yaw keeps its bits, so query generation
    # wraps each yaw once where Box3D copies used to wrap it again
    assert wrap_angle(wrap_angle(a)) == wrap_angle(a)


def test_box_positive_sizes_enforced():
    with pytest.raises(GeometryError):
        Box3D([0, 0, 0], [1.0, 0.0, 1.0], 0.0)


def test_camera_view_validates_rotation():
    bad = np.eye(4)
    bad[:3, :3] *= 2.0
    with pytest.raises(GeometryError):
        CameraView(K_SIMPLE, bad, (10, 10))


def test_detection_range_validates():
    with pytest.raises(GeometryError):
        DetectionRange(1, -1, 0, 1, 0, 1)


def test_rigid_inverse():
    rng = np.random.default_rng(23)
    T0 = make_rigid(rot_z(rng.uniform(-3, 3)), rng.normal(size=3))
    np.testing.assert_allclose(invert_rigid(T0) @ T0, np.eye(4), atol=1e-12)
