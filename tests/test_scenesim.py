"""Scene generation, LiDAR simulation, procedural features, failure scenarios,
and dataset serialization."""

import hashlib
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondet import scenesim, train
from fusiondet.classes import CLASS_INTENSITY, CLASS_MIX, CLUTTER_INTENSITY, NUM_CLASSES
from fusiondet.config import ModelSection, RunConfig, ScenarioSection, SimSection
from fusiondet.geometry import Box3D, BoxArray, bev_rotated_iou, project_to_view
from fusiondet.params import init_model_params
from fusiondet.scenesim import (
    HAND_FEATURES,
    ScenarioSpec,
    SimError,
    _box_faces,
    _place_objects,
    _ray_hits_box,
    apply_scenario,
    box_at_frame,
    build_rig,
    generate_scene,
    lidar_bev_features,
    lidar_embedding,
    lidar_points,
    load_dataset,
    load_manifest,
    write_dataset,
)

MODEL = ModelSection()
SIM = SimSection()
DET = MODEL.detection_range()
CROWDED = SimSection(min_objects=24, max_objects=24)

# scenes 0-3 of CROWDED under the default model: both frames' points and ids,
# both packed buffers and the ground-truth box parameters
CROWDED_SHA256 = "e506c4f6683ccbe71f29c7023f87a3c3719a2f049ada0351e8bfa81629df60b0"


def _scene(scene_id=0, seed=0, sim=None, model=None):
    return generate_scene(model or MODEL, sim or SIM, scene_id)


class TestGenerateScene:
    def test_empty_scene_valid(self):
        sim = SimSection(min_objects=0, max_objects=0)
        scene = generate_scene(MODEL, sim, 0)
        assert isinstance(scene.gt_boxes, BoxArray) and len(scene.gt_boxes) == 0
        for m in scene.lidar_maps:
            assert np.all(np.isfinite(m))
        for g in scene.cam_maps.values():
            assert np.all(np.isfinite(g))

    def test_fixed_seed_bit_identical(self):
        a = _scene(3)
        b = _scene(3)
        for pa, pb in zip(a.points, b.points):
            assert pa.tobytes() == pb.tobytes()
        for k in a.cam_maps:
            assert a.cam_maps[k].tobytes() == b.cam_maps[k].tobytes()
        for ma, mb in zip(a.lidar_maps, b.lidar_maps):
            assert ma.tobytes() == mb.tobytes()
        for ba, bb in zip(a.gt_boxes, b.gt_boxes):
            assert np.array_equal(ba.center, bb.center) and ba.yaw == bb.yaw

    def test_boxes_inside_range_without_overlap(self):
        for sid in range(5):
            scene = _scene(sid)
            for i, b in enumerate(scene.gt_boxes):
                assert DET.x_min <= b.center[0] <= DET.x_max
                assert DET.y_min <= b.center[1] <= DET.y_max
                assert DET.z_min <= b.center[2] <= DET.z_max
                for j in range(i + 1, len(scene.gt_boxes)):
                    assert bev_rotated_iou(b, scene.gt_boxes[j]) == 0.0

    def test_class_frequencies_multinomial(self):
        # 1000 scenes; lightweight sensor settings keep this fast, the class
        # draws are unaffected
        counts = np.zeros(NUM_CLASSES)
        sim = SimSection(min_objects=2, max_objects=3, clutter_density=0.01,
                         point_density=1.0, bev_grid=16)
        for sid in range(1000):
            for b in generate_scene(MODEL, sim, sid).gt_boxes:
                counts[b.class_id] += 1
        n = counts.sum()
        for c in range(NUM_CLASSES):
            expected = n * CLASS_MIX[c]
            sigma = math.sqrt(n * CLASS_MIX[c] * (1 - CLASS_MIX[c]))
            assert abs(counts[c] - expected) <= 3 * sigma

    def test_crowded_scenes_are_unchanged(self):
        h = hashlib.sha256()
        for sid in range(4):
            scene = generate_scene(MODEL, CROWDED, sid)
            for p, ids in zip(scene.points, scene.obj_ids):
                h.update(p.tobytes())
                h.update(ids.tobytes())
            h.update(scene.cam_set.values.data.tobytes())
            h.update(scene.lidar_set.values.data.tobytes())
            for b in scene.gt_boxes:
                h.update(np.concatenate([b.center, b.size, [b.yaw], b.velocity,
                                         [b.class_id, b.score]]).tobytes())
        assert h.hexdigest() == CROWDED_SHA256

    def test_crowded_placement_without_overlap(self):
        # placement clips only the pairs whose BEV circumcircles overlap
        tight = ModelSection(range_xy=[-16.0, 16.0])
        for seed in range(6):
            boxes = _place_objects(tight, CROWDED, np.random.default_rng(seed))
            assert len(boxes) == 24
            for i, b in enumerate(boxes):
                for other in boxes[i + 1:]:
                    assert bev_rotated_iou(b, other) == 0.0

    def test_placement_failure_raises(self):
        sim = SimSection(min_objects=8, max_objects=8, max_place_retries=1)
        tight = ModelSection(range_xy=[-6.0, 6.0])
        with pytest.raises(SimError):
            generate_scene(tight, sim, 0)


class TestLidarPoints:
    def test_empty_scene_clutter_only(self):
        pts, ids = lidar_points([], DET, SIM, np.random.default_rng(0))
        assert np.all(ids == -1)
        assert np.allclose(pts[:, 3], CLUTTER_INTENSITY)

    def test_occlusion_reduces_points(self):
        # twin targets; one hidden behind a large wall
        target = Box3D([20.0, 0.0, 0.9], [4.0, 2.0, 1.8], 0.0)
        wall = Box3D([10.0, 0.0, 1.5], [0.4, 8.0, 3.0], 0.0)
        sim = SimSection(clutter_density=0.0)
        rng = np.random.default_rng(1)
        free_counts = []
        occl_counts = []
        for _ in range(10):
            pts_f, ids_f = lidar_points([target], DET, sim, rng)
            free_counts.append(np.count_nonzero(ids_f == 0))
            pts_o, ids_o = lidar_points([wall, target], DET, sim, rng)
            occl_counts.append(np.count_nonzero(ids_o == 1))
        assert np.mean(occl_counts) < 0.2 * np.mean(free_counts)

    def test_inverse_square_density(self):
        near = Box3D([10.0, 0.0, 0.9], [4.0, 2.0, 1.8], 0.0)
        far = Box3D([20.0, 0.0, 0.9], [4.0, 2.0, 1.8], 0.0)
        sim = SimSection(clutter_density=0.0)
        rng = np.random.default_rng(2)
        n_near = n_far = 0
        for _ in range(30):
            _, ids = lidar_points([near], DET, sim, rng)
            n_near += np.count_nonzero(ids == 0)
            _, ids = lidar_points([far], DET, sim, rng)
            n_far += np.count_nonzero(ids == 0)
        ratio = n_far / n_near
        assert 0.25 * 0.8 <= ratio <= 0.25 * 1.2

    def test_intensity_encodes_class(self):
        box = Box3D([15.0, 0.0, 0.9], [4.0, 2.0, 1.8], 0.0, class_id=1)
        sim = SimSection(clutter_density=0.0)
        pts, ids = lidar_points([box], DET, sim, np.random.default_rng(3))
        assert np.allclose(pts[:, 3], CLASS_INTENSITY[1])


def per_pair_lidar_points(boxes_in_frame, det_range, sim, rng):
    """The occlusion loop that ``lidar_points`` replaced: each visible face's
    points slab-tested against every other box as soon as they are drawn."""
    sensor = np.array([0.0, 0.0, sim.lidar_height])
    pts = []
    ids = []
    for i, box in enumerate(boxes_in_frame):
        others = [b for j, b in enumerate(boxes_in_frame) if j != i]
        for fc, n, ax_a, ax_b, ha, hb in _box_faces(box):
            view = sensor - fc
            dist = np.linalg.norm(view)
            cos_t = float(n @ view) / max(dist, 1e-9)
            if cos_t <= 0.05:
                continue
            lam = sim.point_density * (4 * ha * hb) * cos_t / max(dist * dist, 1.0)
            count = int(rng.poisson(lam))
            if count == 0:
                continue
            a = rng.uniform(-ha, ha, size=count)
            b = rng.uniform(-hb, hb, size=count)
            p = fc[None, :] + a[:, None] * ax_a[None, :] + b[:, None] * ax_b[None, :]
            if others:
                occluded = np.zeros(count, dtype=bool)
                for ob in others:
                    occluded |= _ray_hits_box(sensor, p, ob)
                p = p[~occluded]
            if len(p):
                inten = np.full(len(p), CLASS_INTENSITY[box.class_id])
                pts.append(np.column_stack([p, inten]))
                ids.append(np.full(len(p), i, dtype=np.int32))
    area = (det_range.x_max - det_range.x_min) * (det_range.y_max - det_range.y_min)
    n_clutter = int(rng.poisson(sim.clutter_density * area))
    cx = rng.uniform(det_range.x_min, det_range.x_max, size=n_clutter)
    cy = rng.uniform(det_range.y_min, det_range.y_max, size=n_clutter)
    cz = rng.normal(0.0, 0.02, size=n_clutter)
    pts.append(np.column_stack([cx, cy, cz, np.full(n_clutter, CLUTTER_INTENSITY)]))
    ids.append(np.full(n_clutter, -1, dtype=np.int32))
    return np.concatenate(pts, axis=0).astype(np.float32), np.concatenate(ids, axis=0)


class TestOcclusionMatchesPerPairLoop:
    @staticmethod
    def _assert_same(boxes, seed, sim=SIM):
        got = lidar_points(boxes, DET, sim, np.random.default_rng(seed))
        want = per_pair_lidar_points(boxes, DET, sim, np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        return got

    def test_crowded_frames(self):
        rig = build_rig(MODEL, CROWDED)
        for seed in range(4):
            boxes = _place_objects(MODEL, CROWDED, np.random.default_rng(seed))
            for t in range(MODEL.num_frames):
                frame = [box_at_frame(b, rig, t, CROWDED.frame_dt) for b in boxes]
                self._assert_same(frame, 100 + seed)

    def test_one_box(self):
        _, ids = self._assert_same([Box3D([12.0, 3.0, 0.9], [4.0, 2.0, 1.8], 0.4)], 5)
        assert np.count_nonzero(ids == 0) > 0

    def test_empty_frame(self):
        _, ids = self._assert_same([], 6)
        assert np.all(ids == -1)

    def test_box_hidden_completely(self):
        wall = Box3D([10.0, 0.0, 1.5], [0.4, 8.0, 3.0], 0.0)
        target = Box3D([20.0, 0.0, 0.9], [4.0, 2.0, 1.8], 0.0, class_id=1)
        for seed in range(3):
            _, ids = self._assert_same([target, wall], seed, SimSection(clutter_density=0.0))
            assert np.count_nonzero(ids == 1) > 0 and np.count_nonzero(ids == 0) == 0


def add_at_hand_features(points, det_range, grid):
    """The pillar hand features with the ``np.add.at`` sums that
    ``lidar_bev_features`` replaced by ``np.bincount``."""
    H = W = grid
    dx = det_range.x_max - det_range.x_min
    dy = det_range.y_max - det_range.y_min
    feats = np.zeros((H, W, HAND_FEATURES))
    if len(points):
        xs = (points[:, 0] - det_range.x_min) / dx * W
        ys = (points[:, 1] - det_range.y_min) / dy * H
        inside = (xs >= 0) & (xs < W) & (ys >= 0) & (ys < H)
        xs, ys = xs[inside], ys[inside]
        pz = points[inside, 2]
        pi = points[inside, 3]
        ix = xs.astype(np.int64)
        iy = ys.astype(np.int64)
        count = np.zeros((H, W))
        np.add.at(count, (iy, ix), 1.0)
        sum_i = np.zeros((H, W))
        np.add.at(sum_i, (iy, ix), pi)
        sum_x = np.zeros((H, W))
        np.add.at(sum_x, (iy, ix), xs)
        sum_y = np.zeros((H, W))
        np.add.at(sum_y, (iy, ix), ys)
        max_z = np.full((H, W), -np.inf)
        np.maximum.at(max_z, (iy, ix), pz)
        occupied = count > 0
        safe = np.maximum(count, 1.0)
        feats[:, :, 0] = np.log1p(count) / 4.0
        feats[:, :, 1] = np.where(occupied, max_z, 0.0) / 3.0
        feats[:, :, 2] = sum_i / safe
        cell_cx = np.broadcast_to(np.arange(W) + 0.5, (H, W))
        cell_cy = np.broadcast_to((np.arange(H) + 0.5)[:, None], (H, W))
        feats[:, :, 3] = np.where(occupied, sum_x / safe - cell_cx, 0.0)
        feats[:, :, 4] = np.where(occupied, sum_y / safe - cell_cy, 0.0)
    return feats


class TestLidarBevFeatures:
    @pytest.mark.parametrize("case", ["repeated_cells", "empty", "crowded_frames"])
    def test_bincount_sums_match_add_at(self, case, monkeypatch):
        rng = np.random.default_rng(11)
        if case == "repeated_cells":
            # 2,000 points over a few cells of a coarse grid, some out of range
            xy = rng.uniform(-30.0, 30.0, size=(2000, 2))
            clouds = [np.column_stack([xy, rng.normal(0.5, 1.0, size=(2000, 2))])
                      .astype(np.float32)]
            grid = 4
        elif case == "empty":
            clouds, grid = [np.zeros((0, 4), dtype=np.float32)], SIM.bev_grid
        else:
            clouds, grid = generate_scene(MODEL, CROWDED, 1).points, SIM.bev_grid
        embed = lidar_embedding(8)
        for points in clouds:
            want = (add_at_hand_features(points, DET, grid).reshape(-1, HAND_FEATURES) @ embed)
            got = lidar_bev_features(points, DET, 1, 8, grid)[0]
            assert got.tobytes() == want.reshape(grid, grid, 8).tobytes()
        # each hand feature alone, the flat np.maximum.at's max height (feature
        # 1) included, through an identity embedding
        monkeypatch.setattr(scenesim, "lidar_embedding", lambda channels: np.eye(HAND_FEATURES))
        for points in clouds:
            got = lidar_bev_features(points, DET, 1, HAND_FEATURES, grid)[0]
            want = add_at_hand_features(points, DET, grid)
            assert np.array_equal(got, want)
            assert np.any(want[..., 1]) == (len(points) > 0)


    def test_no_points_all_zero(self):
        maps = lidar_bev_features(np.zeros((0, 4)), DET, 2, 8, 32)
        for m in maps:
            assert np.count_nonzero(m) == 0

    def test_single_point_single_cell(self):
        pts = np.array([[1.0, 2.0, 0.5, 0.9]], dtype=np.float32)
        maps = lidar_bev_features(pts, DET, 1, 8, 32)
        nonzero_cells = np.unique(np.nonzero(np.any(maps[0] != 0, axis=2)), axis=1)
        assert np.any(maps[0] != 0)
        cellmask = np.any(maps[0] != 0, axis=2)
        assert np.count_nonzero(cellmask) == 1

    def test_pooling_consistency(self):
        scene = _scene(1)
        maps = lidar_bev_features(scene.points[0], DET, MODEL.num_lidar_scales,
                                  MODEL.channels, SIM.bev_grid)
        fine, coarse = maps[0], maps[1]
        h, w, c = fine.shape
        pooled = fine.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
        np.testing.assert_allclose(coarse, pooled, atol=1e-12)
        # the scene stores them rounded to the model dtype
        for got, ref in zip(scene.lidar_maps, maps):
            assert got.tobytes() == ref.astype(MODEL.dtype).tobytes()

    def test_centroid_offsets_bounded(self):
        scene = _scene(2)
        # hand features are embedded; reconstruct bounds via a probe point set
        pts = np.array([[0.05, 0.05, 0.3, 0.5]], dtype=np.float32)
        maps = lidar_bev_features(pts, DET, 1, 8, 128)
        embed = lidar_embedding(8)
        cell = maps[0][np.any(maps[0] != 0, axis=2)]
        hand = np.linalg.lstsq(embed.T, cell[0], rcond=None)[0]
        assert abs(hand[3]) <= 0.5 + 1e-6 and abs(hand[4]) <= 0.5 + 1e-6


class TestCameraFeatures:
    def test_blob_peak_at_projection(self):
        sim = SimSection(feature_noise=0.0)
        scene = generate_scene(MODEL, sim, 0)
        box = scene.gt_boxes[0]
        found_any = False
        for v in range(MODEL.num_views):
            proj = project_to_view(box.center, scene.rig.views[v])
            if proj is None:
                continue
            found_any = True
            grid = scene.cam_maps[(v, 0, 0)]
            stride = sim.image_width / grid.shape[1]
            cls_energy = grid[:, :, box.class_id]
            peak = np.unravel_index(np.argmax(cls_energy), cls_energy.shape)
            assert abs(peak[1] + 0.5 - proj[0] / stride) <= 1.0
            assert abs(peak[0] + 0.5 - proj[1] / stride) <= 1.0
        assert found_any

    def test_class_decodes_at_peak(self):
        scene = _scene(4)
        for box in scene.gt_boxes:
            for v in range(MODEL.num_views):
                proj = project_to_view(box.center, scene.rig.views[v])
                if proj is None:
                    continue
                grid = scene.cam_maps[(v, 0, 0)]
                stride = SIM.image_width / grid.shape[1]
                j = min(int(proj[1] / stride), grid.shape[0] - 1)
                i = min(int(proj[0] / stride), grid.shape[1] - 1)
                # peaks of well-separated objects decode their own class
                near_other = any(
                    np.linalg.norm(o.center - box.center) < 6.0
                    for o in scene.gt_boxes if o is not box
                )
                if not near_other:
                    assert int(np.argmax(grid[j, i, :NUM_CLASSES])) == box.class_id

    def test_object_out_of_view_no_blob(self):
        sim = SimSection(feature_noise=0.0, min_objects=1, max_objects=1)
        scene = generate_scene(MODEL, sim, 0)
        box = scene.gt_boxes[0]
        for v in range(MODEL.num_views):
            if project_to_view(box.center, scene.rig.views[v]) is not None:
                continue
            grid = scene.cam_maps[(v, 0, 0)]
            assert np.allclose(grid[:, :, :NUM_CLASSES], 0.0, atol=1e-6)


class TestScenarios:
    def test_fov_threshold_exact(self):
        scene = _scene(5)
        spec = ScenarioSpec(kind="fov_limited", angle_deg=120.0, seed=0)
        out = apply_scenario(scene, spec, MODEL, SIM)
        for t, pts in enumerate(out.points):
            az = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
            assert np.all(np.abs(az) <= 60.0 + 1e-9)
            # complement was dropped, nothing else
            orig = scene.points[t]
            az0 = np.degrees(np.arctan2(orig[:, 1], orig[:, 0]))
            assert np.count_nonzero(np.abs(az0) <= 60.0) == len(pts)

    def test_fov_keeps_50_drops_70(self):
        pts = np.array(
            [
                [math.cos(math.radians(50)), math.sin(math.radians(50)), 0.0, 1.0],
                [math.cos(math.radians(70)), math.sin(math.radians(70)), 0.0, 1.0],
            ],
            dtype=np.float32,
        ) * 10.0
        scene = _scene(6)
        scene.points = [pts, pts.copy()]
        scene.obj_ids = [np.array([0, 1], dtype=np.int32)] * 2
        out = apply_scenario(scene, ScenarioSpec(kind="fov_limited", angle_deg=120.0),
                             MODEL, SIM)
        for t in range(2):
            assert len(out.points[t]) == 1
            az = math.degrees(math.atan2(out.points[t][0, 1], out.points[t][0, 0]))
            assert abs(az) == pytest.approx(50.0, abs=1e-4)

    def test_front_occlusion_zeroes_front_only(self):
        scene = _scene(7)
        out = apply_scenario(scene, ScenarioSpec(kind="front_occlusion"), MODEL, SIM)
        for (v, m, t), grid in out.cam_maps.items():
            if v == 0:
                assert np.count_nonzero(grid) == 0
            else:
                np.testing.assert_array_equal(grid, scene.cam_maps[(v, m, t)])
        for pa, pb in zip(out.points, scene.points):
            np.testing.assert_array_equal(pa, pb)

    def test_idempotence(self):
        scene = _scene(8)
        for kind in ("fov_limited", "front_occlusion"):
            spec = ScenarioSpec(kind=kind, angle_deg=150.0, seed=3)
            once = apply_scenario(scene, spec, MODEL, SIM)
            twice = apply_scenario(once, spec, MODEL, SIM)
            for t in range(len(once.points)):
                np.testing.assert_array_equal(once.points[t], twice.points[t])
            for k in once.cam_maps:
                np.testing.assert_array_equal(once.cam_maps[k], twice.cam_maps[k])
            for r in range(len(once.lidar_maps)):
                np.testing.assert_array_equal(once.lidar_maps[r], twice.lidar_maps[r])

    def test_gt_never_modified(self):
        scene = _scene(9)
        for kind in ("fov_limited", "object_failure", "front_occlusion", "stuck"):
            out = apply_scenario(scene, ScenarioSpec(kind=kind, seed=1), MODEL, SIM)
            assert out.gt_boxes is scene.gt_boxes

    def test_untouched_data_is_shared(self):
        scene = _scene(9)
        cases = {
            "fov_limited": ScenarioSpec(kind="fov_limited", seed=1),
            "front_occlusion": ScenarioSpec(kind="front_occlusion", seed=1),
            "stuck_camera": ScenarioSpec(kind="stuck", frame_rate=1.0, seed=1),
            "stuck_lidar": ScenarioSpec(kind="stuck", frame_rate=1.0, stuck_sensor="lidar",
                                        seed=1),
            "stuck_no_draw": ScenarioSpec(kind="stuck", frame_rate=0.0, seed=1),
            "object_failure_no_draw": ScenarioSpec(kind="object_failure", frame_rate=0.0,
                                                   seed=1),
            "object_failure": ScenarioSpec(kind="object_failure", frame_rate=1.0,
                                           object_rate=1.0, seed=1),
        }
        # (points and ids, camera maps, LiDAR maps) passed through untouched
        shared = {
            "fov_limited": (False, True, False),
            "front_occlusion": (True, False, True),
            "stuck_camera": (True, False, True),
            "stuck_lidar": (True, True, False),
            "stuck_no_draw": (True, True, True),
            "object_failure_no_draw": (True, True, True),
            "object_failure": (False, True, False),
        }
        for name, spec in cases.items():
            out = apply_scenario(scene, spec, MODEL, SIM)
            points, cams, lidar = shared[name]
            for t in range(MODEL.num_frames):
                assert (out.points[t] is scene.points[t]) == points, name
                assert (out.obj_ids[t] is scene.obj_ids[t]) == points, name
            assert (out.cam_maps is scene.cam_maps) == cams, name
            assert (out.lidar_maps is scene.lidar_maps) == lidar, name
            assert (out.cam_set is scene.cam_set) == cams, name
            assert (out.lidar_set is scene.lidar_set) == lidar, name
            # what is rebuilt equals what the inputs give
            want = lidar_bev_features(out.points[1 if name == "stuck_lidar" else 0], DET,
                                      MODEL.num_lidar_scales, MODEL.channels, SIM.bev_grid)
            for got, ref in zip(out.lidar_maps, want):
                assert got.tobytes() == ref.astype(MODEL.dtype).tobytes(), name

    def test_scenario_kind_must_be_set(self):
        scene = _scene(9)
        spec = ScenarioSpec.from_config(RunConfig().scenario)
        assert spec.kind is None
        for kind in (None, "sunny"):
            spec.kind = kind
            with pytest.raises(SimError):
                apply_scenario(scene, spec, MODEL, SIM)

    def test_object_failure_statistics(self):
        # drop fraction over many objects ~ frame_rate * object_rate
        total = 0
        dropped = 0
        sim = SimSection(min_objects=4, max_objects=8, clutter_density=0.0)
        spec = ScenarioSpec(kind="object_failure", frame_rate=0.5, object_rate=0.5,
                            seed=11)
        sid = 0
        while total < 1000:
            scene = generate_scene(MODEL, sim, sid)
            out = apply_scenario(scene, spec, MODEL, SIM)
            for t in range(MODEL.num_frames):
                before = set(np.unique(scene.obj_ids[t][scene.obj_ids[t] >= 0]))
                after = set(np.unique(out.obj_ids[t][out.obj_ids[t] >= 0]))
                total += len(before)
                dropped += len(before - after)
            sid += 1
        p = 0.25
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(dropped - total * p) <= 3 * sigma

    def test_stuck_camera_shifts_frames(self):
        scene = _scene(10)
        # force the per-scene Bernoulli draw on: rate 1.0
        spec = ScenarioSpec(kind="stuck", frame_rate=1.0, stuck_sensor="camera", seed=0)
        out = apply_scenario(scene, spec, MODEL, SIM)
        for v in range(MODEL.num_views):
            for m in range(MODEL.num_cam_scales):
                np.testing.assert_array_equal(
                    out.cam_maps[(v, m, 0)], scene.cam_maps[(v, m, 1)]
                )
        # lidar untouched in camera-stuck mode
        for r in range(len(scene.lidar_maps)):
            np.testing.assert_array_equal(out.lidar_maps[r], scene.lidar_maps[r])

    def test_stuck_lidar_uses_stale_points(self):
        scene = _scene(11)
        spec = ScenarioSpec(kind="stuck", frame_rate=1.0, stuck_sensor="lidar", seed=0)
        out = apply_scenario(scene, spec, MODEL, SIM)
        want = lidar_bev_features(scene.points[1], DET, MODEL.num_lidar_scales,
                                  MODEL.channels, SIM.bev_grid)
        current = lidar_bev_features(scene.points[0], DET, MODEL.num_lidar_scales,
                                     MODEL.channels, SIM.bev_grid)
        assert not np.allclose(current[0], want[0], atol=1e-12)  # the frames differ
        # the scene stores the stale frame's maps rounded to the model dtype
        for got, ref in zip(out.lidar_maps, want):
            assert got.tobytes() == ref.astype(MODEL.dtype).tobytes()

    def test_stuck_requires_two_frames(self):
        model1 = ModelSection(num_frames=1)
        scene = generate_scene(model1, SIM, 0)
        with pytest.raises(SimError):
            apply_scenario(scene, ScenarioSpec(kind="stuck", frame_rate=1.0), model1, SIM)


class TestPackedMaps:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_maps_are_views_into_the_sets_read(self, precision):
        model = ModelSection(precision=precision)
        scene = generate_scene(model, SIM, 0)
        feats, pyramid = scene.feature_set(model), scene.lidar_pyramid(model)
        assert feats is scene.cam_set and pyramid is scene.lidar_set
        # stored once, at the model's precision
        assert feats.values.dtype == model.dtype and pyramid.values.dtype == model.dtype
        for k, grid in scene.cam_maps.items():
            assert np.shares_memory(grid, feats.values.data), k
            assert grid.dtype == model.dtype and not grid.flags.writeable
        for r, grid in enumerate(scene.lidar_maps):
            assert np.shares_memory(grid, pyramid.values.data), r
            assert grid.dtype == model.dtype and not grid.flags.writeable
        # a model at the other precision cannot read them
        other = ModelSection(precision="double" if precision == "single" else "single")
        with pytest.raises(SimError):
            scene.feature_set(other)
        with pytest.raises(SimError):
            scene.lidar_pyramid(other)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_buffer_bytes_at_the_model_precision(self, precision):
        model = ModelSection(precision=precision)
        scene = generate_scene(model, SIM, 0)
        cam = sum((SIM.image_height // s) * (SIM.image_width // s)
                  for s in (SIM.base_stride * 2 ** m for m in range(model.num_cam_scales)))
        lidar = sum((SIM.bev_grid >> r) ** 2 for r in range(model.num_lidar_scales))
        texels = model.num_views * model.num_frames * cam + lidar
        nbytes = scene.cam_set.values.data.nbytes + scene.lidar_set.values.data.nbytes
        assert nbytes == texels * model.channels * np.dtype(model.dtype).itemsize
        if precision == "single":
            assert 3.6 < nbytes / 2 ** 20 < 3.8  # a desk scene's float32 maps

    def test_corrupted_modality_is_packed_at_the_model_dtype(self):
        scene = _scene(3)
        spec = ScenarioSpec(kind="stuck", frame_rate=1.0, stuck_sensor="camera", seed=0)
        out = apply_scenario(scene, spec, MODEL, SIM)
        assert out.cam_set is not scene.cam_set and out.cam_set.values.dtype == MODEL.dtype
        for k, grid in out.cam_maps.items():
            assert np.shares_memory(grid, out.cam_set.values.data), k

    def test_strides_are_the_configs(self, tmp_path):
        # the integer strides the map shapes come from, for the generated,
        # the corrupted and the loaded scene alike
        sim = SimSection(base_stride=4, num_scenes=1)
        cfg = RunConfig(model=MODEL, sim=sim)
        want = [4, 8]  # base_stride * 2^m for the desk's two camera scales
        scene = generate_scene(MODEL, sim, 0)
        spec = ScenarioSpec(kind="front_occlusion", seed=0)
        write_dataset(str(tmp_path), cfg, [scene])
        for sc in (scene, apply_scenario(scene, spec, MODEL, sim),
                   load_dataset(str(tmp_path), cfg)[0]):
            assert sc.cam_set.strides == want
            assert all(type(s) is int for s in sc.cam_set.strides)


class TestMotion:
    def test_box_at_current_frame_is_identity(self):
        scene = _scene(12)
        for b in scene.gt_boxes:
            b0 = box_at_frame(b, scene.rig, 0, SIM.frame_dt)
            np.testing.assert_allclose(b0.center, b.center, atol=1e-12)

    def test_past_frame_backpropagates_motion(self):
        scene = _scene(13)
        b = scene.gt_boxes[0]
        b1 = box_at_frame(b, scene.rig, 1, SIM.frame_dt)
        # in ego(1) coords: world position minus object motion, plus ego shift
        expected_world = b.center - np.array([b.velocity[0], b.velocity[1], 0.0]) * SIM.frame_dt
        inv = np.linalg.inv(scene.rig.ego_poses[1])
        want = inv[:3, :3] @ expected_world + inv[:3, 3]
        np.testing.assert_allclose(b1.center, want, atol=1e-12)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig()
        cfg.sim.num_scenes = 2
        scenes = [generate_scene(cfg.model, cfg.sim, i) for i in range(2)]
        write_dataset(str(tmp_path / "ds"), cfg, scenes)
        manifest = load_manifest(str(tmp_path / "ds"))
        assert manifest["num_scenes"] == 2
        assert manifest["config_hash"] == cfg.hash()
        loaded = load_dataset(str(tmp_path / "ds"), cfg)
        # one rig and one detection range, built from cfg, for every scene
        assert all(b.rig is loaded[0].rig for b in loaded)
        assert all(b.lidar_set.det_range is loaded[0].lidar_set.det_range for b in loaded)
        for a, b in zip(scenes, loaded):
            assert len(a.gt_boxes) == len(b.gt_boxes)
            for ba, bb in zip(a.gt_boxes, b.gt_boxes):
                np.testing.assert_allclose(ba.center, bb.center)
            for t in range(len(a.points)):
                np.testing.assert_array_equal(a.points[t].astype(np.float32), b.points[t])
            for k in a.cam_maps:
                np.testing.assert_array_equal(
                    a.cam_maps[k].astype(np.float32), b.cam_maps[k]
                )
            # a loaded scene holds its maps once, at the model dtype
            assert b.cam_set.values.dtype == np.float32 == b.lidar_set.values.dtype
            assert b.feature_set(cfg.model) is b.cam_set

    def test_missing_manifest_errors(self, tmp_path):
        with pytest.raises(SimError):
            load_manifest(str(tmp_path))

    @pytest.mark.parametrize("doc", ["[1, 2]", "3", "null", "[" * 100000],
                             ids=["list", "number", "null", "deep"])
    def test_manifest_not_an_object_or_unreadable_errors(self, tmp_path, doc):
        (tmp_path / "manifest.json").write_text(doc)
        with pytest.raises(SimError):
            load_manifest(str(tmp_path))


def _tiny_cfg() -> RunConfig:
    cfg = RunConfig()
    cfg.sim.num_scenes = 1
    cfg.sim.image_width, cfg.sim.image_height, cfg.sim.bev_grid = 64, 32, 16
    cfg.model.num_views = 2
    return cfg


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A written 1-scene dataset at small sizes, under ``_tiny_cfg``."""
    cfg = _tiny_cfg()
    out = str(tmp_path_factory.mktemp("tiny") / "ds")
    write_dataset(out, cfg, [generate_scene(cfg.model, cfg.sim, 0)])
    return out


class TestDatasetFiles:
    @pytest.mark.parametrize("fname", ["cam_v1_m0_t1.npy", "lidar_r0.npy", "points_t0.npy"])
    def test_integer_maps_and_points_are_rejected(self, tiny_dataset, tmp_path, fname):
        ds = str(tmp_path / "ds")
        shutil.copytree(tiny_dataset, ds)
        path = os.path.join(ds, "scene_0000", fname)
        np.save(path, np.load(path).view(np.int32))
        with pytest.raises(SimError, match="floating point"):
            load_dataset(ds, _tiny_cfg())

    @pytest.mark.parametrize("doc", ['{"scene_id": 0}', "[" * 100000],
                             ids=["no_boxes", "deep"])
    def test_unreadable_scene_json_is_a_sim_error(self, tiny_dataset, tmp_path, doc):
        ds = str(tmp_path / "ds")
        shutil.copytree(tiny_dataset, ds)
        with open(os.path.join(ds, "scene_0000", "scene.json"), "w") as fh:
            fh.write(doc)
        with pytest.raises(SimError, match="scene.json"):
            load_dataset(ds, _tiny_cfg())

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_damaged_npy_files_load_or_raise_sim_error(self, tiny_dataset, data):
        names = sorted(n for n in os.listdir(os.path.join(tiny_dataset, "scene_0000"))
                       if n.endswith(".npy"))
        name = data.draw(st.sampled_from(names))
        with tempfile.TemporaryDirectory() as tmp:
            ds = os.path.join(tmp, "ds")
            shutil.copytree(tiny_dataset, ds)
            path = os.path.join(ds, "scene_0000", name)
            with open(path, "rb") as fh:
                raw = bytearray(fh.read())
            if data.draw(st.booleans()):
                raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
            else:
                # the header comes first, so about half the flips land in it
                where = st.one_of(st.integers(0, 127), st.integers(0, len(raw) - 1))
                for pos in data.draw(st.lists(where, min_size=1, max_size=4)):
                    raw[pos] = data.draw(st.integers(0, 255))
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                scenes = load_dataset(ds, _tiny_cfg())
            except SimError:
                return
            for scene in scenes:
                arrays = [*scene.points, *scene.cam_maps.values(), *scene.lidar_maps]
                assert all(a.dtype.kind == "f" for a in arrays)


class TestGroundTruthArray:
    """A scene holds its ground truth as one BoxArray, built where the scene
    is made or loaded; scenarios pass it on and every decode reads it as it
    is."""

    def test_generated_loaded_and_corrupted_scenes_hold_one_box_array(self, tiny_dataset):
        cfg = _tiny_cfg()
        scene = generate_scene(cfg.model, cfg.sim, 0)
        loaded = load_dataset(tiny_dataset, cfg)[0]
        assert isinstance(scene.gt_boxes, BoxArray) and isinstance(loaded.gt_boxes, BoxArray)
        for name in ("center", "size", "yaw", "velocity", "class_id", "score"):
            assert (getattr(loaded.gt_boxes, name).tobytes()
                    == getattr(scene.gt_boxes, name).tobytes())
        for kind in ScenarioSection.KINDS:
            spec = ScenarioSpec(kind=kind, frame_rate=1.0, object_rate=1.0)
            assert apply_scenario(scene, spec, cfg.model, cfg.sim).gt_boxes is scene.gt_boxes

    def test_training_and_inference_read_the_scenes_array(self, monkeypatch):
        cfg = _tiny_cfg()
        cfg.train.steps = 1
        scene = generate_scene(cfg.model, cfg.sim, 0)
        store = init_model_params(cfg.model, seed=0)
        read, generate = [], train.generate_queries
        monkeypatch.setattr(train, "generate_queries",
                            lambda gt, *args: read.append(gt) or generate(gt, *args))
        train.train_loop(cfg, [scene], store)
        for oracle in (False, True):
            gts = train.run_inference(cfg, [scene], store, oracle_uncertainty=oracle)[1]
            assert gts[0] is scene.gt_boxes
        assert len(read) == 3 and all(gt is scene.gt_boxes for gt in read)
