"""Synthetic scene generation and the sensor-failure scenarios.

Scenes are a pure function of (config, seed): ground-truth boxes placed
without BEV overlap, per-frame LiDAR point clouds sampled on sensor-visible
box faces with inverse-square density plus uniform ground clutter, pillar
-style BEV feature pyramids, and camera feature maps carrying Gaussian blobs
at projected object centers whose channels encode class, depth, size, yaw
and velocity on top of a fixed positional encoding.

Point clouds are stored in the ego frame of their own timestamp; frame 0 is
the current frame and coincides with the world/detection frame.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tokenize
from dataclasses import asdict, dataclass, replace

import numpy as np

from .classes import (
    CLASS_INTENSITY,
    CLUTTER_INTENSITY,
    CONTENT_CHANNELS,
    NUM_CLASSES,
    POSENC_CHANNELS,
    SIZE_JITTER,
    SIZE_PRIORS,
    SPEED_SCALE,
    draw_class,
)
from .config import ModelSection, RunConfig, ScenarioSection, SimSection
from .featuremaps import CameraFeatureSet, LidarFeaturePyramid
from .fileio import write_json
from .geometry import (
    Box3D,
    CameraRig,
    CameraView,
    DetectionRange,
    bev_rotated_iou,
    invert_rigid,
    make_rigid,
    project_points,
    rot_z,
)

HAND_FEATURES = 5  # count, max height, mean intensity, centroid dx, dy
FRONT_VIEW = 0


class SimError(RuntimeError):
    pass


def poisson_count(rng: np.random.Generator, lam: float, keys: str) -> int:
    """One Poisson draw of mean ``lam``; SimError naming the config ``keys``
    that set the mean when numpy cannot draw it (past about 9.2e18, or NaN)."""
    try:
        return int(rng.poisson(lam))
    except ValueError:
        raise SimError(f"the Poisson mean {lam:g} set by {keys} is past what the "
                       "simulator can draw") from None


@dataclass
class ScenarioSpec(ScenarioSection):
    """Runtime form of a sensor-failure scenario: the config's ScenarioSection
    plus ``kind``, one of ``ScenarioSection.KINDS``, set by the caller."""

    kind: str | None = None

    @classmethod
    def from_config(cls, sec: ScenarioSection) -> "ScenarioSpec":
        return cls(**asdict(sec))


@dataclass
class SceneSample:
    """One scene. Its feature maps are held once, as one packed buffer per
    modality at the precision of the model it was made for."""

    scene_id: int
    gt_boxes: list
    rig: CameraRig
    points: list  # per frame, (N, 4) float32-compatible [x, y, z, intensity]
    obj_ids: list  # per frame, (N,) int32; -1 for clutter
    cam_set: CameraFeatureSet
    lidar_set: LidarFeaturePyramid

    @property
    def cam_maps(self) -> dict:
        """(v, m, t) -> read-only (H, W, C) view into the camera buffer."""
        return self.cam_set.maps

    @property
    def lidar_maps(self) -> list:
        """Per scale, a read-only (H, W, C) view into the LiDAR buffer."""
        return self.lidar_set.maps

    def feature_set(self, cfg: ModelSection) -> CameraFeatureSet:
        return _stored(self.cam_set, cfg)

    def lidar_pyramid(self, cfg: ModelSection) -> LidarFeaturePyramid:
        return _stored(self.lidar_set, cfg)


def _stored(maps, cfg: ModelSection):
    """A scene's packed maps, which a model reads only at its own precision."""
    if maps.values.dtype != cfg.dtype:
        raise SimError(f"scene maps are stored as {maps.values.dtype}, "
                       f"not the model's {np.dtype(cfg.dtype)}")
    return maps


def _pack_camera(cam_maps: dict, model: ModelSection, sim: SimSection) -> CameraFeatureSet:
    """A scene's (v, m, t) camera maps packed once, at the model's
    precision."""
    strides = [cfg_stride(m, sim.base_stride) for m in range(model.num_cam_scales)]
    return CameraFeatureSet(cam_maps, model.num_views, model.num_cam_scales, model.num_frames,
                            strides, model.dtype)


def cfg_stride(scale: int, base: int) -> int:
    return base * (2 ** scale)


# ---------------------------------------------------------------------------
# rig construction
# ---------------------------------------------------------------------------


def build_rig(model: ModelSection, sim: SimSection) -> CameraRig:
    """V views spread uniformly in azimuth (view 0 facing forward +X) plus
    straight-line constant-speed ego motion into the past."""
    views = []
    W, H = sim.image_width, sim.image_height
    K = np.array(
        [[sim.focal, 0.0, W / 2.0], [0.0, sim.focal, H / 2.0], [0.0, 0.0, 1.0]]
    )
    cam_pos = np.array([0.0, 0.0, sim.camera_height])
    for v in range(model.num_views):
        phi = 2.0 * math.pi * v / model.num_views
        fwd = np.array([math.cos(phi), math.sin(phi), 0.0])
        right = np.array([math.sin(phi), -math.cos(phi), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        R_cw = np.stack([right, down, fwd], axis=1)  # camera -> world
        R = R_cw.T
        t = -R @ cam_pos
        views.append(CameraView(intrinsics=K, extrinsics=make_rigid(R, t), image_size=(W, H)))
    poses = []
    for t_idx in range(model.num_frames):
        shift = np.array([-sim.ego_speed * sim.frame_dt * t_idx, 0.0, 0.0])
        poses.append(make_rigid(np.eye(3), shift))
    return CameraRig(views=views, ego_poses=poses)


# ---------------------------------------------------------------------------
# object placement and motion
# ---------------------------------------------------------------------------


def _place_objects(model: ModelSection, sim: SimSection, rng) -> list:
    det_range = model.detection_range()
    n = int(rng.integers(sim.min_objects, sim.max_objects + 1))
    boxes = []
    centers = np.zeros((n, 2))  # BEV centers and circumradii of the placed boxes
    radii = np.zeros(n)
    for _ in range(n):
        for attempt in range(sim.max_place_retries):
            cls = draw_class(rng)
            size = SIZE_PRIORS[cls] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3))
            x = rng.uniform(det_range.x_min + sim.spawn_margin, det_range.x_max - sim.spawn_margin)
            y = rng.uniform(det_range.y_min + sim.spawn_margin, det_range.y_max - sim.spawn_margin)
            if math.hypot(x, y) < sim.spawn_min_radius:
                continue
            yaw = rng.uniform(-math.pi, math.pi)
            speed = abs(rng.normal(0.0, SPEED_SCALE[cls])) if SPEED_SCALE[cls] > 0 else 0.0
            heading = rng.uniform(-math.pi, math.pi)
            vel = np.array([speed * math.cos(heading), speed * math.sin(heading)])
            cand = Box3D(
                center=np.array([x, y, size[2] / 2.0]),
                size=size,
                yaw=yaw,
                velocity=vel,
                class_id=cls,
                score=1.0,
            )
            # geometry.nms_3d's gate: footprints inside disjoint BEV circumcircles
            # have IoU 0 (tests/test_geometry.py::test_disjoint_circumcircles_have_zero_iou)
            k = len(boxes)
            radius = 0.5 * math.hypot(size[0], size[1])
            d = centers[:k] - (x, y)
            near = np.hypot(d[:, 0], d[:, 1]) < radii[:k] + radius
            if all(bev_rotated_iou(cand, boxes[j]) == 0.0 for j in np.flatnonzero(near)):
                boxes.append(cand)
                centers[k], radii[k] = (x, y), radius
                break
        else:
            raise SimError("object placement failed after max retries")
    return boxes


def _ego_yaw(pose: np.ndarray) -> float:
    return math.atan2(pose[1, 0], pose[0, 0])


def box_at_frame(box: Box3D, rig: CameraRig, frame: int, dt: float) -> Box3D:
    """Constant-velocity object pose at a past frame, in that frame's ego coords."""
    v3 = np.array([box.velocity[0], box.velocity[1], 0.0])
    center_world = box.center - v3 * (dt * frame)
    inv = invert_rigid(rig.ego_poses[frame])
    center = inv[:3, :3] @ center_world + inv[:3, 3]
    yaw = box.yaw - _ego_yaw(rig.ego_poses[frame])
    return Box3D(center, box.size, yaw, box.velocity, box.class_id, box.score)


# ---------------------------------------------------------------------------
# LiDAR point generation
# ---------------------------------------------------------------------------


def _box_faces(box: Box3D):
    """The five potentially visible faces: center, unit normal, in-face axes
    and half-sizes. Bottom face is never visible from an elevated sensor."""
    R = rot_z(box.yaw)
    l, w, h = box.size
    c = box.center
    ex, ey, ez = R[:, 0], R[:, 1], np.array([0.0, 0.0, 1.0])
    return [
        (c + ex * (l / 2), ex, ey, ez, w / 2, h / 2),
        (c - ex * (l / 2), -ex, ey, ez, w / 2, h / 2),
        (c + ey * (w / 2), ey, ex, ez, l / 2, h / 2),
        (c - ey * (w / 2), -ey, ex, ez, l / 2, h / 2),
        (c + ez * (h / 2), ez, ex, ey, l / 2, w / 2),
    ]


def _ray_hits_box(origin: np.ndarray, targets: np.ndarray, box: Box3D) -> np.ndarray:
    """Whether segments origin->target pass through the box interior (slab test
    in the box local frame); endpoints on the surface do not count."""
    R = rot_z(box.yaw)
    o = R.T @ (origin - box.center)
    d = (targets - box.center) @ R
    d = d - o
    half = box.size / 2.0
    t0 = np.zeros(len(targets))
    t1 = np.ones(len(targets))
    hit = np.ones(len(targets), dtype=bool)
    for axis in range(3):
        da = d[:, axis]
        oa = o[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            near = (-half[axis] - oa) / da
            far = (half[axis] - oa) / da
        swap = near > far
        near[swap], far[swap] = far[swap], near[swap].copy()
        parallel = np.abs(da) < 1e-12
        inside = np.abs(oa) <= half[axis]
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        t0 = np.maximum(t0, near)
        t1 = np.minimum(t1, far)
    hit &= t0 < t1 - 1e-9
    hit &= t0 < 1.0 - 1e-6  # entering at/after the target is not occlusion
    return hit


def lidar_points(
    boxes_in_frame: list,
    det_range: DetectionRange,
    sim: SimSection,
    rng,
) -> tuple:
    """One frame's point cloud: visible box faces (1/d^2 density) plus
    uniform ground clutter.

    Every visible face's points are drawn first, box by box and face by
    face. Then each box is slab-tested once, as the occluder of all the
    other boxes' points (a box never occludes its own), and the occluded
    points are dropped; the clutter is drawn last.

    Returns (points (N, 4), obj_ids (N,)).
    """
    sensor = np.array([0.0, 0.0, sim.lidar_height])
    faces = []
    owners = []
    for i, box in enumerate(boxes_in_frame):
        for fc, n, ax_a, ax_b, ha, hb in _box_faces(box):
            view = sensor - fc
            dist = np.linalg.norm(view)
            cos_t = float(n @ view) / max(dist, 1e-9)
            if cos_t <= 0.05:
                continue
            lam = sim.point_density * (4 * ha * hb) * cos_t / max(dist * dist, 1.0)
            count = poisson_count(rng, lam, "sim.point_density")
            if count == 0:
                continue
            a = rng.uniform(-ha, ha, size=count)
            b = rng.uniform(-hb, hb, size=count)
            faces.append(fc[None, :] + a[:, None] * ax_a[None, :] + b[:, None] * ax_b[None, :])
            owners.append(np.full(count, i, dtype=np.int32))
    p = np.concatenate(faces) if faces else np.zeros((0, 3))
    owner = np.concatenate(owners) if owners else np.zeros((0,), dtype=np.int32)
    occluded = np.zeros(len(p), dtype=bool)
    for j, ob in enumerate(boxes_in_frame):
        others = owner != j
        if others.any():
            occluded[others] |= _ray_hits_box(sensor, p[others], ob)
    p, owner = p[~occluded], owner[~occluded]
    inten = CLASS_INTENSITY[[b.class_id for b in boxes_in_frame]][owner]
    area = (det_range.x_max - det_range.x_min) * (det_range.y_max - det_range.y_min)
    n_clutter = poisson_count(rng, sim.clutter_density * area,
                              "sim.clutter_density and the model.range_xy area")
    cx = rng.uniform(det_range.x_min, det_range.x_max, size=n_clutter)
    cy = rng.uniform(det_range.y_min, det_range.y_max, size=n_clutter)
    cz = rng.normal(0.0, 0.02, size=n_clutter)
    clutter = np.column_stack([cx, cy, cz, np.full(n_clutter, CLUTTER_INTENSITY)])
    points = np.concatenate([np.column_stack([p, inten]), clutter])
    obj_ids = np.concatenate([owner, np.full(n_clutter, -1, dtype=np.int32)])
    return points.astype(np.float32), obj_ids


# ---------------------------------------------------------------------------
# LiDAR BEV features
# ---------------------------------------------------------------------------

_EMBED_CACHE: dict = {}


def lidar_embedding(channels: int) -> np.ndarray:
    """Fixed seeded linear embedding of the pillar hand-features."""
    if channels not in _EMBED_CACHE:
        rng = np.random.default_rng(np.random.SeedSequence([0x11D42, channels]))
        _EMBED_CACHE[channels] = rng.normal(0.0, 1.0 / math.sqrt(HAND_FEATURES),
                                            size=(HAND_FEATURES, channels))
    return _EMBED_CACHE[channels]


def lidar_bev_features(
    points: np.ndarray,
    det_range: DetectionRange,
    num_scales: int,
    channels: int,
    grid: int,
) -> list:
    """Pillar-style hand features per cell, linearly embedded to C channels;
    coarser scales average-pool their four children."""
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
        cell = iy * W + ix
        count, sum_i, sum_x, sum_y = (np.bincount(cell, w, minlength=H * W).reshape(H, W)
                                      for w in (None, pi, xs, ys))
        max_z = np.full(H * W, -np.inf)
        np.maximum.at(max_z, cell, pz)
        max_z = max_z.reshape(H, W)
        occupied = count > 0
        safe = np.maximum(count, 1.0)
        feats[:, :, 0] = np.log1p(count) / 4.0
        feats[:, :, 1] = np.where(occupied, max_z, 0.0) / 3.0
        feats[:, :, 2] = sum_i / safe
        cell_cx = np.broadcast_to(np.arange(W) + 0.5, (H, W))
        cell_cy = np.broadcast_to((np.arange(H) + 0.5)[:, None], (H, W))
        feats[:, :, 3] = np.where(occupied, sum_x / safe - cell_cx, 0.0)
        feats[:, :, 4] = np.where(occupied, sum_y / safe - cell_cy, 0.0)
    embed = lidar_embedding(channels)
    finest = feats.reshape(-1, HAND_FEATURES) @ embed
    finest = finest.reshape(H, W, channels)
    maps = [finest]
    for _ in range(1, num_scales):
        prev = maps[-1]
        h, w, c = prev.shape
        pooled = prev.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
        maps.append(pooled)
    return maps


# ---------------------------------------------------------------------------
# camera features
# ---------------------------------------------------------------------------

_POSENC_CACHE: dict = {}


def positional_encoding(h: int, w: int) -> np.ndarray:
    """Fixed sin/cos encoding of normalized texel coordinates (8 channels)."""
    key = (h, w)
    if key not in _POSENC_CACHE:
        u = (np.arange(w) + 0.5) / w
        v = (np.arange(h) + 0.5) / h
        uu = np.broadcast_to(u, (h, w))
        vv = np.broadcast_to(v[:, None], (h, w))
        chans = []
        for freq in (1.0, 3.0):
            chans += [
                np.sin(2 * math.pi * freq * uu),
                np.cos(2 * math.pi * freq * uu),
                np.sin(2 * math.pi * freq * vv),
                np.cos(2 * math.pi * freq * vv),
            ]
        _POSENC_CACHE[key] = np.stack(chans, axis=-1)
    return _POSENC_CACHE[key]


def _content_vector(box: Box3D, depth: float) -> np.ndarray:
    vec = np.zeros(CONTENT_CHANNELS)
    vec[box.class_id] = 1.0
    vec[NUM_CLASSES] = 10.0 / (depth + 5.0)
    vec[NUM_CLASSES + 1] = box.size[0] / 5.0
    vec[NUM_CLASSES + 2] = box.size[1] / 5.0
    vec[NUM_CLASSES + 3] = box.size[2] / 3.0
    vec[NUM_CLASSES + 4] = math.sin(box.yaw)
    vec[NUM_CLASSES + 5] = math.cos(box.yaw)
    vec[NUM_CLASSES + 6] = box.velocity[0] / 3.0
    vec[NUM_CLASSES + 7] = box.velocity[1] / 3.0
    return vec


def camera_features(
    frame_boxes: list,
    rig: CameraRig,
    model: ModelSection,
    sim: SimSection,
    rng,
) -> dict:
    """Gaussian blobs at projected object centers over noise plus a fixed
    positional encoding. ``frame_boxes`` holds each frame's boxes, as
    :func:`box_at_frame` poses them. Returns (v, m, t) -> (H, W, C) maps."""
    C = model.channels
    if C < CONTENT_CHANNELS + POSENC_CHANNELS:
        raise SimError(
            f"channels must be >= {CONTENT_CHANNELS + POSENC_CHANNELS} for camera content"
        )
    projected = [project_points(np.array([b.center for b in boxes]).reshape(-1, 3), rig.views)
                 for boxes in frame_boxes]
    maps = {}
    for v in range(model.num_views):
        for m in range(model.num_cam_scales):
            stride = cfg_stride(m, sim.base_stride)
            h = sim.image_height // stride
            w = sim.image_width // stride
            sigma = sim.blob_sigma_px / stride
            for t in range(model.num_frames):
                grid = np.zeros((h, w, C))
                grid[:, :, CONTENT_CHANNELS : CONTENT_CHANNELS + POSENC_CHANNELS] = (
                    positional_encoding(h, w)
                )
                if sim.feature_noise > 0:
                    grid += rng.normal(0.0, sim.feature_noise, size=(h, w, C))
                uvz, hit = projected[t]
                for b_t, proj, seen in zip(frame_boxes[t], uvz[v], hit[v]):
                    if not seen:
                        continue
                    cx, cy = proj[0] / stride, proj[1] / stride
                    xx = np.arange(w) + 0.5
                    yy = np.arange(h) + 0.5
                    g = np.exp(
                        -(
                            (xx[None, :] - cx) ** 2 + (yy[:, None] - cy) ** 2
                        )
                        / (2.0 * sigma * sigma)
                    )
                    content = _content_vector(b_t, proj[2])
                    grid[:, :, :CONTENT_CHANNELS] += g[:, :, None] * content
                maps[(v, m, t)] = grid
    return maps


# ---------------------------------------------------------------------------
# scene assembly
# ---------------------------------------------------------------------------


def generate_scene(model: ModelSection, sim: SimSection, scene_id: int) -> SceneSample:
    """Deterministic scene from (config, sim.seed, scene_id)."""
    seq = np.random.SeedSequence([int(sim.seed), 0x5CE9E, int(scene_id)])
    rng_place, rng_points, rng_cam = [np.random.default_rng(s) for s in seq.spawn(3)]
    det_range = model.detection_range()
    rig = build_rig(model, sim)
    gt_boxes = _place_objects(model, sim, rng_place)

    # each frame's box poses, read by both the LiDAR and the camera; a wide
    # range, fast motion or a long frame_dt can put the ego or a box so far
    # out that the squared distances the sensor models take leave the float
    # range
    frame_boxes = [[box_at_frame(b, rig, t, sim.frame_dt) for b in gt_boxes]
                   for t in range(model.num_frames)]
    centers = np.array([b.center for bs in frame_boxes for b in bs]).reshape(-1, 3)
    if not (np.isfinite(rig.ego_poses).all() and np.isfinite(np.sum(centers * centers))):
        raise SimError(f"model.range_xy, sim.ego_speed={sim.ego_speed:g} and "
                       f"sim.frame_dt={sim.frame_dt:g} put past-frame poses out of the float "
                       "range the sensor models compute in")
    points = []
    obj_ids = []
    for boxes in frame_boxes:
        p, ids = lidar_points(boxes, det_range, sim, rng_points)
        points.append(p)
        obj_ids.append(ids)

    lidar_maps = lidar_bev_features(
        points[0], det_range, model.num_lidar_scales, model.channels, sim.bev_grid
    )
    cam_maps = camera_features(frame_boxes, rig, model, sim, rng_cam)
    return SceneSample(
        scene_id=scene_id,
        gt_boxes=gt_boxes,
        rig=rig,
        points=points,
        obj_ids=obj_ids,
        cam_set=_pack_camera(cam_maps, model, sim),
        lidar_set=LidarFeaturePyramid(lidar_maps, det_range, model.dtype),
    )


# ---------------------------------------------------------------------------
# failure scenarios
# ---------------------------------------------------------------------------


def apply_scenario(
    sample: SceneSample,
    spec: ScenarioSpec,
    model: ModelSection,
    sim: SimSection,
) -> SceneSample:
    """Corrupt sensor data per the scenario; ground truth is never modified.

    Whatever the scenario leaves untouched (a frame's points and ids, the
    packed camera set, the packed LiDAR set) is passed through as the
    input's own object, not copied or rebuilt; a corrupted modality is
    packed once, here.
    """
    if spec.kind not in ScenarioSection.KINDS:
        raise SimError(f"scenario kind must be one of {ScenarioSection.KINDS}, "
                       f"got {spec.kind!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(spec.seed), 0xBAD, int(sample.scene_id)])
    )
    points, obj_ids, cam_maps = sample.points, sample.obj_ids, sample.cam_maps
    cam_set, lidar_set = sample.cam_set, sample.lidar_set
    lidar_frame = 0

    if spec.kind == "fov_limited":
        half = math.radians(spec.angle_deg) / 2.0
        keep = [np.abs(np.arctan2(p[:, 1], p[:, 0])) <= half for p in points]
        points = [p[k] for p, k in zip(points, keep)]
        obj_ids = [i[k] for i, k in zip(obj_ids, keep)]
    elif spec.kind == "object_failure":
        points, obj_ids = list(points), list(obj_ids)
        for t in range(len(points)):
            if rng.random() >= spec.frame_rate:
                continue
            drop = rng.random(len(sample.gt_boxes)) < spec.object_rate
            keep = ~np.isin(obj_ids[t], np.flatnonzero(drop))
            points[t] = points[t][keep]
            obj_ids[t] = obj_ids[t][keep]
    elif spec.kind == "front_occlusion":
        cam_set = _pack_camera({k: np.zeros_like(grid) if k[0] == FRONT_VIEW else grid
                               for k, grid in cam_maps.items()}, model, sim)
    else:  # stuck
        if len(points) < 2:
            raise SimError("stuck scenario requires at least 2 frames")
        if rng.random() < spec.frame_rate:
            if spec.stuck_sensor == "camera":
                last = model.num_frames - 1
                cam_set = _pack_camera({(v, m, t): cam_maps[(v, m, min(t + 1, last))]
                                       for (v, m, t) in cam_maps}, model, sim)
            else:
                lidar_frame = 1

    if points[lidar_frame] is not sample.points[0]:
        det_range = lidar_set.det_range
        lidar_maps = lidar_bev_features(
            points[lidar_frame], det_range, model.num_lidar_scales, model.channels, sim.bev_grid,
        )
        lidar_set = LidarFeaturePyramid(lidar_maps, det_range, model.dtype)
    return replace(sample, points=points, obj_ids=obj_ids, cam_set=cam_set,
                   lidar_set=lidar_set)


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


def write_dataset(out_dir: str, cfg: RunConfig, scenes):
    """Write any iterable of scenes, each as it comes, into a directory next
    to ``out_dir`` that replaces ``out_dir`` once the manifest is written
    last: a write that fails leaves ``out_dir`` as it was. Each scene file
    stores the seed and detection range of ``cfg``."""
    out_dir = os.path.normpath(out_dir)
    tmp = f"{out_dir}.{os.getpid()}.tmp"
    from_cfg = {"seed": cfg.sim.seed, "det_range": cfg.model.detection_range().to_dict()}
    names = []
    try:
        os.makedirs(tmp)
        for sc in scenes:
            name = f"scene_{sc.scene_id:04d}"
            names.append(name)
            d = os.path.join(tmp, name)
            os.mkdir(d)
            side = {
                "scene_id": sc.scene_id,
                "gt_boxes": [b.to_dict() for b in sc.gt_boxes],
                "rig": sc.rig.to_dict(),
                "num_frames": len(sc.points),
                **from_cfg,
            }
            write_json(os.path.join(d, "scene.json"), side)
            for t, (p, ids) in enumerate(zip(sc.points, sc.obj_ids)):
                np.save(os.path.join(d, f"points_t{t}.npy"), p.astype(np.float32))
                np.save(os.path.join(d, f"obj_ids_t{t}.npy"), ids.astype(np.int32))
            for (v, m, t), grid in sorted(sc.cam_maps.items()):
                np.save(os.path.join(d, f"cam_v{v}_m{m}_t{t}.npy"), grid.astype(np.float32))
            for r, grid in enumerate(sc.lidar_maps):
                np.save(os.path.join(d, f"lidar_r{r}.npy"), grid.astype(np.float32))
        manifest = {
            "format_version": FORMAT_VERSION,
            "config_hash": cfg.hash(),
            "dataset_hash": cfg.dataset_hash(),
            "seed": cfg.sim.seed,
            "num_scenes": len(names),
            "scenes": names,
            "config": cfg.to_dict(),
        }
        write_json(os.path.join(tmp, MANIFEST_NAME), manifest)
        if os.path.isdir(out_dir):
            old = f"{tmp}.old"
            os.rename(out_dir, old)
            try:
                os.rename(tmp, out_dir)
            except BaseException:
                os.rename(old, out_dir)
                raise
            shutil.rmtree(old)
        else:
            os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_manifest(dataset_dir: str) -> dict:
    path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise SimError(f"no dataset manifest at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SimError(f"dataset manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SimError(f"dataset manifest {path} is not a JSON object")
    return manifest


def _load_array(d: str, fname: str, shape: tuple, floating: bool = True) -> np.ndarray:
    """One stored array; SimError unless it loads with ``shape`` (None
    matches any size) and, if ``floating``, a floating-point dtype."""
    path = os.path.join(d, fname)
    try:
        arr = np.load(path)
    except FileNotFoundError:
        raise SimError(f"dataset file {path} is missing") from None
    except (OSError, ValueError, EOFError, SyntaxError, tokenize.TokenError) as exc:
        # a damaged header can fail in numpy's header parser
        raise SimError(f"dataset file {path} does not load: {exc}") from None
    if arr.ndim != len(shape) or any(w not in (None, h) for h, w in zip(arr.shape, shape)):
        want = ", ".join("N" if w is None else str(w) for w in shape)
        raise SimError(f"dataset file {path} has shape {arr.shape}, expected ({want})")
    if floating and arr.dtype.kind != "f":
        raise SimError(f"dataset file {path} has dtype {arr.dtype}, expected floating point")
    return arr


def _differing_part(have, want, part: str):
    """The first part of the JSON value ``have`` that is not ``want``, named
    by its keys in words and its indices (``rig ego poses``, ``rig
    views[1] intrinsics[0][0]``); None if the two are equal."""
    if have == want:
        return None
    if isinstance(have, dict) and isinstance(want, dict) and have.keys() == want.keys():
        parts = [(have[k], want[k], f"{part} {k.replace('_', ' ')}") for k in want]
    elif isinstance(have, list) and isinstance(want, list) and len(have) == len(want):
        parts = [(h, w, f"{part}[{i}]") for i, (h, w) in enumerate(zip(have, want))]
    else:
        return part
    return next(_differing_part(*p) for p in parts if p[0] != p[1])


def load_dataset(dataset_dir: str, cfg: RunConfig) -> list:
    """The scenes of a dataset written for ``cfg``.

    SimError unless the manifest's dataset hash is ``cfg``'s, each scene
    file stores the rig, detection range, seed and frame count ``cfg``
    builds, and every file ``cfg`` implies loads with its shape: per frame
    points (N, 4) and N ids, V*M*T camera maps (H/stride, W/stride, C), R
    LiDAR maps halving from ``sim.bev_grid``; points and maps must be
    floating point. Every scene shares the one rig and detection range
    built from ``cfg``, and each modality's maps are packed into one buffer
    at the model's precision.
    """
    manifest = load_manifest(dataset_dir)
    have, want = manifest.get("dataset_hash"), cfg.dataset_hash()
    if have != want:
        raise SimError(f"dataset hash mismatch: dataset {have}, config {want} "
                       "(model/sim sections differ)")
    try:
        names = [str(name) for name in manifest["scenes"]]
    except (KeyError, TypeError) as exc:
        raise SimError(f"dataset manifest in {dataset_dir} is not valid: {exc!r}") from None
    model, sim, C = cfg.model, cfg.sim, cfg.model.channels
    rig, det_range = build_rig(model, sim), model.detection_range()
    # what each scene file must store, as cfg builds it
    stored = {"rig": rig.to_dict(), "det_range": det_range.to_dict(), "seed": sim.seed,
              "num_frames": model.num_frames}
    strides = [cfg_stride(m, sim.base_stride) for m in range(model.num_cam_scales)]
    scenes = []
    for name in names:
        d = os.path.join(dataset_dir, name)
        path = os.path.join(d, "scene.json")
        points = [_load_array(d, f"points_t{t}.npy", (None, 4)) for t in range(model.num_frames)]
        obj_ids = [_load_array(d, f"obj_ids_t{t}.npy", (len(p),), floating=False)
                   for t, p in enumerate(points)]
        cam_maps = {
            (v, m, t): _load_array(d, f"cam_v{v}_m{m}_t{t}.npy",
                                   (sim.image_height // s, sim.image_width // s, C))
            for v in range(model.num_views)
            for m, s in enumerate(strides)
            for t in range(model.num_frames)
        }
        lidar_maps = [_load_array(d, f"lidar_r{r}.npy", (sim.bev_grid >> r, sim.bev_grid >> r, C))
                      for r in range(model.num_lidar_scales)]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                side = json.load(fh)
            for key, value in stored.items():
                part = _differing_part(side[key], value, key.replace("_", " "))
                if part is not None:
                    raise SimError(f"scene file {path} differs from the config in its {part}")
            scenes.append(
                SceneSample(
                    scene_id=side["scene_id"],
                    gt_boxes=[Box3D.from_dict(b) for b in side["gt_boxes"]],
                    rig=rig,
                    points=points,
                    obj_ids=obj_ids,
                    cam_set=_pack_camera(cam_maps, model, sim),
                    lidar_set=LidarFeaturePyramid(lidar_maps, det_range, model.dtype),
                )
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise SimError(f"scene file {path} is not valid: {exc!r}") from None
    return scenes
