"""Query generation one proposal and one box at a time: the reference that
``fusiondet.paqg`` must match bit for bit.

Every stage keeps its scalar form: point-by-point projection and lifting,
per-proposal and per-box random draws through ``rng.choice``, greedy NMS that
tests every pair, per-(box, hit view, scale) bilinear reads, and ``Box3D``
objects throughout. ``generate_queries`` has the signature of
``fusiondet.paqg.generate_queries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fusiondet import tensor as T
from fusiondet.classes import CLASS_MIX, NUM_CLASSES, SIZE_JITTER, SIZE_PRIORS
from fusiondet.geometry import Box3D, convex_intersection_area, invert_rigid
from fusiondet.queries import QueryBatch

DEPTH_FLOOR = 0.1


def apply_rigid(T4: np.ndarray, p) -> np.ndarray:
    return np.asarray(p, dtype=float) @ T4[:3, :3].T + T4[:3, 3]


def project_to_view(p, view, depth_floor: float = DEPTH_FLOOR):
    p_cam = apply_rigid(view.extrinsics, p)
    z = p_cam[2]
    if z <= depth_floor:
        return None
    K = view.intrinsics
    u = K[0, 0] * p_cam[0] / z + K[0, 2]
    v = K[1, 1] * p_cam[1] / z + K[1, 2]
    W, H = view.image_size
    if not (0.0 <= u < W and 0.0 <= v < H):
        return None
    return (u, v, z)


def unproject_center(cx, cy, d, view) -> np.ndarray:
    ray = np.linalg.solve(view.intrinsics, np.array([cx * d, cy * d, d]))
    return apply_rigid(invert_rigid(view.extrinsics), ray)


def align_temporal(p, rig, t: int, current: int = 0) -> np.ndarray:
    rel = invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[current]
    return apply_rigid(rel, p)


def hit_views(p, rig, t: int = 0) -> list:
    """Indices of views in which the (temporally aligned) point projects."""
    p_t = align_temporal(p, rig, t)
    return [i for i, v in enumerate(rig.views) if project_to_view(p_t, v) is not None]


def bev_rotated_iou(a: Box3D, b: Box3D) -> float:
    def corners(box):
        l, w = box.size[0], box.size[1]
        local = np.array([[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]])
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        return local @ np.array([[c, -s], [s, c]]).T + box.center[:2]

    inter = convex_intersection_area(corners(a), corners(b))
    union = a.size[0] * a.size[1] + b.size[0] * b.size[1] - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def nms_3d(boxes: list, iou_threshold: float = 0.5) -> list:
    """Greedy NMS testing every unsuppressed pair."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        for j in order:
            if j == i or suppressed[j]:
                continue
            if bev_rotated_iou(boxes[i], boxes[j]) > iou_threshold:
                suppressed[j] = True
    return kept


@dataclass
class PerspectiveProposal:
    view: int
    cx: float
    cy: float
    depth: float
    size: np.ndarray
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    score: float = 1.0
    class_id: int = 0


def perspective_oracle(gt_boxes, rig, oracle, rng, det_range) -> list:
    proposals = []
    sigma_max = 3.0 * oracle.pixel_sigma
    for v, view in enumerate(rig.views):
        W, H = view.image_size
        for box in gt_boxes:
            proj = project_to_view(box.center, view)
            if proj is None:
                continue
            if oracle.miss_rate > 0 and rng.random() < oracle.miss_rate:
                continue
            du = rng.normal(0.0, oracle.pixel_sigma, size=2)
            cx = float(np.clip(proj[0] + du[0], 0.0, W - 1e-3))
            cy = float(np.clip(proj[1] + du[1], 0.0, H - 1e-3))
            depth = proj[2] * math.exp(rng.normal(0.0, oracle.depth_sigma))
            size = box.size * np.exp(rng.normal(0.0, oracle.size_sigma, size=3))
            yaw = box.yaw + rng.normal(0.0, oracle.yaw_sigma)
            vel = box.velocity + rng.normal(0.0, oracle.vel_sigma, size=2)
            if sigma_max > 0:
                score = float(np.clip(1.0 - np.linalg.norm(du) / sigma_max, 0.05, 1.0))
            else:
                score = 1.0
            proposals.append(PerspectiveProposal(v, cx, cy, depth, size, yaw, vel, score,
                                                 box.class_id))
        for _ in range(rng.poisson(oracle.fp_rate)):
            cls = int(rng.choice(NUM_CLASSES, p=CLASS_MIX))
            size = SIZE_PRIORS[cls] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3))
            max_depth = 0.9 * max(det_range.x_max, det_range.y_max)
            proposals.append(
                PerspectiveProposal(
                    view=v,
                    cx=float(rng.uniform(0.0, W)),
                    cy=float(rng.uniform(0.0, H)),
                    depth=float(rng.uniform(2.0, max_depth)),
                    size=size,
                    yaw=float(rng.uniform(-math.pi, math.pi)),
                    velocity=np.zeros(2),
                    score=float(rng.uniform(0.05, 0.3)),
                    class_id=cls,
                )
            )
    return proposals


def lift_proposals(proposals: list, rig) -> list:
    return [Box3D(unproject_center(p.cx, p.cy, p.depth, rig.views[p.view]), p.size, p.yaw,
                  p.velocity, p.class_id, p.score) for p in proposals]


def select_topk(boxes: list, cfg) -> list:
    return [boxes[i] for i in nms_3d(boxes, cfg.nms_iou)[: cfg.num_top]]


def random_queries(count: int, det_range, rng) -> list:
    out = []
    for _ in range(count):
        cls = int(rng.choice(NUM_CLASSES, p=CLASS_MIX))
        center = np.array([
            rng.uniform(det_range.x_min, det_range.x_max),
            rng.uniform(det_range.y_min, det_range.y_max),
            rng.uniform(det_range.z_min, det_range.z_max),
        ])
        size = SIZE_PRIORS[cls] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3))
        out.append(Box3D(center, size, float(rng.uniform(-math.pi, math.pi)), np.zeros(2),
                         cls, 0.0))
    return out


def clamp_to_range(box: Box3D, det_range) -> Box3D:
    c = box.center.copy()
    c[0] = np.clip(c[0], det_range.x_min, det_range.x_max)
    c[1] = np.clip(c[1], det_range.y_min, det_range.y_max)
    c[2] = np.clip(c[2], det_range.z_min, det_range.z_max)
    return Box3D(c, box.size, box.yaw, box.velocity, box.class_id, box.score)


def packed_map(feats, i) -> T.Tensor:
    """Map ``i`` of a packed feature container as an (H, W, C) Tensor."""
    (h, w), start = feats.shapes[i], feats.starts[i]
    return T.Tensor(feats.values.data[start:start + h * w].reshape(h, w, feats.channels))


def init_queries(boxes, cam_feats, rig, default_embedding, det_range) -> list:
    """One bilinear read per (box, hit view, scale): views averaged and scales
    summed box by box, in view then scale order."""
    out = []
    for box in boxes:
        box = clamp_to_range(box, det_range)
        hit = hit_views(box.center, rig, 0)
        if not hit:
            out.append((default_embedding, box))
            continue
        p = align_temporal(box.center, rig, 0)
        acc = None
        for v in hit:
            u, w, _ = project_to_view(p, rig.views[v])
            for m in range(cam_feats.num_scales):
                stride = cam_feats.strides[m]
                s = T.bilinear_sample(packed_map(cam_feats, cam_feats.index(v, m, 0)),
                                      np.array([u / stride, w / stride]))
                acc = s if acc is None else T.add(acc, s)
        out.append((T.mul(acc, 1.0 / len(hit)), box))
    return out


def boxes_to_state(boxes: list, dtype=np.float64) -> np.ndarray:
    if not boxes:
        return np.zeros((0, 10), dtype=dtype)
    return np.stack([np.array([
        b.center[0], b.center[1], b.center[2],
        math.log(b.size[0]), math.log(b.size[1]), math.log(b.size[2]),
        math.sin(b.yaw), math.cos(b.yaw), b.velocity[0], b.velocity[1],
    ]) for b in boxes]).astype(dtype)


def generate_queries(gt_boxes, rig, cam_feats, cfg, oracle, default_embedding,
                     rng) -> QueryBatch:
    det_range = cfg.detection_range()
    proposals = perspective_oracle(gt_boxes, rig, oracle, rng, det_range)
    top = select_topk(lift_proposals(proposals, rig), cfg)
    initialized = init_queries(top, cam_feats, rig, default_embedding, det_range)
    rand_boxes = random_queries(cfg.num_queries - len(initialized), det_range, rng)
    rows = [f for f, _ in initialized] + [default_embedding] * len(rand_boxes)
    features = T.concat([T.reshape(f, (1, cfg.channels)) for f in rows], axis=0)
    state = boxes_to_state([b for _, b in initialized] + rand_boxes, dtype=cfg.dtype)
    return QueryBatch(features=features, box_state=T.Tensor(state))
