"""Perspective-aware query generation.

An oracle perspective detector (standing in for trained 2D + monocular-3D
sub-networks) emits noisy per-view proposals from ground truth. Proposals
are lifted to 3D along the camera ray, deduplicated with 3D NMS across all
views, ranked globally by score, and the top boxes are turned into queries
whose features are bilinear reads of the camera maps at the projected
centers. The remainder of the query budget is filled with random boxes
carrying a learned default embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .classes import CLASS_MIX, NUM_CLASSES, SIZE_JITTER, SIZE_PRIORS
from .config import ModelSection, OracleSection
from .featuremaps import CameraFeatureSet, sample_view_scale_mean
from .geometry import (
    Box3D,
    CameraRig,
    DetectionRange,
    align_temporal,
    nms_3d,
    project_to_view,
    unproject_center,
)
from .queries import QueryBatch, boxes_to_state


@dataclass
class PerspectiveProposal:
    """One per-view detection: 2D center + raw 3D attributes."""

    view: int
    cx: float
    cy: float
    depth: float
    size: np.ndarray
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    score: float = 1.0
    class_id: int = 0

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError("proposal depth must be positive")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("proposal score must be in [0, 1]")


def perspective_oracle(
    gt_boxes: list,
    rig: CameraRig,
    oracle: OracleSection,
    rng: np.random.Generator,
    det_range: DetectionRange,
) -> list:
    """Noisy proposals per view from ground truth, plus false positives.

    Scores decrease monotonically with the injected pixel-noise magnitude;
    false-positive counts are Poisson per view with low scores.
    """
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
            proposals.append(
                PerspectiveProposal(
                    view=v, cx=cx, cy=cy, depth=depth, size=size, yaw=yaw,
                    velocity=vel, score=score, class_id=box.class_id,
                )
            )
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


def lift_proposals(proposals: list, rig: CameraRig) -> list:
    """Unproject proposal centers along their camera rays into 3D boxes."""
    boxes = []
    for p in proposals:
        if p.view < 0 or p.view >= rig.num_views:
            raise ValueError(f"proposal references missing view {p.view}")
        center = unproject_center(p.cx, p.cy, p.depth, rig.views[p.view])
        boxes.append(
            Box3D(
                center=center,
                size=p.size,
                yaw=p.yaw,
                velocity=p.velocity,
                class_id=p.class_id,
                score=p.score,
            )
        )
    return boxes


def select_topk(boxes: list, cfg: ModelSection) -> list:
    """Cross-view 3D NMS then global top-N_k by score (possibly fewer)."""
    kept = nms_3d(boxes, cfg.nms_iou)
    return [boxes[i] for i in kept[: cfg.num_top]]


def random_queries(
    count: int,
    det_range: DetectionRange,
    rng: np.random.Generator,
) -> list:
    """Random boxes: uniform centers/yaw, class-prior sizes, zero velocity."""
    out = []
    for _ in range(count):
        cls = int(rng.choice(NUM_CLASSES, p=CLASS_MIX))
        center = np.array(
            [
                rng.uniform(det_range.x_min, det_range.x_max),
                rng.uniform(det_range.y_min, det_range.y_max),
                rng.uniform(det_range.z_min, det_range.z_max),
            ]
        )
        size = SIZE_PRIORS[cls] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3))
        out.append(
            Box3D(
                center=center,
                size=size,
                yaw=float(rng.uniform(-math.pi, math.pi)),
                velocity=np.zeros(2),
                class_id=cls,
                score=0.0,
            )
        )
    return out


def _clamp_to_range(box: Box3D, det_range: DetectionRange) -> Box3D:
    c = box.center.copy()
    c[0] = np.clip(c[0], det_range.x_min, det_range.x_max)
    c[1] = np.clip(c[1], det_range.y_min, det_range.y_max)
    c[2] = np.clip(c[2], det_range.z_min, det_range.z_max)
    return Box3D(c, box.size, box.yaw, box.velocity, box.class_id, box.score)


def init_queries(
    boxes: list,
    cam_feats: CameraFeatureSet,
    rig: CameraRig,
    default_embedding: T.Tensor,
    det_range: DetectionRange,
) -> list:
    """Per-box features: view-mean/scale-sum bilinear reads at the projected
    center (current frame), for all boxes in one packed read; boxes outside
    every frustum get the learned default embedding."""
    boxes = [_clamp_to_range(box, det_range) for box in boxes]
    hit_box, hit_view, hit_uv = [], [], []
    for i, box in enumerate(boxes):
        p = align_temporal(box.center, rig, 0)
        for v, view in enumerate(rig.views):
            proj = project_to_view(p, view)
            if proj is not None:
                hit_box.append(i)
                hit_view.append(v)
                hit_uv.append(proj[:2])
    if not hit_box:
        return [(default_embedding, box) for box in boxes]
    rows = sample_view_scale_mean(cam_feats, hit_box, hit_view, hit_uv, len(boxes))
    seen = set(hit_box)
    return [(T.narrow(rows, 0, i, 1) if i in seen else default_embedding, box)
            for i, box in enumerate(boxes)]


def generate_queries(
    gt_boxes: list,
    rig: CameraRig,
    cam_feats: CameraFeatureSet,
    cfg: ModelSection,
    oracle: OracleSection,
    default_embedding: T.Tensor,
    rng: np.random.Generator,
) -> QueryBatch:
    """Full query-generation pipeline; always returns exactly N_q queries."""
    det_range = cfg.detection_range()
    proposals = perspective_oracle(gt_boxes, rig, oracle, rng, det_range)
    lifted = lift_proposals(proposals, rig)
    top = select_topk(lifted, cfg)
    initialized = init_queries(top, cam_feats, rig, default_embedding, det_range)

    n_pad = cfg.num_queries - len(initialized)
    rand_boxes = random_queries(n_pad, det_range, rng)

    feature_rows = [f for f, _ in initialized] + [default_embedding] * len(rand_boxes)
    boxes = [b for _, b in initialized] + rand_boxes
    # joined row by row: the batch dtype (under single precision, float32
    # only when every row is the default embedding) and the order in which
    # the embedding's gradients add up follow from it, and outputs depend on
    # both
    features = T.concat([T.reshape(f, (1, cfg.channels)) for f in feature_rows], axis=0)
    state = T.Tensor(boxes_to_state(boxes, dtype=cfg.dtype))
    return QueryBatch(features=features, box_state=state)
