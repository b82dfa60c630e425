"""Perspective-aware query generation.

An oracle perspective detector (standing in for trained 2D + monocular-3D
sub-networks) emits noisy per-view proposals from ground truth. Proposals
are lifted to 3D along the camera ray, deduplicated with 3D NMS across all
views, ranked globally by score, and the top boxes are turned into queries
whose features are bilinear reads of the camera maps at the projected
centers. The remainder of the query budget is filled with random boxes
carrying a learned default embedding.

Every stage works on arrays (``Proposals``, ``BoxArray``); only the random
draws, whose order is the generator's stream, run one proposal or box at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .classes import SIZE_JITTER, SIZE_PRIORS, draw_class
from .config import ModelSection, OracleSection
from .featuremaps import CameraFeatureSet, sample_view_scale_mean
from .geometry import (
    BoxArray,
    CameraRig,
    DetectionRange,
    align_temporal,
    nms_3d,
    project_points,
    unproject_points,
    wrap_angles,
)
from .queries import QueryBatch, boxes_to_state
from .scenesim import SimError, poisson_count


@dataclass
class Proposals:
    """Per-view detections as arrays: 2D centers plus raw 3D attributes."""

    view: np.ndarray  # (N,) camera index
    uv: np.ndarray  # (N, 2) pixel centers
    depth: np.ndarray  # (N,)
    size: np.ndarray  # (N, 3)
    yaw: np.ndarray  # (N,)
    velocity: np.ndarray  # (N, 2)
    score: np.ndarray  # (N,)
    class_id: np.ndarray  # (N,)

    def __post_init__(self):
        if np.any(self.depth <= 0):
            raise ValueError("proposal depth must be positive")
        if np.any(self.size <= 0):
            raise ValueError("proposal sizes must be positive")
        if np.any((self.score < 0.0) | (self.score > 1.0)):
            raise ValueError("proposal score must be in [0, 1]")

    def __len__(self) -> int:
        return len(self.view)

    def take(self, idx) -> "Proposals":
        return Proposals(*(getattr(self, f.name)[idx] for f in fields(self)))


def _liftable(values: np.ndarray, oracle: OracleSection, key: str, dtype=np.float64,
              positive: bool = True) -> np.ndarray:
    """True-positive values drawn with noise of scale ``sim.oracle.<key>``;
    SimError unless each is finite at ``dtype`` and positive where
    ``positive``."""
    if np.all(np.abs(values) <= np.finfo(dtype).max) and not (positive and np.any(values <= 0)):
        return values
    what = "finite and positive" if positive else "finite"
    raise SimError(f"sim.oracle.{key}={getattr(oracle, key):g} draws proposal values "
                   f"that are not {what} as {np.dtype(dtype)}")


def perspective_oracle(
    gt: BoxArray,
    rig: CameraRig,
    oracle: OracleSection,
    rng: np.random.Generator,
    det_range: DetectionRange,
    dtype=np.float64,
) -> Proposals:
    """Noisy proposals per view from ground truth, plus false positives.

    Scores decrease monotonically with the injected pixel-noise magnitude;
    false-positive counts are Poisson per view with low scores. Proposals
    come in view order, each view's true positives (GT order) before its
    false positives. True-positive sizes and velocities, which the decoder
    takes unclipped, must be finite at ``dtype``, the model's precision.

    Draws with array arguments are written as numpy computes them
    (``loc + scale * standard_normal``, ``low + (high - low) * random``):
    the same numbers and stream, without ``normal``'s and ``uniform``'s
    per-call argument checks, which cost more than the draws.
    """
    o = oracle
    # one normal draw per noise term: pixel (2), depth, size (3), yaw, velocity (2)
    scale = np.array([o.pixel_sigma, o.pixel_sigma, o.depth_sigma, o.size_sigma,
                      o.size_sigma, o.size_sigma, o.yaw_sigma, o.vel_sigma, o.vel_sigma])
    max_depth = 0.9 * max(det_range.x_max, det_range.y_max)
    # false-positive draws: pixel (u, v), depth, yaw, score
    fp_low = np.array([0.0, 0.0, 2.0, -math.pi, 0.05])
    uvz, hit = project_points(gt.center, rig.views)
    tp, noise = [], []  # true positives: (view, GT index) and their noise rows
    fp, fp_size, fp_draws = [], [], []  # false positives: (view, class), size, draws
    for v, view in enumerate(rig.views):
        for g in np.flatnonzero(hit[v]).tolist():
            if o.miss_rate > 0 and rng.random() < o.miss_rate:
                continue
            tp.append((v, g))
            noise.append(0.0 + scale * rng.standard_normal(9))  # rng.normal(0.0, scale)
        W, H = view.image_size
        fp_span = np.array([W, H, max_depth, math.pi, 0.3]) - fp_low
        for _ in range(poisson_count(rng, o.fp_rate, "sim.oracle.fp_rate")):
            cls = draw_class(rng)
            fp.append((v, cls))
            fp_size.append(SIZE_PRIORS[cls] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3)))
            fp_draws.append(fp_low + fp_span * rng.random(5))  # rng.uniform(low, high)

    tp_view, g = np.array(tp, dtype=np.int64).reshape(-1, 2).T
    noise = np.array(noise).reshape(-1, 9)
    uvz = uvz[tp_view, g]
    edge = np.array([vw.image_size for vw in rig.views], dtype=float)[tp_view] - 1e-3
    du = noise[:, 0:2]
    sigma_max = 3.0 * o.pixel_sigma
    if sigma_max > 0:
        # each norm is one (1, 2) @ (2, 1) dot, the sum np.linalg.norm takes
        norm = np.sqrt((du[:, None, :] @ du[:, :, None])[:, 0, 0])
        score = np.clip(1.0 - norm / sigma_max, 0.05, 1.0)
    else:
        score = np.ones(len(tp))
    fp_view, fp_cls = np.array(fp, dtype=np.int64).reshape(-1, 2).T
    fp_draws = np.array(fp_draws).reshape(-1, 5)
    # depth noise goes through math.exp and size noise through np.exp, as in
    # the scalar oracle: the two round some inputs differently
    try:
        depth = uvz[:, 2] * [math.exp(x) for x in noise[:, 2].tolist()]
    except OverflowError:  # a factor past the float range, refused below
        depth = np.full(len(tp), math.inf)
    size = gt.size[g] * np.exp(np.ascontiguousarray(noise[:, 3:6]))
    proposals = Proposals(
        view=np.concatenate([tp_view, fp_view]),
        uv=np.concatenate([np.clip(uvz[:, :2] + du, 0.0, edge), fp_draws[:, 0:2]]),
        depth=np.concatenate([_liftable(depth, o, "depth_sigma"), fp_draws[:, 2]]),
        size=np.concatenate([_liftable(size, o, "size_sigma", dtype),
                             np.reshape(fp_size, (-1, 3))]),
        yaw=np.concatenate([_liftable(gt.yaw[g] + noise[:, 6], o, "yaw_sigma", positive=False),
                            fp_draws[:, 3]]),
        velocity=np.concatenate([_liftable(gt.velocity[g] + noise[:, 7:9], o, "vel_sigma",
                                           dtype, positive=False), np.zeros((len(fp), 2))]),
        score=np.concatenate([score, fp_draws[:, 4]]),
        class_id=np.concatenate([gt.class_id[g], fp_cls]),
    )
    is_fp = np.arange(len(proposals)) >= len(tp)
    return proposals.take(np.argsort(2 * proposals.view + is_fp, kind="stable"))


def lift_proposals(proposals: Proposals, rig: CameraRig) -> BoxArray:
    """Unproject proposal centers along their camera rays into 3D boxes."""
    bad = (proposals.view < 0) | (proposals.view >= rig.num_views)
    if np.any(bad):
        raise ValueError(f"proposal references missing view {proposals.view[bad][0]}")
    center = unproject_points(proposals.uv, proposals.depth, rig.views, proposals.view)
    return BoxArray(center, proposals.size, wrap_angles(proposals.yaw),
                    proposals.velocity, proposals.class_id, proposals.score)


def select_topk(boxes: BoxArray, cfg: ModelSection) -> BoxArray:
    """Cross-view 3D NMS then global top-N_k by score (possibly fewer)."""
    kept = nms_3d(boxes, cfg.nms_iou)
    return boxes.take(np.array(kept[: cfg.num_top], dtype=np.int64))


def random_queries(
    count: int,
    det_range: DetectionRange,
    rng: np.random.Generator,
) -> BoxArray:
    """Random boxes: uniform centers/yaw, class-prior sizes, zero velocity.

    Per box, in stream order: the class, the center (x, y, z), the size
    jitter, the yaw.
    """
    cls = np.zeros(count, dtype=np.int64)
    size, u_center, u_yaw = np.zeros((count, 3)), np.zeros((count, 3)), np.zeros(count)
    for i in range(count):
        c = cls[i] = draw_class(rng)
        u_center[i] = rng.random(3)
        size[i] = SIZE_PRIORS[c] * np.exp(rng.normal(0.0, SIZE_JITTER, size=3))
        u_yaw[i] = rng.random()
    # rng.uniform(low, high), draw for draw
    r = det_range
    low = np.array([r.x_min, r.y_min, r.z_min])
    center = low + (np.array([r.x_max, r.y_max, r.z_max]) - low) * u_center
    yaw = -math.pi + (math.pi - -math.pi) * u_yaw
    return BoxArray(center, size, wrap_angles(yaw), np.zeros((count, 2)), cls,
                    np.zeros(count))


def init_queries(
    boxes: BoxArray,
    cam_feats: CameraFeatureSet,
    rig: CameraRig,
    det_range: DetectionRange,
) -> tuple:
    """Per-box features: view-mean/scale-sum bilinear reads at the projected
    center (current frame), for all boxes in one packed read.

    Returns the (len(boxes), C) rows (zero for a box no view sees), each
    box's seen flag and the boxes with centers clamped to the range.
    """
    r = det_range
    center = np.clip(boxes.center, [r.x_min, r.y_min, r.z_min], [r.x_max, r.y_max, r.z_max])
    boxes = BoxArray(center, boxes.size, boxes.yaw, boxes.velocity, boxes.class_id,
                     boxes.score)
    uvz, hit = project_points(align_temporal(center, rig, 0), rig.views)
    seen = hit.any(axis=0)
    if not seen.any():
        zero = np.zeros((len(boxes), cam_feats.channels), cam_feats.values.dtype)
        return T.Tensor(zero), seen, boxes
    # hits in box then view order
    hit_box, hit_view = np.nonzero(hit.T)
    uv = uvz[hit_view, hit_box, :2]
    return sample_view_scale_mean(cam_feats, hit_box, hit_view, uv, len(boxes)), seen, boxes


def generate_queries(
    gt_boxes: BoxArray,
    rig: CameraRig,
    cam_feats: CameraFeatureSet,
    cfg: ModelSection,
    oracle: OracleSection,
    default_embedding: T.Tensor,
    rng: np.random.Generator,
) -> QueryBatch:
    """Full query-generation pipeline; always returns exactly N_q queries,
    whose features are one gather (README "Model notes": dtype, gradient order).
    """
    det_range = cfg.detection_range()
    proposals = perspective_oracle(gt_boxes, rig, oracle, rng, det_range, cfg.dtype)
    top = select_topk(lift_proposals(proposals, rig), cfg)
    rows, seen, top = init_queries(top, cam_feats, rig, det_range)
    rand = random_queries(cfg.num_queries - len(top), det_range, rng)
    embedding = T.reshape(default_embedding, (1, cfg.channels))
    index = np.full(cfg.num_queries, len(top))  # the embedding row
    index[:len(top)] = np.where(seen, np.arange(len(top)), len(top))
    # the embedding enters the table, and the tape, only if a query reads it
    table = rows if index.max() < len(top) else T.concat([rows, embedding])
    features = T.gather_rows(table, index)
    state = np.concatenate([boxes_to_state(top), boxes_to_state(rand)]).astype(cfg.dtype)
    return QueryBatch(features=features, box_state=T.Tensor(state))
