"""Camera rig model, projections, temporal alignment, rotated-BEV IoU and 3D NMS.

Conventions: the world frame is right-handed Z-up and coincides with the ego
frame of the current timestamp. Camera frames are X-right, Y-down, Z-forward;
``CameraView.extrinsics`` maps world -> camera. Ego poses map the ego frame at
a given timestamp -> world. Boxes are yaw-only (no pitch/roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEPTH_FLOOR = 0.1  # meters; points closer than this to the image plane are not "hit"


class GeometryError(ValueError):
    pass


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def make_rigid(rotation: np.ndarray, translation) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = np.asarray(translation, dtype=float)
    return T


def invert_rigid(T: np.ndarray) -> np.ndarray:
    R = T[:3, :3]
    t = T[:3, 3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ t
    return out


def apply_rigid(T: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to one point (3,) or many (N, 3); a stack
    of transforms (..., 4, 4) broadcasts against the points.

    Each point is its own (1, 3) row-vector product, so a point maps to the
    same bits alone or in a batch; one (N, 3) @ (3, 3) product sums in a
    different order and does not.
    """
    pts = np.ascontiguousarray(pts, dtype=float)
    R_t = np.swapaxes(T[..., :3, :3], -1, -2)
    return (pts[..., None, :] @ R_t)[..., 0, :] + T[..., :3, 3]


def _check_rigid(T: np.ndarray, what: str):
    R = T[:3, :3]
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
        raise GeometryError(f"{what}: rotation block is not orthonormal")
    if np.linalg.det(R) < 0:
        raise GeometryError(f"{what}: rotation block has negative determinant")


@dataclass
class CameraView:
    """One pinhole camera: intrinsics, world->camera extrinsics, image size."""

    intrinsics: np.ndarray  # 3x3 upper-triangular
    extrinsics: np.ndarray  # 4x4 rigid, world -> camera
    image_size: tuple  # (W, H) pixels

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=float)
        self.extrinsics = np.asarray(self.extrinsics, dtype=float)
        fx, fy = self.intrinsics[0, 0], self.intrinsics[1, 1]
        if fx <= 0 or fy <= 0:
            raise GeometryError("focal lengths must be positive")
        _check_rigid(self.extrinsics, "camera extrinsics")

    def to_dict(self) -> dict:
        return {
            "intrinsics": self.intrinsics.tolist(),
            "extrinsics": self.extrinsics.tolist(),
            "image_size": list(self.image_size),
        }


class RigProjection(NamedTuple):
    """A rig's projection constants, stacked as read-only arrays.

    Per frame t, the rotation (transposed, for row vectors) and shift of the
    map from the current frame's ego coordinates into frame t's; per view,
    the same for the extrinsics; then each view's focal lengths, principal
    point and (W, H) image size as (1, V, 1, 2) rows.
    """

    align_rot: np.ndarray  # (T, 3, 3)
    align_shift: np.ndarray  # (T, 1, 3)
    ext_rot: np.ndarray  # (V, 3, 3)
    ext_shift: np.ndarray  # (V, 1, 3)
    focal: np.ndarray  # (1, V, 1, 2)
    principal: np.ndarray  # (1, V, 1, 2)
    image_size: np.ndarray  # (1, V, 1, 2), integer pixels


@dataclass
class CameraRig:
    """All camera views plus per-frame ego poses (ego frame at t -> world).

    A rig is not changed after it is built: its projection constants are
    stacked on first use and kept with it.
    """

    views: list
    ego_poses: list  # T 4x4 transforms; index 0 is the current frame

    def __post_init__(self):
        if len(self.views) < 1 or len(self.ego_poses) < 1:
            raise GeometryError("rig needs at least one view and one ego pose")
        self.ego_poses = [np.asarray(p, dtype=float) for p in self.ego_poses]
        for i, p in enumerate(self.ego_poses):
            _check_rigid(p, f"ego pose {i}")

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def num_frames(self) -> int:
        return len(self.ego_poses)

    @cached_property
    def projection(self) -> RigProjection:
        """This rig's :class:`RigProjection`, built once per rig."""
        rel = np.stack([invert_rigid(pose) @ self.ego_poses[0] for pose in self.ego_poses])
        ext = np.stack([view.extrinsics for view in self.views])
        intr = np.stack([view.intrinsics for view in self.views])
        rows = (1, len(self.views), 1, 2)
        out = RigProjection(
            np.swapaxes(rel[:, :3, :3], 1, 2).copy(), rel[:, None, :3, 3].copy(),
            np.swapaxes(ext[:, :3, :3], 1, 2).copy(), ext[:, None, :3, 3].copy(),
            intr[:, [0, 1], [0, 1]].reshape(rows), intr[:, 0:2, 2].reshape(rows).copy(),
            np.array([view.image_size for view in self.views]).reshape(rows))
        for a in out:
            a.flags.writeable = False
        return out

    def to_dict(self) -> dict:
        return {
            "views": [v.to_dict() for v in self.views],
            "ego_poses": [p.tolist() for p in self.ego_poses],
        }


@dataclass
class Box3D:
    """Yaw-only 3D box: center/size in meters, yaw about +Z, BEV velocity."""

    center: np.ndarray  # (x, y, z)
    size: np.ndarray  # (l, w, h)
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.size = np.asarray(self.size, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if np.any(self.size <= 0):
            raise GeometryError("box sizes must be positive")
        self.yaw = wrap_angle(float(self.yaw))

    def bev_corners(self) -> np.ndarray:
        """The 4 BEV footprint corners, counterclockwise, shape (4, 2)."""
        return bev_corners(self.center[None], self.size[None], [self.yaw])[0]

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "size": self.size.tolist(),
            "yaw": self.yaw,
            "velocity": self.velocity.tolist(),
            "class_id": int(self.class_id),
            "score": float(self.score),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Box3D":
        return cls(
            center=np.array(d["center"]),
            size=np.array(d["size"]),
            yaw=d["yaw"],
            velocity=np.array(d["velocity"]),
            class_id=d["class_id"],
            score=d["score"],
        )


_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def bev_corners(center, size, yaw) -> np.ndarray:
    """BEV footprint corners of N boxes, counterclockwise, shape (N, 4, 2)."""
    local = _CORNER_SIGNS * (size[:, None, :2] / 2)
    c = [math.cos(a) for a in yaw]
    s = [math.sin(a) for a in yaw]
    R = np.array([c, np.negative(s), s, c]).T.reshape(-1, 2, 2)
    # each box's R.T has the memory layout of a lone (2, 2) R.T, so its
    # (4, 2) product sums as the one-box product does
    return local @ R.transpose(0, 2, 1) + center[:, None, :2]


@dataclass
class BoxArray:
    """N yaw-only boxes as arrays; row i holds what a Box3D would hold.

    A read-only sequence: ``len``, ``boxes[i]`` (an int) and iteration give
    the rows as Box3D. Nothing is checked or normalised here: whoever builds
    boxes from raw values keeps sizes positive and wraps yaws with
    ``wrap_angles``, as Box3D does for its own.
    """

    center: np.ndarray  # (N, 3)
    size: np.ndarray  # (N, 3)
    yaw: np.ndarray  # (N,)
    velocity: np.ndarray  # (N, 2)
    class_id: np.ndarray  # (N,)
    score: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i: int) -> Box3D:
        return Box3D(self.center[i].copy(), self.size[i].copy(), float(self.yaw[i]),
                     self.velocity[i].copy(), int(self.class_id[i]), float(self.score[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take(self, idx) -> "BoxArray":
        return BoxArray(self.center[idx], self.size[idx], self.yaw[idx],
                        self.velocity[idx], self.class_id[idx], self.score[idx])

    @classmethod
    def stack(cls, boxes) -> "BoxArray":
        """The boxes of a sequence of Box3D."""
        a = np.array([b.center.tolist() + b.size.tolist() + [b.yaw] + b.velocity.tolist()
                      + [b.class_id, b.score] for b in boxes], dtype=float).reshape(-1, 11)
        return cls(a[:, 0:3], a[:, 3:6], a[:, 6], a[:, 7:9], a[:, 9].astype(np.int64), a[:, 10])


def wrap_angles(a) -> np.ndarray:
    """``wrap_angle`` of each angle in a sequence."""
    return np.array([wrap_angle(x) for x in np.asarray(a, dtype=float).tolist()])


@dataclass
class DetectionRange:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise GeometryError("detection range must have min < max per axis")

    @property
    def extent(self) -> np.ndarray:
        return np.array(
            [self.x_max - self.x_min, self.y_max - self.y_min, self.z_max - self.z_min]
        )

    def to_dict(self) -> dict:
        return {
            "x": [self.x_min, self.x_max],
            "y": [self.y_min, self.y_max],
            "z": [self.z_min, self.z_max],
        }


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def unproject_points(uv, depth, views: list, view_index) -> np.ndarray:
    """Lift image-space centers uv (N, 2) at depths (N,) into the world
    frame; point i was seen by camera ``views[view_index[i]]``."""
    uv = np.asarray(uv, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0):
        raise GeometryError("depth must be positive")
    K = np.stack([view.intrinsics for view in views])
    if np.any(np.abs(np.linalg.det(K)) < 1e-12):
        raise GeometryError("singular intrinsics")
    cam_to_world = np.stack([invert_rigid(view.extrinsics) for view in views])
    pix = np.stack([uv[:, 0] * depth, uv[:, 1] * depth, depth], axis=1)
    # one 3x3 solve per point, as a lone point's solve runs
    rays = np.linalg.solve(K[view_index], pix[:, :, None])[:, :, 0]
    return apply_rigid(cam_to_world[view_index], rays)


def unproject_center(cx: float, cy: float, d: float, view: CameraView) -> np.ndarray:
    """Lift an image-space center at depth d back into the world frame."""
    return unproject_points([[cx, cy]], [d], [view], [0])[0]


def project_points(points, views: list):
    """Pinhole projection of (N, 3) points into each of V views: (V, N, 3)
    rows (u, v, depth) and a (V, N) mask of the points more than DEPTH_FLOOR
    in front of a view and inside its image; (u, v) mean nothing outside it."""
    E = np.stack([view.extrinsics for view in views])[:, None]
    K = np.stack([view.intrinsics for view in views])[:, None]
    W, H = np.array([view.image_size for view in views], dtype=float).T[:, :, None]
    p_cam = apply_rigid(E, points)
    z = p_cam[..., 2]
    front = z > DEPTH_FLOOR
    z_front = np.where(front, z, 1.0)
    u = K[..., 0, 0] * p_cam[..., 0] / z_front + K[..., 0, 2]
    v = K[..., 1, 1] * p_cam[..., 1] / z_front + K[..., 1, 2]
    hit = front & (0.0 <= u) & (u < W) & (0.0 <= v) & (v < H)
    return np.stack([u, v, z], axis=-1), hit


def project_to_view(p, view: CameraView):
    """Pinhole projection; None if behind the near plane or outside the image."""
    uvz, hit = project_points(np.asarray(p, dtype=float)[None], [view])
    return tuple(uvz[0, 0]) if hit[0, 0] else None


def align_temporal(p, rig: CameraRig, t: int, current: int = 0) -> np.ndarray:
    """Map static world points (3,) or (N, 3) into the ego frame of past frame t."""
    if t >= rig.num_frames or current >= rig.num_frames:
        raise GeometryError("frame index out of range")
    rel = invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[current]
    return apply_rigid(rel, p)


# ---------------------------------------------------------------------------
# rotated BEV IoU and NMS
# ---------------------------------------------------------------------------


def _polygon_area(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clip a polygon against the half-plane left of directed edge a->b."""
    edge = b - a
    out = []
    n = len(subject)
    for i in range(n):
        p = subject[i]
        q = subject[(i + 1) % n]
        side_p = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
        side_q = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0])
        if side_p >= 0:
            out.append(p)
            if side_q < 0:
                t = side_p / (side_p - side_q)
                out.append(p + t * (q - p))
        elif side_q > 0:
            t = side_p / (side_p - side_q)
            out.append(p + t * (q - p))
    return np.array(out) if out else np.zeros((0, 2))


def convex_intersection_area(poly_a: np.ndarray, poly_b: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons (clipping)."""
    clipped = poly_a
    nb = len(poly_b)
    for i in range(nb):
        if len(clipped) == 0:
            return 0.0
        clipped = _clip_polygon(clipped, poly_b[i], poly_b[(i + 1) % nb])
    if len(clipped) < 3:
        return 0.0
    return _polygon_area(clipped)


def _corners_iou(ca: np.ndarray, cb: np.ndarray, area_a: float, area_b: float) -> float:
    inter = convex_intersection_area(ca, cb)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def bev_rotated_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the yaw-rotated BEV footprints of two boxes."""
    return _corners_iou(a.bev_corners(), b.bev_corners(),
                        a.size[0] * a.size[1], b.size[0] * b.size[1])


def nms_3d(boxes: BoxArray, iou_threshold: float) -> list:
    """Greedy NMS on rotated BEV IoU; returns kept indices, score-descending.

    Ties in score break by original index so output is input-order
    invariant after the stable sort. A kept box is tested only against the
    unsuppressed boxes after it in score order whose BEV circumcircles
    overlap its own: footprints inside disjoint circles share no area, so
    their IoU is 0 and suppresses nothing at any threshold in [0, 1].
    """
    order = np.argsort(-boxes.score, kind="stable")
    ranked = boxes.take(order)
    corners = bev_corners(ranked.center, ranked.size, ranked.yaw)
    length, width = ranked.size[:, 0], ranked.size[:, 1]
    area = length * width
    radius = 0.5 * np.hypot(length, width)
    d = ranked.center[:, None, :2] - ranked.center[None, :, :2]
    near = np.triu(np.hypot(d[..., 0], d[..., 1]) < radius[:, None] + radius[None], k=1)
    suppressed = np.zeros(len(boxes), dtype=bool)
    kept = []
    for a in range(len(boxes)):
        if suppressed[a]:
            continue
        kept.append(int(order[a]))
        for b in np.flatnonzero(near[a] & ~suppressed):
            if _corners_iou(corners[a], corners[b], area[a], area[b]) > iou_threshold:
                suppressed[b] = True
    return kept
