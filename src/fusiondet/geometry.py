"""Camera rig model, projections, temporal alignment, rotated-BEV IoU and 3D NMS.

Conventions: the world frame is right-handed Z-up and coincides with the ego
frame of the current timestamp. Camera frames are X-right, Y-down, Z-forward;
``CameraView.extrinsics`` maps world -> camera. Ego poses map the ego frame at
a given timestamp -> world. Boxes are yaw-only (no pitch/roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Apply a 4x4 rigid transform to one point (3,) or many (N, 3)."""
    pts = np.asarray(pts, dtype=float)
    return pts @ T[:3, :3].T + T[:3, 3]


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

    @classmethod
    def from_dict(cls, d: dict) -> "CameraView":
        return cls(
            intrinsics=np.array(d["intrinsics"]),
            extrinsics=np.array(d["extrinsics"]),
            image_size=tuple(d["image_size"]),
        )


@dataclass
class CameraRig:
    """All camera views plus per-frame ego poses (ego frame at t -> world)."""

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

    def to_dict(self) -> dict:
        return {
            "views": [v.to_dict() for v in self.views],
            "ego_poses": [p.tolist() for p in self.ego_poses],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CameraRig":
        return cls(
            views=[CameraView.from_dict(v) for v in d["views"]],
            ego_poses=[np.array(p) for p in d["ego_poses"]],
        )


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
        l, w = self.size[0], self.size[1]
        local = np.array(
            [[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]]
        )
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        R = np.array([[c, -s], [s, c]])
        return local @ R.T + self.center[:2]

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

    def contains(self, p) -> bool:
        x, y, z = np.asarray(p, dtype=float)[:3]
        return (
            self.x_min <= x <= self.x_max
            and self.y_min <= y <= self.y_max
            and self.z_min <= z <= self.z_max
        )

    def to_dict(self) -> dict:
        return {
            "x": [self.x_min, self.x_max],
            "y": [self.y_min, self.y_max],
            "z": [self.z_min, self.z_max],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionRange":
        return cls(d["x"][0], d["x"][1], d["y"][0], d["y"][1], d["z"][0], d["z"][1])


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def unproject_center(cx: float, cy: float, d: float, view: CameraView) -> np.ndarray:
    """Lift an image-space center at depth d back into the world frame."""
    if d <= 0:
        raise GeometryError("depth must be positive")
    K = view.intrinsics
    if abs(np.linalg.det(K)) < 1e-12:
        raise GeometryError("singular intrinsics")
    ray = np.linalg.solve(K, np.array([cx * d, cy * d, d]))
    cam_to_world = invert_rigid(view.extrinsics)
    return apply_rigid(cam_to_world, ray)


def project_to_view(p, view: CameraView, depth_floor: float = DEPTH_FLOOR):
    """Pinhole projection; None if behind the near plane or outside the image."""
    p_cam = apply_rigid(view.extrinsics, np.asarray(p, dtype=float))
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


def align_temporal(p, rig: CameraRig, t: int, current: int = 0) -> np.ndarray:
    """Map a static world point into the ego frame of past frame t."""
    if t >= rig.num_frames or current >= rig.num_frames:
        raise GeometryError("frame index out of range")
    rel = invert_rigid(rig.ego_poses[t]) @ rig.ego_poses[current]
    return apply_rigid(rel, p)


def hit_views(p, rig: CameraRig, t: int = 0) -> list:
    """Indices of views in which the (temporally aligned) point projects."""
    p_t = align_temporal(p, rig, t)
    return [i for i, v in enumerate(rig.views) if project_to_view(p_t, v) is not None]


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


def bev_rotated_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the yaw-rotated BEV footprints of two boxes."""
    ca = a.bev_corners()
    cb = b.bev_corners()
    inter = convex_intersection_area(ca, cb)
    area_a = a.size[0] * a.size[1]
    area_b = b.size[0] * b.size[1]
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def nms_3d(boxes: list, iou_threshold: float = 0.5) -> list:
    """Greedy NMS on rotated BEV IoU; returns kept indices, score-descending.

    Ties in score break by original index so output is input-order invariant
    after the stable sort.
    """
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
