"""Feature-grid containers for both modalities and bilinear sampling over them.

Camera features are indexed by (view, scale, frame) and live on texel grids
whose pixel-to-texel ratio is the per-scale stride; LiDAR features are BEV
grids over the detection range, one per scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import CameraRig, DetectionRange, align_temporal, project_to_view


class FeatureMapError(ValueError):
    pass


@dataclass
class FeatureMap:
    """One dense (H, W, C) feature grid."""

    data: T.Tensor
    scale_id: int = 0

    def __post_init__(self):
        if not isinstance(self.data, T.Tensor):
            self.data = T.Tensor(self.data)
        if self.data.ndim != 3:
            raise FeatureMapError("feature map must be (H, W, C)")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


class CameraFeatureSet:
    """Complete V x M x T grid of camera feature maps plus per-scale strides."""

    def __init__(self, maps: dict, num_views: int, num_scales: int, num_frames: int, strides):
        self.num_views = num_views
        self.num_scales = num_scales
        self.num_frames = num_frames
        self.strides = list(strides)  # pixel-to-texel ratio per scale
        if len(self.strides) != num_scales:
            raise FeatureMapError("one stride per scale required")
        self.maps = {}
        channels = None
        for v in range(num_views):
            for m in range(num_scales):
                for t in range(num_frames):
                    key = (v, m, t)
                    if key not in maps:
                        raise FeatureMapError(f"missing camera map {key}")
                    fm = maps[key]
                    if not isinstance(fm, FeatureMap):
                        fm = FeatureMap(fm, scale_id=m)
                    if channels is None:
                        channels = fm.channels
                    elif fm.channels != channels:
                        raise FeatureMapError("inconsistent channel counts")
                    self.maps[key] = fm
        self.channels = channels

    def get(self, view: int, scale: int, frame: int) -> FeatureMap:
        return self.maps[(view, scale, frame)]


class LidarFeaturePyramid:
    """Multi-scale BEV feature grids covering one detection range."""

    def __init__(self, maps: list, det_range: DetectionRange):
        if not maps:
            raise FeatureMapError("pyramid needs at least one scale")
        self.maps = []
        channels = None
        for r, fm in enumerate(maps):
            if not isinstance(fm, FeatureMap):
                fm = FeatureMap(fm, scale_id=r)
            if channels is None:
                channels = fm.channels
            elif fm.channels != channels:
                raise FeatureMapError("inconsistent channel counts")
            self.maps.append(fm)
        self.det_range = det_range
        self.channels = channels

    @property
    def num_scales(self) -> int:
        return len(self.maps)

    def grid_shape(self, r: int) -> tuple:
        fm = self.maps[r]
        return (fm.width, fm.height)  # (cols, rows)


def sample_view_scale_mean(
    feats: CameraFeatureSet,
    p3,
    rig: CameraRig,
    t: int,
    hit,
) -> T.Tensor:
    """Mean over hit views of the sum over scales of bilinear samples at p3.

    The point is temporally aligned to frame t, projected per view at full
    pixel resolution, and coordinates are rescaled by the per-scale stride.
    """
    hit = list(hit)
    if not hit:
        raise FeatureMapError("empty hit-view set")
    p_t = align_temporal(np.asarray(p3, dtype=float), rig, t)
    acc = None
    for v in hit:
        proj = project_to_view(p_t, rig.views[v])
        if proj is None:
            continue
        u, v_pix, _ = proj
        for m in range(feats.num_scales):
            stride = feats.strides[m]
            coords = np.array([u / stride, v_pix / stride])
            s = T.bilinear_sample(feats.get(v, m, t).data, coords)
            acc = s if acc is None else T.add(acc, s)
    if acc is None:
        raise FeatureMapError("no hit view produced a projection")
    return T.mul(acc, 1.0 / len(hit))
