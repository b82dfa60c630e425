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


def _pack(maps: list, dtype) -> tuple:
    """Pack (H, W, C) maps row-major into one (S, C) buffer of ``dtype`` (by
    default the maps' common dtype), in list order.

    Returns the buffer, each map's (H, W) shape and start row, and the maps
    rebuilt as views into the buffer, so no map is held twice. The buffer is
    a ``T.concat`` of the maps, so gradients reach maps that require them.
    """
    if len({fm.channels for fm in maps}) != 1:
        raise FeatureMapError("inconsistent channel counts")
    C = maps[0].channels
    values = T.concat([T.reshape(fm.data, (fm.height * fm.width, C)) for fm in maps],
                      dtype=dtype)
    shapes = np.array([(fm.height, fm.width) for fm in maps], dtype=np.int64)
    sizes = shapes[:, 0] * shapes[:, 1]
    starts = np.cumsum(sizes) - sizes
    views = [
        FeatureMap(T.Tensor(values.data[s:s + n].reshape(h, w, C)), fm.scale_id)
        for fm, s, n, (h, w) in zip(maps, starts, sizes, shapes)
    ]
    return values, shapes, starts, views


class CameraFeatureSet:
    """Complete V x M x T grid of camera feature maps plus per-scale strides.

    The maps live in one packed buffer (``values``, ``shapes``, ``starts``,
    as read by ``T.bilinear_sample_packed``) in (view, scale, frame) order,
    converted to ``dtype`` if given; ``get`` returns a view into it.
    """

    def __init__(self, maps: dict, num_views: int, num_scales: int, num_frames: int, strides,
                 dtype=None):
        self.num_views = num_views
        self.num_scales = num_scales
        self.num_frames = num_frames
        self.strides = list(strides)  # pixel-to-texel ratio per scale
        if len(self.strides) != num_scales:
            raise FeatureMapError("one stride per scale required")
        keys = [
            (v, m, t)
            for v in range(num_views)
            for m in range(num_scales)
            for t in range(num_frames)
        ]
        ordered = []
        for key in keys:
            if key not in maps:
                raise FeatureMapError(f"missing camera map {key}")
            fm = maps[key]
            ordered.append(fm if isinstance(fm, FeatureMap) else FeatureMap(fm, scale_id=key[1]))
        self.values, self.shapes, self.starts, views = _pack(ordered, dtype)
        self.maps = dict(zip(keys, views))
        self.channels = ordered[0].channels

    def index(self, view, scale, frame):
        """Position of map (view, scale, frame) in the packed buffer; works
        elementwise on integer arrays."""
        return (view * self.num_scales + scale) * self.num_frames + frame

    def get(self, view: int, scale: int, frame: int) -> FeatureMap:
        return self.maps[(view, scale, frame)]


class LidarFeaturePyramid:
    """Multi-scale BEV feature grids covering one detection range, packed
    into one buffer in scale order like :class:`CameraFeatureSet`."""

    def __init__(self, maps: list, det_range: DetectionRange, dtype=None):
        if not maps:
            raise FeatureMapError("pyramid needs at least one scale")
        ordered = [
            fm if isinstance(fm, FeatureMap) else FeatureMap(fm, scale_id=r)
            for r, fm in enumerate(maps)
        ]
        self.values, self.shapes, self.starts, self.maps = _pack(ordered, dtype)
        self.det_range = det_range
        self.channels = ordered[0].channels

    @property
    def num_scales(self) -> int:
        return len(self.maps)


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
