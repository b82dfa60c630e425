"""Feature-grid containers for both modalities and the PAQG read over them.

Camera features are indexed by (view, scale, frame) and live on texel grids
whose pixel-to-texel ratio is the per-scale stride; LiDAR features are BEV
grids over the detection range, one per scale. Each container holds its
maps only as one packed buffer, the form ``T.bilinear_sample_packed`` reads,
at the dtype it was packed at: the model's precision for a scene.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .geometry import DetectionRange


class FeatureMapError(ValueError):
    pass


def _pack(maps: list, dtype=None) -> tuple:
    """Pack (H, W, C) maps (arrays or Tensors) row-major into one (S, C)
    buffer of ``dtype`` (default: the maps' common dtype), in list order, in
    one copy.

    Returns the buffer and each map's (H, W) shape and start row. Maps that
    require a gradient must all be at ``dtype`` (``GraphError`` otherwise);
    the buffer is then a ``T.concat`` of the maps, so gradients reach them.
    """
    maps = [m if isinstance(m, T.Tensor) else T.Tensor(m) for m in maps]
    if any(m.ndim != 3 for m in maps):
        raise FeatureMapError("feature map must be (H, W, C)")
    if len({m.shape[2] for m in maps}) != 1:
        raise FeatureMapError("inconsistent channel counts")
    C = maps[0].shape[2]
    dtype = np.result_type(*(m.data for m in maps)) if dtype is None else np.dtype(dtype)
    rows = [T.reshape(m, (m.shape[0] * m.shape[1], C)) for m in maps]
    if any(m.requires_grad for m in maps):
        if any(m.dtype != dtype for m in maps):
            raise T.GraphError("maps that require a gradient are packed at their own dtype")
        values = T.concat(rows)
    else:
        values = T.Tensor(np.concatenate([r.data for r in rows], dtype=dtype))
    shapes = np.array([m.shape[:2] for m in maps], dtype=np.int64)
    sizes = shapes[:, 0] * shapes[:, 1]
    return values, shapes, np.cumsum(sizes) - sizes


class _PackedMaps:
    """One packed buffer (``values``, ``shapes``, ``starts``) of ``dtype``:
    the maps' common dtype unless given."""

    def __init__(self, maps: list, dtype=None):
        self.values, self.shapes, self.starts = _pack(maps, dtype)
        self.channels = self.values.shape[1]

    def _map_views(self) -> list:
        """Each map as a read-only (H, W, C) view into the buffer, in
        packing order."""
        out = []
        for (h, w), start in zip(self.shapes, self.starts):
            view = self.values.data[start:start + h * w].reshape(h, w, self.channels)
            view.flags.writeable = False
            out.append(view)
        return out

    def sample(self, map_idx, coords) -> T.Tensor:
        """``T.bilinear_sample_packed`` over this buffer."""
        return T.bilinear_sample_packed(self.values, self.shapes, self.starts, map_idx, coords)


class CameraFeatureSet(_PackedMaps):
    """Complete V x M x T grid of camera feature maps plus per-scale strides.

    ``maps`` maps (view, scale, frame) to an (H, W, C) array or Tensor. They
    are packed into one buffer (``values``, ``shapes``, ``starts``) of
    ``dtype`` (default: the maps' common dtype) in (view, scale, frame) order.
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
        for key in keys:
            if key not in maps:
                raise FeatureMapError(f"missing camera map {key}")
        super().__init__([maps[k] for k in keys], dtype)
        self.maps = dict(zip(keys, self._map_views()))

    def index(self, view, scale, frame):
        """Position of map (view, scale, frame) in the packed buffer; works
        elementwise on integer arrays."""
        return (view * self.num_scales + scale) * self.num_frames + frame


class LidarFeaturePyramid(_PackedMaps):
    """Multi-scale BEV feature grids covering one detection range, packed
    into one buffer in scale order like :class:`CameraFeatureSet`."""

    def __init__(self, maps: list, det_range: DetectionRange, dtype=None):
        if not maps:
            raise FeatureMapError("pyramid needs at least one scale")
        super().__init__(maps, dtype)
        self.det_range = det_range
        self.maps = self._map_views()

    @property
    def num_scales(self) -> int:
        return len(self.shapes)


def sample_view_scale_mean(feats: CameraFeatureSet, box, view, uv, num_boxes: int) -> T.Tensor:
    """Per box, the mean over its hit views of the sum over scales of
    bilinear reads at its projected center, all in one packed read.

    Hit r says that box ``box[r]`` projects into view ``view[r]`` at
    full-resolution pixel ``uv[r]`` in frame 0; hits come in box then view
    order, and each pixel is divided by the per-scale stride. Returns
    (num_boxes, C) rows, summed in box, view, scale order; a box with no hit
    gets a zero row.
    """
    box = np.asarray(box, dtype=np.int64)
    if box.size == 0:
        raise FeatureMapError("empty hit-view set")
    M = feats.num_scales
    scale = np.tile(np.arange(M), box.size)
    coords = np.repeat(np.asarray(uv, dtype=np.float64), M, axis=0)
    coords = coords / np.asarray(feats.strides, dtype=np.float64)[scale][:, None]
    samp = feats.sample(feats.index(np.repeat(view, M), scale, 0), coords)
    rows = T.scatter_add_rows(samp, np.repeat(box, M), num_boxes)
    count = np.bincount(box, minlength=num_boxes)
    return T.mul(rows, (1.0 / np.maximum(count, 1))[:, None])
