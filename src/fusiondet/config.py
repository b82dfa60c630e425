"""Run configuration: strict schema, defaults, dotted-path overrides, hashing.

One JSON document drives every command. Unknown keys are rejected so configs
stay diffable experiment records; the hash of the canonical form ties
datasets, checkpoints and reports together.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields

from . import tensor as T
from .classes import CONTENT_CHANNELS, NUM_CLASSES, POSENC_CHANNELS
from .geometry import DetectionRange


class ConfigError(ValueError):
    pass


_LEAF_TYPES = {"int": int, "float": (int, float), "str": str, "list": list}


def _fits(declared: str, value) -> bool:
    """Whether a JSON value fits a leaf's declared type. An int fits a float
    leaf and is kept as written, so its hash does not change; a bool fits no
    leaf; a float leaf's number must be a finite double (no NaN, no
    infinity, no int past the double range); every list leaf holds numbers."""
    if isinstance(value, bool) or not isinstance(value, _LEAF_TYPES[declared]):
        return False
    if declared == "list":
        return all(_fits("float", v) for v in value)
    return declared != "float" or abs(value) <= sys.float_info.max


def _canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _hash(d: dict) -> str:
    return hashlib.sha256(_canonical_json(d).encode("utf-8")).hexdigest()[:16]


def _check_leaf(f, value, dotted: str):
    if f.type not in _LEAF_TYPES:
        raise ConfigError(f"{dotted} is a section, not a value")
    if not _fits(f.type, value):
        want = "a list of numbers" if f.type == "list" else f"of type {f.type}"
        raise ConfigError(f"{dotted} must be {want}, got {json.dumps(value)}")


def _is_section(f) -> bool:
    return dataclasses.is_dataclass(f.default_factory)


def _strict_from_dict(cls, d: dict, prefix: str = ""):
    """``cls`` built from a JSON object: unknown keys are rejected, every
    leaf is type-checked and every section is read the same way, nested."""
    if not isinstance(d, dict):
        where = f"section '{prefix.rstrip('.')}'" if prefix else "config root"
        raise ConfigError(f"{where} must be an object")
    known = {f.name for f in fields(cls)}
    for k in d:
        if k not in known:
            raise ConfigError(f"unknown config key: {prefix}{k}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        if _is_section(f):
            kwargs[f.name] = _strict_from_dict(f.default_factory, d[f.name], f"{prefix}{f.name}.")
        else:
            _check_leaf(f, d[f.name], prefix + f.name)
            kwargs[f.name] = d[f.name]
    return cls(**kwargs)


@dataclass
class ModelSection:
    channels: int = 32
    num_queries: int = 60
    num_top: int = 20
    num_random: int = 40
    num_points: int = 4
    num_layers: int = 3
    num_cam_scales: int = 2
    num_lidar_scales: int = 2
    num_frames: int = 2
    num_views: int = 4
    num_classes: int = 3
    range_xy: list = field(default_factory=lambda: [-24.0, 24.0])
    range_z: list = field(default_factory=lambda: [-3.0, 3.0])
    precision: str = "single"
    max_offset_factor: float = 2.0
    center_step: float = 1.0  # center shift per unit head output, in range extents
    velocity_step: float = 1.0
    nms_iou: float = 0.5

    def validate(self):
        if self.num_queries != self.num_top + self.num_random:
            raise ConfigError("model.num_queries must equal num_top + num_random")
        if self.num_top < 0 or self.num_random < 0:
            raise ConfigError("query counts must be nonnegative")
        if self.num_layers < 1:
            raise ConfigError("model.num_layers must be >= 1")
        if self.precision not in ("single", "double"):
            raise ConfigError("model.precision must be 'single' or 'double'")
        for name in ("channels", "num_queries", "num_points", "num_cam_scales",
                     "num_lidar_scales", "num_frames", "num_views", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        for name in ("range_xy", "range_z"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not (bounds[0] < bounds[1]
                                        and math.isfinite(bounds[1] - bounds[0])):
                raise ConfigError(f"model.{name} must be [min, max] with min < max and a "
                                  f"finite extent, got {json.dumps(bounds)}")
        if self.max_offset_factor <= 0:
            raise ConfigError("model.max_offset_factor must be positive")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ConfigError("model.nms_iou must be in [0, 1]")

    def hash(self) -> str:
        """Hash of this section alone: what a checkpoint was trained for."""
        return _hash(dataclasses.asdict(self))

    @property
    def dtype(self):
        """The parameter and feature dtype that ``precision`` selects."""
        return T.DOUBLE if self.precision == "double" else T.SINGLE

    def detection_range(self) -> DetectionRange:
        return DetectionRange(
            self.range_xy[0], self.range_xy[1],
            self.range_xy[0], self.range_xy[1],
            self.range_z[0], self.range_z[1],
        )


@dataclass
class OracleSection:
    pixel_sigma: float = 2.0
    depth_sigma: float = 0.04  # log-normal sigma on depth
    size_sigma: float = 0.05
    yaw_sigma: float = 0.1
    vel_sigma: float = 0.2
    miss_rate: float = 0.1
    fp_rate: float = 0.5  # Poisson mean false positives per view

    def validate(self):
        for key in ("pixel_sigma", "depth_sigma", "size_sigma", "yaw_sigma", "vel_sigma"):
            if getattr(self, key) < 0:
                raise ConfigError(f"sim.oracle.{key} must be >= 0")
        if not (0.0 <= self.miss_rate <= 1.0):
            raise ConfigError("sim.oracle.miss_rate must be in [0, 1]")
        if self.fp_rate < 0:
            raise ConfigError("sim.oracle.fp_rate must be >= 0")


@dataclass
class SimSection:
    num_scenes: int = 64
    min_objects: int = 2
    max_objects: int = 8
    image_width: int = 320
    image_height: int = 192
    focal: float = 150.0
    camera_height: float = 1.6
    lidar_height: float = 1.8
    bev_grid: int = 128
    base_stride: int = 8
    blob_sigma_px: float = 16.0
    feature_noise: float = 0.02
    point_density: float = 600.0  # expected points per m^2 of face at 1 m
    clutter_density: float = 1.2  # ground points per m^2
    ego_speed: float = 3.0
    frame_dt: float = 0.5
    spawn_min_radius: float = 5.0
    spawn_margin: float = 2.0
    max_place_retries: int = 200
    seed: int = 0
    oracle: OracleSection = field(default_factory=OracleSection)

    def validate(self):
        if self.min_objects < 0 or self.max_objects < self.min_objects:
            raise ConfigError("sim object counts invalid")
        if self.num_scenes < 1:
            raise ConfigError("sim.num_scenes must be >= 1")
        if self.base_stride < 1:
            raise ConfigError("sim.base_stride must be >= 1")
        if self.focal <= 0:
            raise ConfigError("sim.focal must be positive")
        if self.blob_sigma_px <= 0:
            raise ConfigError("sim.blob_sigma_px must be positive")
        if self.point_density < 0 or self.clutter_density < 0:
            raise ConfigError("sim.point_density and sim.clutter_density must be >= 0")
        if self.feature_noise < 0:
            raise ConfigError("sim.feature_noise must be >= 0")
        if self.max_place_retries < 1:
            raise ConfigError("sim.max_place_retries must be >= 1")
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise ConfigError("sim.seed must be >= 0")
        self.oracle.validate()


@dataclass
class TrainSection:
    steps: int = 2000
    lr: float = 0.02
    momentum: float = 0.9
    seed: int = 0
    w_cls: float = 1.0
    w_box: float = 2.0
    w_unc: float = 0.25
    w_reg: float = 0.5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    no_object_cost: float = 2.0
    dist_cap: float = 5.0  # meters; distance targets saturate here
    clip_norm: float = 2.0
    log_every: int = 1

    def validate(self):
        if self.steps < 0:
            raise ConfigError("train.steps must be >= 0")
        if self.lr <= 0:
            raise ConfigError("train.lr must be positive")
        if self.seed < 0:
            raise ConfigError("train.seed must be >= 0")
        if self.log_every < 1:
            raise ConfigError("train.log_every must be >= 1")


@dataclass
class EvalSection:
    thresholds: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    tp_threshold: float = 2.0
    bins: list = field(default_factory=lambda: [0.0, 10.0, 20.0, 30.0])

    def validate(self):
        if not self.thresholds or min(self.thresholds) <= 0:
            raise ConfigError("eval.thresholds must be a non-empty list of positive distances")
        if sorted(self.thresholds) != list(self.thresholds):
            raise ConfigError("eval.thresholds must be ascending")
        if sorted(self.bins) != list(self.bins):
            raise ConfigError("eval.bins must be ascending")
        if self.tp_threshold <= 0:
            raise ConfigError("eval.tp_threshold must be a positive distance")


@dataclass
class ScenarioSection:
    angle_deg: float = 120.0
    frame_rate: float = 0.5
    object_rate: float = 0.5
    stuck_sensor: str = "camera"
    seed: int = 0

    KINDS = ("fov_limited", "object_failure", "front_occlusion", "stuck")

    def validate(self):
        if not (0.0 < self.angle_deg <= 360.0):
            raise ConfigError("scenario.angle_deg must be in (0, 360]")
        for r in (self.frame_rate, self.object_rate):
            if not (0.0 <= r <= 1.0):
                raise ConfigError("scenario rates must be in [0, 1]")
        if self.stuck_sensor not in ("camera", "lidar"):
            raise ConfigError("scenario.stuck_sensor must be 'camera' or 'lidar'")
        if self.seed < 0:
            raise ConfigError("scenario.seed must be >= 0")


def _require_multiple(dotted: str, size: int, base: int, exp: int, rule: str):
    """ConfigError unless ``size`` is a positive multiple of base * 2^exp; an
    exponent past the size's bit length fails before 2^exp is formed."""
    if size < 1 or exp >= size.bit_length() or size % (base << exp):
        raise ConfigError(f"{dotted} must be a positive multiple of {base} * 2^{exp} "
                          f"({rule}), got {size}")


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    sim: SimSection = field(default_factory=SimSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    scenario: ScenarioSection = field(default_factory=ScenarioSection)

    def validate(self):
        for sec in (self.model, self.sim, self.train, self.eval, self.scenario):
            sec.validate()
        # the simulator writes this many channels of camera content
        if self.model.channels < CONTENT_CHANNELS + POSENC_CHANNELS:
            raise ConfigError(f"model.channels must be >= {CONTENT_CHANNELS + POSENC_CHANNELS} "
                              f"(the simulator's camera content), got {self.model.channels}")
        if self.model.num_classes < NUM_CLASSES:
            raise ConfigError(f"model.num_classes must be >= {NUM_CLASSES} (the simulator's "
                              f"classes), got {self.model.num_classes}")
        # every camera scale and every BEV scale must have a whole texel
        # count, so the map strides are exact
        for name in ("image_width", "image_height"):
            _require_multiple(f"sim.{name}", getattr(self.sim, name), self.sim.base_stride,
                              self.model.num_cam_scales - 1,
                              "sim.base_stride * 2^(model.num_cam_scales - 1)")
        _require_multiple("sim.bev_grid", self.sim.bev_grid, 1,
                          self.model.num_lidar_scales - 1, "2^(model.num_lidar_scales - 1)")
        # objects spawn uniformly in [min + margin, max - margin] of range_xy
        low, high = (self.model.range_xy[0] + self.sim.spawn_margin,
                     self.model.range_xy[1] - self.sim.spawn_margin)
        if not (low <= high and math.isfinite(high - low)):
            raise ConfigError(f"sim.spawn_margin={self.sim.spawn_margin} leaves model.range_xy "
                              f"the spawn interval [{low:g}, {high:g}]; it must be non-empty "
                              "with a finite extent")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = _strict_from_dict(cls, d)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long ints
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        return _hash(self.to_dict())

    def dataset_hash(self) -> str:
        """Hash of the sections a dataset is generated from (model + sim)."""
        d = self.to_dict()
        return _hash({"model": d["model"], "sim": d["sim"]})

    def apply_override(self, dotted: str, raw: str):
        """Set a config leaf via 'section.key=value' (JSON-parsed value)."""
        *path, leaf = dotted.split(".")
        obj = self
        for name in path:  # through section fields only, never other attributes
            f = {f.name: f for f in fields(obj)}.get(name)
            if f is None or not _is_section(f):
                raise ConfigError(f"unknown config key: {dotted}")
            obj = getattr(obj, name)
        f = {f.name: f for f in fields(obj)}.get(leaf)
        if f is None:
            raise ConfigError(f"unknown config key: {dotted}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            value = raw  # bare strings allowed; unreadable JSON stays a string
        _check_leaf(f, value, dotted)
        setattr(obj, leaf, value)
