"""Gradient-check suite over every differentiable operation of the decoder.

Each entry builds a small random double-precision instance and compares
analytic gradients against central finite differences. Instances whose
forward pass comes within a safety margin of a gradient kink (relu/abs
zeros, bilinear lattice lines) are rejected and redrawn, per the engine's
subgradient conventions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import tensor as T
from . import uaf
from .config import ModelSection, SimSection, TrainSection
from .decoder import compute_loss, decode, match_layers, oracle_distance_targets, refine_box
from .featuremaps import CameraFeatureSet, LidarFeaturePyramid
from .geometry import Box3D, BoxArray, DetectionRange
from .params import ParamStore, init_model_params
from .queries import QueryBatch, boxes_to_state
from .rias import SamplingPattern, adaptive_mix, sample_camera, sample_lidar
from .scenesim import build_rig

KINK_MARGIN = 1e-4
GRAD_TOL = 1e-4
MAX_REDRAWS = 50


def _tensors(rng, *shapes, scale=1.0):
    return [T.Tensor(rng.normal(0.0, scale, size=s), dtype=np.float64) for s in shapes]


# a 48x32 image with focal length 40 from 1.5 m up; the ego moves 1 m per frame
_TINY_SIM = SimSection(image_width=48, image_height=32, focal=40.0, camera_height=1.5,
                       ego_speed=1.0, frame_dt=1.0)


def _tiny_pattern(rng, n, groups, k, dims, weight_shape):
    off = T.Tensor(rng.normal(0.0, 0.4, size=(n, groups, k, dims)), dtype=np.float64)
    raw = rng.normal(0.0, 0.5, size=weight_shape)
    flat = raw.reshape(weight_shape[0], -1) if len(weight_shape) == 3 else raw.reshape(
        weight_shape[0], weight_shape[1], -1)
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    w = (e / e.sum(axis=-1, keepdims=True)).reshape(weight_shape)
    return off, T.Tensor(w, dtype=np.float64)


def _build_bilinear(rng):
    # one (H, W, C) grid, read as the one-grid case of the packed layout
    grid = T.Tensor(rng.normal(size=(6, 7, 3)), dtype=np.float64)
    coords = T.Tensor(rng.uniform(0.8, 5.8, size=(5, 2)), dtype=np.float64)

    def fn(ins):
        return T.bilinear_sample_packed(T.reshape(ins[0], (6 * 7, 3)), [(6, 7)], [0],
                                        np.zeros(5, dtype=np.int64), ins[1])

    return fn, [grid, coords]


def _build_bilinear_packed(rng):
    # two grids of different shapes in one buffer; points read both, partly
    # past the borders, where the zero padding must not reach the neighbour
    shapes = np.array([[3, 4], [2, 5]])
    values = T.Tensor(rng.normal(size=(3 * 4 + 2 * 5, 2)), dtype=np.float64)
    map_idx = np.arange(6) % 2
    hw = shapes[map_idx]
    coords = T.Tensor(rng.uniform(-0.4, hw[:, ::-1] + 0.4), dtype=np.float64)

    def fn(ins):
        return T.bilinear_sample_packed(ins[0], shapes, [0, 12], map_idx, ins[1])

    return fn, [values, coords]


def _build_layer_norm(rng):
    x, g, s = _tensors(rng, (4, 6), (6,), (6,))
    return lambda ins: T.layer_norm(ins[0], ins[1], ins[2]), [x, g, s]


def _build_softmax(rng):
    (x,) = _tensors(rng, (3, 7))
    return lambda ins: T.softmax(ins[0], axis=-1), [x]


def _build_adaptive_mix(rng):
    N, S, C = 3, 4, 6
    qf = T.Tensor(rng.normal(size=(N, C)), dtype=np.float64)
    roi = T.Tensor(rng.normal(size=(N, S, C)), dtype=np.float64)
    # the mixer's parameter layout at S = K sampled rows, redrawn at random
    layout = init_model_params(_mini_model(C, num_points=S), seed=0).group("layer0.lidar.mix")
    mp = SimpleNamespace(**{n: T.Tensor(rng.normal(0.0, 0.4, size=t.shape), dtype=np.float64)
                            for n, t in vars(layout).items()})

    def fn(ins):
        return adaptive_mix(ins[0], ins[1], mp)

    return fn, [qf, roi, mp.chan_w, mp.agg_w, mp.ln_chan_gain]


def _build_sample_lidar(rng):
    N, R, K, C = 3, 2, 2, 4
    det_range = DetectionRange(-10, 10, -10, 10, -2, 2)
    maps = _tensors(rng, (8, 8, C), (4, 4, C))
    centers = T.Tensor(rng.uniform(-6, 6, size=(N, 2)), dtype=np.float64)
    off, w = _tiny_pattern(rng, N, R, K, 2, (N, R, K))

    def fn(ins):
        pat = SamplingPattern(ins[1], ins[2])
        return sample_lidar(ins[0], pat, LidarFeaturePyramid(ins[3:5], det_range))

    return fn, [centers, off, w] + maps


def _camera_maps(rng, rig, C=4, M=1, Tt=1) -> dict:
    return {(v, m, t): T.Tensor(rng.normal(size=(8, 12, C)), dtype=np.float64)
            for v in range(rig.num_views) for m in range(M) for t in range(Tt)}


def _camera_set(maps: dict, rig, M=1, Tt=1) -> CameraFeatureSet:
    return CameraFeatureSet(maps, rig.num_views, M, Tt, [4.0 * (2 ** m) for m in range(M)])


def _build_sample_camera(rng):
    N, K, C, M, Tt = 3, 2, 4, 1, 1
    rig = build_rig(_mini_model(), _TINY_SIM)
    maps = _camera_maps(rng, rig, C, M, Tt)
    centers = T.Tensor(
        np.column_stack(
            [rng.uniform(3.0, 8.0, N), rng.uniform(-2.0, 2.0, N), rng.uniform(-0.5, 0.5, N)]
        ),
        dtype=np.float64,
    )
    off, w = _tiny_pattern(rng, N, Tt, K, 3, (N, Tt, M, K))

    def fn(ins):
        pat = SamplingPattern(ins[1], ins[2])
        return sample_camera(ins[0], pat, _camera_set(dict(zip(maps, ins[3:])), rig, M, Tt), rig)

    return fn, [centers, off, w] + list(maps.values())


def _build_predict_uncertainty(rng):
    N, S, C = 3, 4, 6
    roi = T.Tensor(rng.normal(size=(N, S, C)), dtype=np.float64)
    w1, b1, w2, b2 = _tensors(rng, (C, C), (C,), (C, 1), (1,), scale=0.5)

    def fn(ins):
        dp = SimpleNamespace(w1=ins[1], b1=ins[2], w2=ins[3], b2=ins[4])
        return uaf.uncertainty_from_distance(uaf.predict_distance(uaf.pool_roi(ins[0]), dp))

    return fn, [roi, w1, b1, w2, b2]


def _build_fuse(rng):
    N, C = 3, 6
    fc, fl = _tensors(rng, (N, C), (N, C))
    u_c = T.Tensor(rng.uniform(0.05, 0.9, size=(N,)), dtype=np.float64)
    u_l = T.Tensor(rng.uniform(0.05, 0.9, size=(N,)), dtype=np.float64)
    w1, b1, w2, b2 = _tensors(rng, (2 * C, 2 * C), (2 * C,), (2 * C, C), (C,), scale=0.4)

    def fn(ins):
        fp = SimpleNamespace(w1=ins[4], b1=ins[5], w2=ins[6], b2=ins[7])
        return uaf.fuse(ins[0], ins[1], ins[2], ins[3], fp)

    return fn, [fc, u_c, fl, u_l, w1, b1, w2, b2]


def _mini_model(C=6, n_cls=2, num_points=2) -> ModelSection:
    return ModelSection(
        channels=C, num_queries=4, num_top=2, num_random=2, num_points=num_points,
        num_layers=1, num_cam_scales=1, num_lidar_scales=1, num_frames=1,
        num_views=2, num_classes=n_cls, range_xy=[-10.0, 10.0],
        range_z=[-2.0, 2.0], precision="double", center_step=0.05,
    )


def _mini_store(rng, cfg: ModelSection) -> ParamStore:
    """Random small parameters with the decoder's naming scheme."""
    store = init_model_params(cfg, seed=int(rng.integers(1 << 30)))
    for name, t in store.items():
        t.data = t.data.astype(np.float64) + rng.normal(0.0, 0.15, size=t.data.shape)
    return store


def _build_refine_box(rng):
    cfg = _mini_model()
    store = _mini_store(rng, cfg)
    N, C = 4, cfg.channels
    qf = T.Tensor(rng.normal(size=(N, C)), dtype=np.float64)
    state = boxes_to_state(BoxArray.stack([
        Box3D(rng.uniform(-5, 5, 3), rng.uniform(0.5, 3.0, 3), rng.uniform(-3, 3),
              rng.normal(0, 1, 2))
        for _ in range(N)
    ]))
    st = T.Tensor(state, dtype=np.float64)

    def fn(ins):
        return refine_box(ins[0], ins[1], store.group("layer0.refine"), cfg)

    return fn, [qf, st, store["layer0.refine.w1"], store["layer0.refine.w2"]]


def _build_compute_loss(rng):
    cfg = _mini_model()
    store = _mini_store(rng, cfg)
    rig = build_rig(cfg, _TINY_SIM)
    M, Tt = cfg.num_cam_scales, cfg.num_frames
    feats = _camera_set(_camera_maps(rng, rig, cfg.channels, M, Tt), rig, M, Tt)
    pyramid = LidarFeaturePyramid(_tensors(rng, (8, 8, cfg.channels)), cfg.detection_range())
    gts = BoxArray.stack([
        Box3D([5.0, 4.0, 0.0], [2.0, 1.0, 1.2], 0.4, [0.5, 0.0], class_id=0),
        Box3D([-4.0, -5.0, 0.2], [1.0, 0.8, 1.6], -1.0, [0.0, 0.0], class_id=1),
    ])
    starts = BoxArray.stack([
        Box3D([5.4, 3.7, 0.1], [1.8, 1.1, 1.1], 0.5, [0.4, 0.1], class_id=0),
        Box3D([-4.3, -4.6, 0.1], [1.1, 0.9, 1.4], -0.8, [0.1, 0.0], class_id=1),
        Box3D([0.0, 7.0, 0.0], [1.5, 1.5, 1.5], 0.0, [0.0, 0.0], class_id=0),
        Box3D([-7.0, 2.0, 0.0], [1.0, 1.0, 1.0], 1.2, [0.0, 0.0], class_id=1),
    ])
    qf = T.Tensor(rng.normal(size=(cfg.num_queries, cfg.channels)), dtype=np.float64)
    st = T.Tensor(boxes_to_state(starts), dtype=np.float64)
    tcfg = TrainSection()

    with T.no_grad():
        preds0 = decode(QueryBatch(qf, st), feats, pyramid, rig, store, cfg, fusion="uaf")
    matching = match_layers(preds0, gts, tcfg, cfg)
    frozen = oracle_distance_targets(preds0, matching, gts)

    def fn(ins):
        batch = QueryBatch(ins[0], ins[1])
        preds = decode(batch, feats, pyramid, rig, store, cfg, fusion="uaf")
        loss, _ = compute_loss(preds, gts, matching, tcfg, cfg, unc_targets=frozen)
        return loss

    inputs = [qf, st, feats.values, pyramid.values,
              store["layer0.refine.w2"], store["layer0.camera.mix.agg_w"],
              store["layer0.cls.w"], store["layer0.fuse.w1"],
              store["layer0.lidar.dist.w2"], store["layer0.lidar.reg.w2"]]
    return fn, inputs


BUILDERS = {
    "bilinear_sample": _build_bilinear,
    "bilinear_sample_packed": _build_bilinear_packed,
    "layer_norm": _build_layer_norm,
    "softmax": _build_softmax,
    "adaptive_mix": _build_adaptive_mix,
    "sample_lidar": _build_sample_lidar,
    "sample_camera": _build_sample_camera,
    "predict_uncertainty": _build_predict_uncertainty,
    "fuse": _build_fuse,
    "refine_box": _build_refine_box,
    "compute_loss": _build_compute_loss,
}

# finite differences over every element for small ops; random subsets for
# the large composites to keep the suite inside its runtime budget
ELEMENT_CAPS = {"compute_loss": 12, "adaptive_mix": 40, "sample_camera": 40,
                "sample_lidar": 40, "refine_box": 40}


def check_op(name: str, seed: int, tolerance: float = GRAD_TOL) -> T.GradCheckReport:
    """Gradient-check one op family at one seed, redrawing kink-adjacent
    instances."""
    builder = BUILDERS[name]
    for redraw in range(MAX_REDRAWS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 23, redraw]))
        fn, inputs = builder(rng)
        with T.track_kinks() as tracker:
            with T.no_grad():
                out = fn(inputs)
        if not np.all(np.isfinite(out.data)):
            continue
        if tracker.min_distance() < KINK_MARGIN:
            continue
        cap = ELEMENT_CAPS.get(name)
        return T.grad_check(
            fn, inputs, tolerance=tolerance,
            max_elements_per_input=cap,
            rng=np.random.default_rng(np.random.SeedSequence([seed, 29])),
        )
    raise RuntimeError(f"could not draw a kink-safe instance for {name}")


def run_suite(num_seeds: int = 100) -> dict:
    """Run every builder at GRAD_TOL; returns name -> {max_rel_error, passed, seeds}."""
    results = {}
    for name in BUILDERS:
        worst = 0.0
        for seed in range(num_seeds):
            rep = check_op(name, seed)
            worst = max(worst, rep.max_rel_error)
        results[name] = {
            "max_rel_error": float(worst),
            "passed": bool(worst <= GRAD_TOL),
            "seeds": num_seeds,
        }
    return results
