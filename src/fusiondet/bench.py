"""Micro-benchmarks for one decoder layer and its sampling and mixing kernels.

Wall-time percentiles over repeated runs with deterministic inputs. numpy
allocates inside every op, so the "no allocation in the timed region" rule
cannot hold here; timings are for regression tracking only, not comparable
to any hardware-bound latency figures.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import tensor as T
from .config import RunConfig
from .decoder import decode_layer
from .geometry import BoxArray
from .paqg import generate_queries
from .params import init_model_params
from .rias import adaptive_mix, predict_pattern, sample_camera, sample_lidar
from .scenesim import generate_scene

KERNELS = ("generate_queries", "predict_pattern", "sample_lidar", "sample_camera",
           "adaptive_mix", "full_layer")


class BenchError(ValueError):
    pass


@dataclass
class BenchReport:
    kernel: str
    config: dict
    repetitions: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    queries_per_s: float


def _percentiles(samples: list) -> tuple:
    arr = np.array(samples)
    return tuple(float(np.percentile(arr, q)) for q in (50, 90, 99))


def _time_ms(fn, repetitions: int) -> list:
    """Wall time of ``fn()`` in ms, once per repetition, after 5 warm-up calls."""
    for _ in range(5):
        fn()
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def bench_kernel(kernel: str, cfg: RunConfig, repetitions: int) -> BenchReport:
    """Time one kernel at the configured sizes; >= 30 warm repetitions.

    ``generate_queries`` times query generation for scene 0 (oracle, lifting,
    NMS, feature reads, random fill), each repetition from the same seed.
    The other kernels run on layer-0 inputs built once, outside the timed
    region: ``predict_pattern`` and ``adaptive_mix`` cover both branches, the
    two samplers one branch each, and ``full_layer`` times
    :func:`decoder.decode_layer` (sampling, mixing, UAF and the heads).
    """
    if kernel not in KERNELS:
        raise BenchError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    repetitions = max(30, int(repetitions))
    mcfg = cfg.model
    scene = generate_scene(mcfg, cfg.sim, scene_id=0)
    store = init_model_params(mcfg, seed=0)
    feats = scene.feature_set(mcfg)
    pyramid = scene.lidar_pyramid(mcfg)

    gt = BoxArray.stack(scene.gt_boxes)  # as the train step passes them

    def queries():
        return generate_queries(gt, scene.rig, feats, mcfg, cfg.sim.oracle,
                                store["query.default_embedding"], np.random.default_rng(0))

    batch = queries()
    pp_lid = store.group("layer0.lidar")
    pp_cam = store.group("layer0.camera")
    mp_lid = store.group("layer0.lidar.mix")
    mp_cam = store.group("layer0.camera.mix")
    centers = batch.centers()
    centers_xy = batch.centers_xy()

    with T.no_grad():
        pat_lid = predict_pattern(batch, pp_lid, "lidar", mcfg)
        pat_cam = predict_pattern(batch, pp_cam, "camera", mcfg)
        roi_lid = sample_lidar(centers_xy, pat_lid, pyramid)
        roi_cam = sample_camera(centers, pat_cam, feats, scene.rig)
        stages = {
            "generate_queries": queries,
            "predict_pattern": lambda: (predict_pattern(batch, pp_lid, "lidar", mcfg),
                                        predict_pattern(batch, pp_cam, "camera", mcfg)),
            "sample_lidar": lambda: sample_lidar(centers_xy, pat_lid, pyramid),
            "sample_camera": lambda: sample_camera(centers, pat_cam, feats, scene.rig),
            "adaptive_mix": lambda: (adaptive_mix(batch.features, roi_lid, mp_lid),
                                     adaptive_mix(batch.features, roi_cam, mp_cam)),
            "full_layer":
                lambda: decode_layer(0, batch, feats, pyramid, scene.rig, store, mcfg),
        }
        samples = _time_ms(stages[kernel], repetitions)

    p50, p90, p99 = _percentiles(samples)
    qps = mcfg.num_queries / (p50 / 1e3) if p50 > 0 else float("inf")
    return BenchReport(
        kernel=kernel,
        config={
            "num_queries": mcfg.num_queries,
            "num_points": mcfg.num_points,
            "cam_scales": mcfg.num_cam_scales,
            "lidar_scales": mcfg.num_lidar_scales,
            "frames": mcfg.num_frames,
            "channels": mcfg.channels,
        },
        repetitions=repetitions,
        p50_ms=p50,
        p90_ms=p90,
        p99_ms=p99,
        queries_per_s=qps,
    )


def machine_info() -> dict:
    """The interpreter, package versions and thread setting a bench ran under."""
    return {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "platform": platform.platform(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }
