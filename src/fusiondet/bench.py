"""Micro-benchmarks for query generation and one decoder layer's kernels.

Each kernel repeats calls that one real no-grad decode of scene 0 makes,
recorded with their arguments, so the bench times the decoder as train and
infer wire it. numpy allocates inside every op, so the "no allocation in the
timed region" rule cannot hold here; timings are for regression tracking
only, not comparable to any hardware-bound latency figures.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy

from . import decoder, train
from . import tensor as T
from .config import RunConfig
from .params import init_model_params
from .scenesim import generate_scene

# kernel -> the binding whose calls it repeats, looked up by the decode at call time
BINDINGS = {
    "generate_queries": (train, "generate_queries"),
    **{stage: (decoder, stage) for stage in ("predict_pattern", "sample_lidar",
                                             "sample_camera", "adaptive_mix")},
    "full_layer": (decoder, "decode_layer"),
}
KERNELS = tuple(BINDINGS)


class BenchError(ValueError):
    pass


@dataclass
class BenchReport:
    kernel: str
    config: dict
    repetitions: int
    p50_ms: float
    p90_ms: float | None  # from 100 repetitions on, so 10 samples lie beyond it
    queries_per_s: float


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


def _record(log: list, kernel: str, fn, *args, **kwargs):
    log.append((kernel, args, kwargs))
    return fn(*args, **kwargs)


def _decode_calls(cfg: RunConfig, scene, store) -> list:
    """(kernel, args, kwargs) of each call a no-grad decode of ``scene`` makes
    through a binding, in order; each binding is restored on return or raise."""
    log = []
    originals = [(owner, name, getattr(owner, name)) for owner, name in BINDINGS.values()]
    try:
        for kernel, (owner, name, fn) in zip(KERNELS, originals):
            setattr(owner, name, partial(_record, log, kernel, fn))
        with T.no_grad():
            train.decode_scene(cfg, scene, store, np.random.default_rng(0), "uaf", False)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return log


def bench_kernel(kernel: str, cfg: RunConfig, repetitions: int) -> BenchReport:
    """Time one kernel at the configured sizes, over >= 30 warm repetitions.

    The kernel repeats its calls from one no-grad :func:`train.decode_scene`
    of scene 0 (fusion "uaf", ``default_rng(0)``) up to the second decoder
    layer: query generation (a fresh ``default_rng(0)`` each time), layer 0's
    stage calls, or ``full_layer``, the layer-0 :func:`decoder.decode_layer`.
    """
    if kernel not in KERNELS:
        raise BenchError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    if repetitions < 30:
        raise BenchError(f"--reps must be >= 30, got {repetitions}")
    mcfg = cfg.model
    log = _decode_calls(cfg, generate_scene(mcfg, cfg.sim, scene_id=0),
                        init_model_params(mcfg, seed=0))
    layer1 = next((i for i, (k, a, _) in enumerate(log) if k == "full_layer" and a[0] == 1),
                  len(log))
    calls = [(a, kw) for k, a, kw in log[:layer1] if k == kernel]
    owner, name = BINDINGS[kernel]
    fn = getattr(owner, name)
    with T.no_grad():
        if kernel == "generate_queries":  # the generator is the last argument
            (args, kwargs), = calls
            samples = _time_ms(lambda: fn(*args[:-1], np.random.default_rng(0), **kwargs),
                               repetitions)
        else:
            samples = _time_ms(lambda: [fn(*a, **kw) for a, kw in calls], repetitions)

    p50 = float(np.percentile(samples, 50))
    return BenchReport(
        kernel=kernel,
        config={"num_queries": mcfg.num_queries, "num_points": mcfg.num_points,
                "cam_scales": mcfg.num_cam_scales, "lidar_scales": mcfg.num_lidar_scales,
                "frames": mcfg.num_frames, "channels": mcfg.channels},
        repetitions=repetitions,
        p50_ms=p50,
        p90_ms=float(np.percentile(samples, 90)) if repetitions >= 100 else None,
        queries_per_s=mcfg.num_queries / (p50 / 1e3) if p50 > 0 else float("inf"),
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
