"""``fusiondet bench`` replays the calls one real decode makes.

The reference below builds layer 0's inputs by hand, as the bench did before
it recorded a decode; each replayed call must give the same bytes.
"""

import numpy as np
import pytest

from fusiondet import bench
from fusiondet import tensor as T
from fusiondet.config import RunConfig
from fusiondet.decoder import decode_layer
from fusiondet.geometry import BoxArray
from fusiondet.paqg import generate_queries
from fusiondet.params import init_model_params
from fusiondet.rias import adaptive_mix, predict_pattern, sample_camera, sample_lidar
from fusiondet.scenesim import generate_scene

# the stage calls one decode_layer call makes
LAYER_CALLS = {"predict_pattern": 2, "sample_lidar": 1, "sample_camera": 1, "adaptive_mix": 2}


def _hand_built(cfg: RunConfig) -> dict:
    """Each kernel's outputs on layer-0 inputs wired by hand, in call order."""
    mcfg = cfg.model
    scene = generate_scene(mcfg, cfg.sim, scene_id=0)
    store = init_model_params(mcfg, seed=0)
    feats = scene.feature_set(mcfg)
    pyramid = scene.lidar_pyramid(mcfg)
    gt = BoxArray.stack(scene.gt_boxes)
    batch = generate_queries(gt, scene.rig, feats, mcfg, cfg.sim.oracle,
                             store["query.default_embedding"], np.random.default_rng(0))
    centers, centers_xy = batch.centers(), batch.centers_xy()
    pp_lid, pp_cam = store.group("layer0.lidar"), store.group("layer0.camera")
    mp_lid, mp_cam = store.group("layer0.lidar.mix"), store.group("layer0.camera.mix")
    with T.no_grad():
        pat_lid = predict_pattern(batch, pp_lid, "lidar", mcfg)
        pat_cam = predict_pattern(batch, pp_cam, "camera", mcfg)
        roi_lid = sample_lidar(centers_xy, pat_lid, pyramid)
        roi_cam = sample_camera(centers, pat_cam, feats, scene.rig)
        return {
            "generate_queries": [batch],
            "predict_pattern": [pat_lid, pat_cam],
            "sample_lidar": [roi_lid],
            "sample_camera": [roi_cam],
            "adaptive_mix": [adaptive_mix(batch.features, roi_lid, mp_lid),
                             adaptive_mix(batch.features, roi_cam, mp_cam)],
            "full_layer": [decode_layer(0, batch, feats, pyramid, scene.rig, store, mcfg)],
        }


def _arrays(obj) -> list:
    """Every array inside an output: tensors, arrays, tuples and the fields
    of result objects, in a fixed order."""
    if obj is None:
        return []
    if isinstance(obj, T.Tensor):
        return [obj.data]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dict__"):
        return _arrays(list(vars(obj).values()))
    return [np.asarray(obj)]


def _same_bytes(a, b) -> bool:
    xs, ys = _arrays(a), _arrays(b)
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


def _spy_on_bindings(monkeypatch, seen: list, fail: str | None = None):
    """Wrap each bench binding to append (kernel, output) to ``seen``; the
    ``fail`` kernel raises instead. Returns the bindings as installed."""
    installed = {}
    for kernel, (owner, name) in bench.BINDINGS.items():
        real = getattr(owner, name)

        def spy(*args, _kernel=kernel, _real=real, **kwargs):
            if _kernel == fail:
                raise RuntimeError(f"{_kernel} failed")
            out = _real(*args, **kwargs)
            seen.append((_kernel, out))
            return out

        monkeypatch.setattr(owner, name, spy)
        installed[kernel] = spy
    return installed


def _bindings() -> dict:
    return {kernel: getattr(owner, name) for kernel, (owner, name) in bench.BINDINGS.items()}


def test_each_kernel_replays_the_layer0_calls_of_a_decode(monkeypatch):
    cfg = RunConfig()
    reference = _hand_built(cfg)
    seen, replayed = [], {}

    def replay_once(fn, repetitions):
        start = len(seen)
        fn()
        replayed[kernel] = seen[start:]
        return [1.0] * repetitions

    installed = _spy_on_bindings(monkeypatch, seen)
    monkeypatch.setattr(bench, "_time_ms", replay_once)
    for kernel in bench.KERNELS:
        bench.bench_kernel(kernel, cfg, 30)
        assert _bindings() == installed, kernel

    assert list(replayed) == list(bench.KERNELS)
    for kernel, calls in replayed.items():
        kernels = [k for k, _ in calls]
        if kernel == "full_layer":
            # the layer call runs its stages, as the decode ran them
            assert kernels[-1] == "full_layer"
            assert {k: kernels.count(k) for k in LAYER_CALLS} == LAYER_CALLS
            assert len(kernels) == 1 + sum(LAYER_CALLS.values())
            calls = calls[-1:]
        else:
            assert kernels == [kernel] * LAYER_CALLS.get(kernel, 1), kernel
        outputs = [out for _, out in calls]
        assert len(outputs) == len(reference[kernel])
        for out, ref in zip(outputs, reference[kernel]):
            assert _same_bytes(out, ref), kernel


@pytest.mark.parametrize("fail", ["sample_camera", "full_layer", "generate_queries"])
def test_a_failing_decode_restores_every_binding(monkeypatch, fail):
    installed = _spy_on_bindings(monkeypatch, [], fail=fail)
    with pytest.raises(RuntimeError, match=f"{fail} failed"):
        bench.bench_kernel("predict_pattern", RunConfig(), 30)
    assert _bindings() == installed
