"""The benchmark's bindings: every name perfbench's tracer wraps and every
config key its workloads override must exist in the program.

perfbench/ is imported as it is, the way perfbench/run.py imports it; a
rename in the program then fails here before it breaks a benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from fusiondet import decoder, train, uaf
from fusiondet.config import RunConfig
from fusiondet.params import init_model_params
from fusiondet.scenesim import generate_scene

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

# the decoder-layer spans: (module the tracer patches, attribute, span name,
# calls per decoder layer)
LAYER_SPANS = [
    (decoder, "predict_pattern", "rias.predict_pattern", 2),
    (decoder, "sample_lidar", "rias.sample_lidar", 1),
    (decoder, "sample_camera", "rias.sample_camera", 1),
    (decoder, "adaptive_mix", "rias.adaptive_mix", 2),
    (uaf, "predict_distance", "uaf.predict_distance", 2),
    (uaf, "regress_xy", "uaf.regress_xy", 2),
    (uaf, "fuse", "uaf.fuse", 1),
    (decoder, "refine_box", "decoder.refine_box", 1),
]


@pytest.fixture()
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("workloads", "spans"):
            sys.modules.pop(name, None)


def test_install_spans_wraps_and_restores(perfbench):
    workloads, spans = perfbench
    originals = {(mod, attr): getattr(mod, attr) for mod, attr, _, _ in LAYER_SPANS}
    with spans.Tracer() as tracer:
        workloads.install_spans(tracer)
        for mod, attr, _, _ in LAYER_SPANS:
            assert getattr(mod, attr) is not originals[(mod, attr)], attr
    for mod, attr, _, _ in LAYER_SPANS:
        assert getattr(mod, attr) is originals[(mod, attr)], attr


def test_traced_decode_records_every_layer_span(perfbench):
    workloads, spans = perfbench
    cfg = RunConfig()
    for key, value in {"model.num_queries": 6, "model.num_top": 2, "model.num_random": 4,
                       "model.num_layers": 2, "sim.min_objects": 1,
                       "sim.max_objects": 2}.items():
        cfg.apply_override(key, json.dumps(value))
    cfg.validate()
    scene = generate_scene(cfg.model, cfg.sim, 0)
    store = init_model_params(cfg.model, seed=0)
    with spans.Tracer() as tracer:
        workloads.install_spans(tracer)
        preds, _ = train.run_inference(cfg, [scene], store)
    assert len(preds) == 1
    _, _, calls = tracer.summarize([spans.SETUP_OP])
    for _, _, name, per_layer in LAYER_SPANS:
        assert calls[name] == 2 * per_layer, name
    assert calls["decoder.decode"] == 1


def test_traced_inference_records_one_query_read_per_scene(perfbench):
    workloads, spans = perfbench
    cfg = RunConfig()
    scenes = [generate_scene(cfg.model, cfg.sim, i) for i in range(3)]
    store = init_model_params(cfg.model, seed=0)
    with spans.Tracer() as tracer:
        workloads.install_spans(tracer)
        train.run_inference(cfg, scenes, store)
    _, _, calls = tracer.summarize([spans.SETUP_OP])
    assert calls["paqg.generate_queries"] == len(scenes)
    assert calls["featuremaps.sample_view_scale_mean"] == len(scenes)
    assert calls["geometry.nms_3d"] == len(scenes)
    # no program code reads through the one-grid wrapper any more
    assert calls["tensor.bilinear_sample"] == 0


def test_build_config_applies_every_override(perfbench):
    workloads, _ = perfbench
    assert {"train", "train_dense", "robustness"} <= set(workloads.WORKLOADS)
    for workload, spec in workloads.WORKLOADS.items():
        cfg, config_hash = workloads.build_config(workload, seed=1)
        assert isinstance(config_hash, str) and config_hash
        assert cfg.sim.seed == cfg.train.seed == cfg.scenario.seed == 1
        for dotted, value in spec["overrides"].items():
            section, key = dotted.split(".")
            assert getattr(getattr(cfg, section), key) == value, (workload, dotted)


def test_workloads_run_on_a_two_scene_pool(perfbench, monkeypatch):
    # run_unit reads len(preds[0]) and hands run_inference's boxes to
    # metrics.evaluate_detections, so the return type of run_inference is
    # bound here too
    workloads, _ = perfbench
    # OutputChecks rebinds these two for the whole process; restore them after
    monkeypatch.setattr(train, "generate_queries", train.generate_queries)
    monkeypatch.setattr(train, "decode", train.decode)
    for name in ("robustness", "train"):
        cfg, _ = workloads.build_config(name, seed=1)
        cfg.sim.num_scenes = 2
        checks = workloads.OutputChecks(cfg.model.num_queries)
        wl = workloads.make_workload(name, cfg, checks)
        assert wl.prepare(), name
        ops = []
        for _ in range(2):
            ops += wl.run_unit(len(ops), None)
        assert ops and all(ok for _, ok in ops), (name, ops)
