"""The benchmark's workloads, output checks and per-layer tracing hooks.

Imported by run.py after it has put the repository's ``src`` directory on
``sys.path``. Everything here calls fusiondet through module attributes
(``train.train_loop``, ``scenesim.apply_scenario``, ...) so that the span
wrappers installed by :func:`install_spans` see every call.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
import time
import traceback

import numpy as np

import fusiondet.metrics as metrics
import fusiondet.scenesim as scenesim
from fusiondet import decoder, paqg, tensor, train, uaf
from fusiondet.config import RunConfig
from fusiondet.params import init_model_params
from spans import SETUP_OP

WORKLOADS = {
    "train": {"kind": "train", "overrides": {"sim.num_scenes": 16}},
    "train_dense": {
        "kind": "train",
        "overrides": {
            "sim.num_scenes": 16,
            "model.num_queries": 240,
            "model.num_top": 80,
            "model.num_random": 160,
            "sim.min_objects": 6,
            "sim.max_objects": 24,
        },
    },
    "robustness": {"kind": "robustness", "overrides": {"sim.num_scenes": 16}},
}
SCENARIOS = ("clean", "fov_limited", "object_failure", "front_occlusion", "stuck")
FUSIONS = ("uaf", "equal")
LAYERS = ("tensor", "featuremaps", "geometry", "paqg", "rias", "uaf", "decoder",
          "train", "scenesim", "metrics")


def build_config(workload: str, seed: int) -> tuple:
    """RunConfig defaults plus the workload's sizing overrides; returns the
    seeded config and the hash of the unseeded workload definition."""
    cfg = RunConfig()
    for key, value in WORKLOADS[workload]["overrides"].items():
        cfg.apply_override(key, json.dumps(value))
    cfg.validate()
    config_hash = cfg.hash()
    for key in ("sim.seed", "train.seed", "scenario.seed"):
        cfg.apply_override(key, str(seed))
    cfg.validate()
    return cfg, config_hash


def generate_pool(cfg: RunConfig) -> list:
    """The fixed scene pool. Scene i has exactly k_i objects, with the k_i
    spread evenly over [sim.min_objects, sim.max_objects], so every seed
    loads the program with the same mix of scene sizes."""
    lo, hi, n = cfg.sim.min_objects, cfg.sim.max_objects, cfg.sim.num_scenes
    pool = []
    for i in range(n):
        k = round(lo + i * (hi - lo) / max(1, n - 1))
        sim = dataclasses.replace(cfg.sim, min_objects=k, max_objects=k)
        scene = scenesim.generate_scene(cfg.model, sim, i)
        scene.feature_set(cfg.model)  # fill the per-scene caches
        scene.lidar_pyramid(cfg.model)
        pool.append(scene)
    return pool


class OutputChecks:
    """Checks every query batch and decode the program produces.

    Wraps ``train.generate_queries`` and ``train.decode`` (the bindings
    ``train_loop`` and ``run_inference`` call) for the whole process, traced
    or not, so both modes pay the same cost.
    """

    def __init__(self, num_queries: int):
        self.problems = []
        self.last_state = None
        generate, decode = train.generate_queries, train.decode

        def checked_generate(*args, **kwargs):
            batch = generate(*args, **kwargs)
            if batch.count != num_queries:
                self.problems.append(f"batch has {batch.count} queries, not {num_queries}")
            return batch

        def checked_decode(*args, **kwargs):
            preds = decode(*args, **kwargs)
            for layer, pred in enumerate(preds):
                if pred.box_state.shape[0] != num_queries:
                    self.problems.append(f"layer {layer} has {pred.box_state.shape[0]} boxes")
                if not np.all(np.isfinite(pred.box_state.data)):
                    self.problems.append(f"layer {layer} box state is not finite")
            self.last_state = preds[-1].box_state.data
            return preds

        train.generate_queries = checked_generate
        train.decode = checked_decode


def _report_exception(what: str):
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _repeat_check(cfg, scene, store, checks) -> bool:
    """One untimed decode of a pool scene, run twice, compared bit for bit."""
    checks.problems.clear()
    states = []
    for _ in range(2):
        train.run_inference(cfg, [scene], store, fusion="uaf", oracle_uncertainty=True)
        states.append(checks.last_state.tobytes())
    return states[0] == states[1] and not checks.problems


class TrainWorkload:
    """One op is one SGD step of ``train.train_loop`` over the scene pool.

    The count and digest window is the first epoch: one step per pool scene.
    """

    def __init__(self, cfg, checks):
        self.cfg = cfg
        self.checks = checks
        self.window = cfg.sim.num_scenes

    def prepare(self) -> bool:
        """Scene pool, fresh params and a warm-up step on a throwaway copy;
        returns whether the repeated set-up decode matched bit for bit."""
        cfg = self.cfg
        self.scenes = generate_pool(cfg)
        self.store = init_model_params(cfg.model, seed=cfg.train.seed)
        repeat_ok = _repeat_check(cfg, self.scenes[0], self.store, self.checks)
        cfg.train.steps = 1
        train.train_loop(cfg, self.scenes, copy.deepcopy(self.store), velocity={})
        self.velocity = {}
        self.step = 0
        self.losses = []
        self.digest = None
        return repeat_ok

    def run_unit(self, next_op: int, tracer) -> list:
        if tracer is not None:
            tracer.op = next_op
        self.checks.problems.clear()
        self.cfg.train.steps = self.step + 1
        t0 = time.perf_counter()
        try:
            rec = train.train_loop(self.cfg, self.scenes, self.store,
                                   start_step=self.step, velocity=self.velocity)[0]
        except Exception:
            rec = None
            _report_exception(f"train step {self.step}")
        latency = time.perf_counter() - t0
        ok = rec is not None and not self.checks.problems
        if ok:
            ok = all(np.isfinite(v) for k, v in rec.items() if k != "step")
        self.step += 1
        if self.step <= self.window:
            self.losses.append(rec)
            if self.step == self.window:
                h = hashlib.sha256(json.dumps(self.losses, sort_keys=True).encode())
                for name, t in self.store.items():
                    h.update(name.encode())
                    h.update(t.data.tobytes())
                self.digest = h.hexdigest()
        return [(latency, ok)]


class RobustnessWorkload:
    """One op is one scene decode through ``train.run_inference``.

    A unit is one (fusion, scenario) group: corrupt the pool (fresh
    SceneSamples, so per-scene caches start cold), decode every scene with
    oracle uncertainty, evaluate. A round is all ten groups; the count and
    digest window is the first round. Later rounds must repeat the first
    round's outputs bit for bit.
    """

    def __init__(self, cfg, checks):
        self.cfg = cfg
        self.checks = checks
        self.groups = [(f, s) for f in FUSIONS for s in SCENARIOS]
        self.window = len(self.groups) * cfg.sim.num_scenes

    def prepare(self) -> bool:
        cfg = self.cfg
        self.scenes = generate_pool(cfg)
        self.store = init_model_params(cfg.model, seed=cfg.train.seed)
        repeat_ok = _repeat_check(cfg, self.scenes[0], self.store, self.checks)
        self.group = 0
        self.reference = {}
        self.scores = {}
        self.hash = hashlib.sha256()
        self.digest = None
        return repeat_ok

    def run_unit(self, next_op: int, tracer) -> list:
        cfg = self.cfg
        fusion, scenario = self.groups[self.group % len(self.groups)]
        first_round = self.group < len(self.groups)
        if tracer is not None:
            tracer.op = next_op
        if scenario == "clean":
            scenes = self.scenes
        else:
            spec = scenesim.ScenarioSpec.from_config(cfg.scenario)
            spec.kind = scenario
            scenes = [scenesim.apply_scenario(s, spec, cfg.model, cfg.sim) for s in self.scenes]

        results, preds_all, gts_all = [], [], []
        for i, scene in enumerate(scenes):
            if tracer is not None:
                tracer.op = next_op + i
            self.checks.problems.clear()
            t0 = time.perf_counter()
            try:
                preds, gts = train.run_inference(cfg, [scene], self.store, fusion=fusion,
                                                 oracle_uncertainty=True)
            except Exception:
                preds = None
                _report_exception(f"decode {fusion}/{scenario}/{i}")
            latency = time.perf_counter() - t0
            ok = preds is not None and not self.checks.problems
            if ok:
                ok = len(preds[0]) == cfg.model.num_queries
                state = self.checks.last_state.tobytes()
                key = (fusion, scenario, i)
                if first_round:
                    self.reference[key] = state
                    self.hash.update(state)
                elif self.reference.get(key) != state:
                    ok = False  # nondeterministic repeat
                preds_all.append(preds[0])
                gts_all.append(gts[0])
            results.append([latency, ok])

        if all(ok for _, ok in results):
            report = metrics.evaluate_detections(
                preds_all, gts_all, cfg.model.num_classes,
                thresholds=tuple(cfg.eval.thresholds),
                tp_threshold=cfg.eval.tp_threshold,
                bins=tuple(cfg.eval.bins),
            )
            scores = (report.map_value, report.nds_value)
            good = all(0.0 <= v <= 1.0 for v in scores)
            if first_round:
                self.scores[(fusion, scenario)] = scores
                self.hash.update(f"{fusion}/{scenario} map {scores[0]!r} "
                                 f"nds {scores[1]!r}".encode())
            else:
                good = good and self.scores.get((fusion, scenario)) == scores
            if not good:
                for r in results:
                    r[1] = False
        self.group += 1
        if self.group == len(self.groups):
            self.digest = self.hash.hexdigest()
        return [tuple(r) for r in results]


def make_workload(workload: str, cfg, checks):
    kind = WORKLOADS[workload]["kind"]
    return (TrainWorkload if kind == "train" else RobustnessWorkload)(cfg, checks)


def timed_pass(wl, seconds: float, min_ops: int, deadline: float) -> tuple:
    """Closed loop until ``seconds`` have passed and at least ``min_ops`` ops
    are done, or the ``deadline`` (a perf_counter value) has passed; never
    before the count window is complete. Returns (latencies, oks, wall)."""
    latencies, oks = [], []
    start = time.perf_counter()
    while True:
        for latency, ok in wl.run_unit(len(latencies), None):
            latencies.append(latency)
            oks.append(ok)
        now = time.perf_counter()
        if len(latencies) >= wl.window and (
            (now - start >= seconds and len(latencies) >= min_ops) or now > deadline
        ):
            return latencies, oks, now - start


def paired_pass(plain, traced, tracer, seconds: float, deadline: float) -> tuple:
    """Alternate units of two identically prepared workloads, ``plain`` with
    the span wrappers removed and ``traced`` with them installed, so that
    both see the same machine load. Runs until ``seconds`` have passed (or
    the ``deadline``) and both count windows are complete. Returns the
    latencies and oks of each."""
    plain_lat, plain_ok, traced_lat, traced_ok = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer.disable()
        for latency, ok in plain.run_unit(len(plain_lat), None):
            plain_lat.append(latency)
            plain_ok.append(ok)
        tracer.enable()
        for latency, ok in traced.run_unit(len(traced_lat), tracer):
            traced_lat.append(latency)
            traced_ok.append(ok)
        now = time.perf_counter()
        if (len(plain_lat) >= plain.window and len(traced_lat) >= traced.window
                and (now - start >= seconds or now > deadline)):
            tracer.disable()
            return plain_lat, plain_ok, traced_lat, traced_ok


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _bilinear_hook(counts, args, out):
    """Reads, out-of-grid reads and computed bytes of one bilinear_sample."""
    grid, coords = args[0], args[1]
    g = grid.data if isinstance(grid, tensor.Tensor) else np.asarray(grid)
    c = coords.data if isinstance(coords, tensor.Tensor) else np.asarray(coords)
    c = c.reshape(-1, 2).astype(g.dtype, copy=False)  # the sampler reads in grid dtype
    H, W, C = g.shape
    i0 = np.floor(c[:, 0] - 0.5)
    j0 = np.floor(c[:, 1] - 0.5)
    cols = ((i0 >= 0) & (i0 < W)).astype(np.int64) + ((i0 >= -1) & (i0 < W - 1))
    rows = ((j0 >= 0) & (j0 < H)).astype(np.int64) + ((j0 >= -1) & (j0 < H - 1))
    points = c.shape[0]
    counts["tensor.bilinear_sample.reads"] += 4 * points
    counts["tensor.bilinear_sample.oob_reads"] += 4 * points - int(np.dot(cols, rows))
    # 4 corner reads and 1 output write per channel, plus 2 coordinates
    counts["tensor.bilinear_sample.bytes_computed"] += points * (5 * C + 2) * g.itemsize


def _tape_hook(counts, args, tape):
    counts["tensor.tape_nodes"] += len(tape.nodes)


def _nms_hook(counts, args, kept):
    counts["geometry.nms_3d.boxes_in"] += len(args[0])
    counts["geometry.nms_3d.kept"] += len(kept)


def _proposals_hook(counts, args, boxes):
    counts["paqg.proposals"] += len(args[0])


def _matches_hook(counts, args, matching):
    counts["decoder.matches"] += sum(len(m) for m in matching)


def install_spans(tracer):
    """Wrap each layer at the binding its caller looks up."""
    for owner, attr, name, hook in (
        (tensor, "bilinear_sample", "tensor.bilinear_sample", _bilinear_hook),
        (tensor.Tensor, "backward", "tensor.backward", None),
        (tensor.Tape, "trace", "tensor.tape_trace", _tape_hook),
        (paqg, "sample_view_scale_mean", "featuremaps.sample_view_scale_mean", None),
        (paqg, "nms_3d", "geometry.nms_3d", _nms_hook),
        (train, "generate_queries", "paqg.generate_queries", None),
        (decoder, "predict_pattern", "rias.predict_pattern", None),
        (decoder, "sample_lidar", "rias.sample_lidar", None),
        (decoder, "sample_camera", "rias.sample_camera", None),
        (decoder, "adaptive_mix", "rias.adaptive_mix", None),
        (uaf, "predict_distance", "uaf.predict_distance", None),
        (uaf, "regress_xy", "uaf.regress_xy", None),
        (uaf, "fuse", "uaf.fuse", None),
        (train, "decode", "decoder.decode", None),
        (decoder, "refine_box", "decoder.refine_box", None),
        (train, "match_layers", "decoder.match_layers", _matches_hook),
        (train, "compute_loss", "decoder.compute_loss", None),
        (train, "sgd_update", "train.sgd_update", None),
        (scenesim, "generate_scene", "scenesim.generate_scene", None),
        (scenesim, "apply_scenario", "scenesim.apply_scenario", None),
        (metrics, "evaluate_detections", "metrics.evaluate_detections", None),
    ):
        tracer.patch(owner, attr, name, hook)
    tracer.patch(paqg, "lift_proposals", "paqg.lift_proposals", _proposals_hook, span=False)


def per_layer_metrics(tracer, n_ops: int, window: int) -> tuple:
    """Per-layer values as {name: (value, unit)}: times in ms per traced op
    (generate_scene: ms per set-up), counts as totals over the count window.
    Returns the BENCHMARK.json metrics, the extra printed ones (error counts
    and ratio numerators) and the raw span summary."""
    busy, self_s, calls = tracer.summarize(range(n_ops))
    _, _, window_calls = tracer.summarize(range(window))
    setup_busy, _, _ = tracer.summarize([SETUP_OP])
    counts = tracer.counts(range(window))

    def ms(name):
        return (busy[name] * 1e3 / n_ops, "ms")

    def self_ms(name):
        return (self_s[name] * 1e3 / n_ops, "ms")

    def count(name, unit="count"):
        return (counts[name], unit)

    def ratio(num, den):
        return (counts[num] / counts[den] if counts[den] else 0.0, "ratio")

    values = {
        "tensor.backward.self_ms": self_ms("tensor.backward"),
        "tensor.tape_trace.ms": ms("tensor.tape_trace"),
        "tensor.tape_nodes": count("tensor.tape_nodes"),
        "tensor.bilinear_sample.calls": (window_calls["tensor.bilinear_sample"], "count"),
        "tensor.bilinear_sample.ms": ms("tensor.bilinear_sample"),
        "tensor.bilinear_sample.bytes_computed":
            count("tensor.bilinear_sample.bytes_computed", "bytes"),
        "tensor.bilinear_sample.reads": count("tensor.bilinear_sample.reads"),
        "tensor.bilinear_sample.oob_ratio":
            ratio("tensor.bilinear_sample.oob_reads", "tensor.bilinear_sample.reads"),
        "featuremaps.sample_view_scale_mean.calls":
            (window_calls["featuremaps.sample_view_scale_mean"], "count"),
        "featuremaps.sample_view_scale_mean.ms": ms("featuremaps.sample_view_scale_mean"),
        "geometry.nms_3d.ms": ms("geometry.nms_3d"),
        "geometry.nms_3d.boxes_in": count("geometry.nms_3d.boxes_in"),
        "geometry.nms_3d.keep_ratio": ratio("geometry.nms_3d.kept", "geometry.nms_3d.boxes_in"),
        "paqg.generate_queries.self_ms": self_ms("paqg.generate_queries"),
        "paqg.proposals": count("paqg.proposals"),
        "rias.predict_pattern.ms": ms("rias.predict_pattern"),
        "rias.sample_lidar.self_ms": self_ms("rias.sample_lidar"),
        "rias.sample_camera.self_ms": self_ms("rias.sample_camera"),
        "rias.adaptive_mix.ms": ms("rias.adaptive_mix"),
        "uaf.predict_distance.ms": ms("uaf.predict_distance"),
        "uaf.regress_xy.ms": ms("uaf.regress_xy"),
        "uaf.fuse.ms": ms("uaf.fuse"),
        "decoder.decode.self_ms": self_ms("decoder.decode"),
        "decoder.refine_box.ms": ms("decoder.refine_box"),
        "decoder.match_layers.ms": ms("decoder.match_layers"),
        "decoder.matches": count("decoder.matches"),
        "decoder.compute_loss.ms": ms("decoder.compute_loss"),
        "train.sgd_update.ms": ms("train.sgd_update"),
        "scenesim.generate_scene.ms": (setup_busy["scenesim.generate_scene"] * 1e3, "ms"),
        "scenesim.apply_scenario.ms": ms("scenesim.apply_scenario"),
        "metrics.evaluate_detections.ms": ms("metrics.evaluate_detections"),
    }
    extra = {f"{layer}.errors": (tracer.errors[layer], "count") for layer in LAYERS}
    extra["tensor.bilinear_sample.oob_reads"] = count("tensor.bilinear_sample.oob_reads")
    extra["geometry.nms_3d.kept"] = count("geometry.nms_3d.kept")
    return values, extra, (busy, self_s, calls)
