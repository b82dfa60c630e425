"""Acceptance criteria.

Each test prints one `[criterion N] PASS/FAIL` line (run with `-v -s`).
Criterion 6 performs the full toy training run and its artifacts are shared
with criterion 7, so this module is slow (~10 min end to end).
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fusiondet
from fusiondet import tensor as T
from fusiondet.config import OracleSection, RunConfig
from fusiondet.decoder import decode, hungarian_match, _state_scale
from fusiondet.geometry import (
    Box3D,
    align_temporal,
    bev_rotated_iou,
    nms_3d,
    project_to_view,
    unproject_center,
)
from fusiondet.gradsuite import BUILDERS, check_op
from fusiondet.metrics import evaluate_detections, nds
from fusiondet.paqg import generate_queries
from fusiondet.params import init_model_params
from fusiondet.queries import boxes_to_state
from fusiondet.scenesim import ScenarioSpec, apply_scenario, generate_scene
from fusiondet.train import run_inference, train_loop

from test_geometry import _azimuth_view, _box, _brute_force_nms, _mc_iou
from test_metrics import TestNds
from test_rias import ref_sample_camera, ref_sample_lidar


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: NDS arithmetic reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_nds_arithmetic():
    headline = nds(0.744, [0.241, 0.229, 0.278, 0.154, 0.118])
    ok = abs(headline - 0.770) <= 5e-4
    worst = abs(headline - 0.770)
    for tps, map_pct, nds_pct in TestNds.TABLE_ROWS:
        val = nds(map_pct / 100.0, [t / 100.0 for t in tps])
        err = abs(val - nds_pct / 100.0)
        worst = max(worst, err)
        ok &= err <= 5e-4 + 1e-12
    _verdict(1, "NDS arithmetic reproduces every full benchmark-table row",
             ok, f"worst |err| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite, 100 seeds per op, < 2 min
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_suite():
    t0 = time.time()
    worst = {}
    for name in BUILDERS:
        w = 0.0
        for seed in range(100):
            rep = check_op(name, seed, tolerance=1e-4)
            w = max(w, rep.max_rel_error)
        worst[name] = w
    elapsed = time.time() - t0
    ok = all(w <= 1e-4 for w in worst.values()) and elapsed < 120.0
    detail = f"{elapsed:.0f}s; worst {max(worst, key=worst.get)}={max(worst.values()):.2e}"
    _verdict(2, "all differentiable ops pass FD checks at 1e-4 over 100 seeds",
             ok, detail)


# ---------------------------------------------------------------------------
# criterion 3: sampling oracle equivalence (1e-10, double, 100 configs)
# ---------------------------------------------------------------------------


def test_criterion_3_sampling_oracle_equivalence():
    from fusiondet.featuremaps import CameraFeatureSet, LidarFeaturePyramid
    from fusiondet.geometry import DetectionRange
    from fusiondet.rias import SamplingPattern, sample_camera, sample_lidar
    from test_rias import _normalized_weights, _random_rig

    det = DetectionRange(-12, 12, -12, 12, -2, 2)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([1003, seed]))
        # lidar: vary R, K
        N = int(rng.integers(1, 6))
        R = int(rng.integers(1, 4))
        K = int(rng.integers(1, 5))
        C = int(rng.integers(1, 6))
        grids = [rng.normal(size=(8, 8, C)) for _ in range(R)]
        centers = rng.uniform(-10, 10, size=(N, 2))
        offs = rng.normal(0, 1.5, size=(N, R, K, 2))
        w = _normalized_weights(rng, (N, R, K), (1, 2))
        pyr = LidarFeaturePyramid(grids, det)
        got = sample_lidar(
            T.Tensor(centers, dtype=np.float64),
            SamplingPattern(T.Tensor(offs, dtype=np.float64),
                            T.Tensor(w, dtype=np.float64)), pyr).data
        worst = max(worst, float(np.abs(got - ref_sample_lidar(centers, offs, w, grids, det)).max()))
        # camera: vary V, M, T, K
        V = int(rng.integers(1, 4))
        M = int(rng.integers(1, 3))
        Tt = int(rng.integers(1, 3))
        Kc = int(rng.integers(1, 4))
        rig = _random_rig(rng, V, Tt)
        strides = [2.0 * 2 ** m for m in range(M)]
        cgrids = {(v, m, t): rng.normal(size=(int(48 // strides[m] * 2), int(64 // strides[m] * 2), C))
                  for v in range(V) for m in range(M) for t in range(Tt)}
        feats = CameraFeatureSet(cgrids, V, M, Tt, strides)
        c3 = np.column_stack([rng.uniform(-8, 8, N), rng.uniform(-8, 8, N),
                              rng.uniform(-0.5, 1.5, N)])
        offs_c = rng.normal(0, 1.0, size=(N, Tt, Kc, 3))
        w_c = _normalized_weights(rng, (N, Tt, M, Kc), (2, 3))
        got = sample_camera(
            T.Tensor(c3, dtype=np.float64),
            SamplingPattern(T.Tensor(offs_c, dtype=np.float64),
                            T.Tensor(w_c, dtype=np.float64)), feats, rig).data
        worst = max(worst, float(np.abs(got - ref_sample_camera(c3, offs_c, w_c, cgrids, strides, rig)).max()))
    _verdict(3, "sample_lidar/sample_camera match dense loop references",
             worst < 1e-10, f"worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: geometry oracles
# ---------------------------------------------------------------------------


def test_criterion_4_geometry_oracles():
    rng = np.random.default_rng(42)
    view = _azimuth_view(0.3)
    worst_rt = 0.0
    for _ in range(10_000):
        u = rng.uniform(0, 200)
        v = rng.uniform(0, 100)
        d = rng.uniform(0.2, 80.0)
        p = unproject_center(u, v, d, view)
        res = project_to_view(p, view)
        worst_rt = max(worst_rt, float(np.linalg.norm(unproject_center(*res, view) - p)))
    ok_rt = worst_rt < 1e-6

    worst_iou = 0.0
    for i in range(1000):
        a = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4),
                 rng.uniform(0.5, 4), rng.uniform(-math.pi, math.pi))
        b = _box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4),
                 rng.uniform(0.5, 4), rng.uniform(-math.pi, math.pi))
        worst_iou = max(worst_iou, abs(bev_rotated_iou(a, b) - _mc_iou(a, b, seed=i)))
    ok_iou = worst_iou < 0.01

    ok_nms = True
    for _ in range(200):
        n = int(rng.integers(1, 51))
        boxes = [_box(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.5, 5),
                      rng.uniform(0.5, 5), rng.uniform(-math.pi, math.pi),
                      score=float(rng.uniform(0, 1))) for _ in range(n)]
        ok_nms &= nms_3d(boxes, 0.5) == _brute_force_nms(boxes, 0.5)

    # hungarian vs exhaustive for n <= 8
    from fusiondet.config import ModelSection, TrainSection
    model = ModelSection()
    tcfg = TrainSection()
    scale = _state_scale(model.detection_range())
    ok_hung = True
    for _ in range(25):
        n_pred = int(rng.integers(1, 9))
        n_gt = int(rng.integers(1, n_pred + 1))
        gts = [Box3D(rng.uniform(-20, 20, 3), rng.uniform(0.5, 4, 3),
                     rng.uniform(-3, 3), rng.normal(0, 2, 2),
                     class_id=int(rng.integers(0, 3))) for _ in range(n_gt)]
        state = boxes_to_state([Box3D(rng.uniform(-20, 20, 3), rng.uniform(0.5, 4, 3),
                                      rng.uniform(-3, 3), rng.normal(0, 2, 2))
                                for _ in range(n_pred)])
        scores = rng.uniform(0, 1, size=(n_pred, 3))
        gt_state = boxes_to_state(gts)

        def pair_cost(pi, gi):
            box = np.sum(np.abs(state[pi] - gt_state[gi]) * scale)
            return tcfg.w_cls * (1 - scores[pi, gts[gi].class_id]) + tcfg.w_box * box

        def total_cost(pairs):
            unmatched = (n_pred - len(pairs)) + (n_gt - len(pairs))
            return (sum(pair_cost(pi, gi) for pi, gi in pairs)
                    + tcfg.no_object_cost * unmatched)

        best = min(
            total_cost(list(zip(psub, gsub)))
            for k in range(0, n_gt + 1)
            for gsub in itertools.combinations(range(n_gt), k)
            for psub in itertools.permutations(range(n_pred), k)
        )
        got = hungarian_match(state, scores, gts, tcfg, model.detection_range())
        ok_hung &= abs(total_cost(got) - best) < 1e-9

    ok = ok_rt and ok_iou and ok_nms and ok_hung
    _verdict(4, "projection round trip, MC IoU, brute-force NMS, exhaustive matching",
             ok, f"rt {worst_rt:.1e}, iou {worst_iou:.4f}, nms {ok_nms}, hung {ok_hung}")


# ---------------------------------------------------------------------------
# criterion 5: PAQG fidelity (exact up to 1e-9)
# ---------------------------------------------------------------------------


def hit_views(p, rig, t: int = 0) -> list:
    """Indices of views in which the (temporally aligned) point projects."""
    p_t = align_temporal(p, rig, t)
    return [i for i, v in enumerate(rig.views) if project_to_view(p_t, v) is not None]


def test_criterion_5_paqg_fidelity():
    cfg = RunConfig()
    cfg.model.precision = "double"
    noiseless = OracleSection(pixel_sigma=0.0, depth_sigma=0.0, size_sigma=0.0,
                              yaw_sigma=0.0, vel_sigma=0.0, miss_rate=0.0, fp_rate=0.0)
    worst_ate = 0.0
    worst_aoe = 0.0
    covered = 0
    for scene_id in range(6):
        scene = generate_scene(cfg.model, cfg.sim, scene_id)
        store = init_model_params(cfg.model, seed=scene_id)  # heads zero-init by default
        batch = generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                                 cfg.model, noiseless, store["query.default_embedding"],
                                 np.random.default_rng(scene_id))
        preds = decode(batch, scene.feature_set(cfg.model), scene.lidar_pyramid(cfg.model),
                       scene.rig, store, cfg.model)
        final = preds[-1].boxes()
        for gt in scene.gt_boxes:
            if not hit_views(gt.center, scene.rig, 0):
                continue  # not proposal-covered
            covered += 1
            errs = [np.linalg.norm(b.center - gt.center) for b in final]
            i = int(np.argmin(errs))
            worst_ate = max(worst_ate, errs[i])
            dyaw = abs(final[i].yaw - gt.yaw) % (2 * math.pi)
            worst_aoe = max(worst_aoe, min(dyaw, 2 * math.pi - dyaw))
    ok = covered > 0 and worst_ate <= 1e-9 and worst_aoe <= 1e-9
    _verdict(5, "noiseless oracle + zero-init heads give exact boxes",
             ok, f"{covered} covered objects, ATE {worst_ate:.1e}, AOE {worst_aoe:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: toy end-to-end training (shared fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    cfg = RunConfig()  # desk defaults are exactly the pinned acceptance config
    assert (cfg.sim.num_scenes, cfg.model.num_views, cfg.model.num_cam_scales,
            cfg.model.num_lidar_scales, cfg.model.num_frames, cfg.model.channels,
            cfg.model.num_queries, cfg.model.num_layers) == (64, 4, 2, 2, 2, 32, 60, 3)
    assert cfg.sim.max_objects <= 8 and cfg.train.steps == 2000
    t0 = time.time()
    scenes = [generate_scene(cfg.model, cfg.sim, i) for i in range(cfg.sim.num_scenes)]
    store = init_model_params(cfg.model, seed=cfg.train.seed)
    records = train_loop(cfg, scenes, store)
    minutes = (time.time() - t0) / 60.0
    return cfg, scenes, store, records, minutes


def test_criterion_6_toy_training(trained):
    cfg, scenes, store, records, minutes = trained
    totals = np.array([r["total"] for r in records])
    window_means = totals[:500].reshape(10, 50).mean(axis=1)
    decreasing = bool(np.all(np.diff(window_means) < 0))
    preds, gts = run_inference(cfg, scenes, store)
    rep = evaluate_detections(preds, gts, cfg.model.num_classes,
                              thresholds=tuple(cfg.eval.thresholds),
                              tp_threshold=cfg.eval.tp_threshold,
                              bins=tuple(cfg.eval.bins))
    map2 = rep.map_at[2.0]
    ate = rep.tp_metrics["ate"]
    ok = decreasing and map2 >= 0.6 and ate <= 1.0 and minutes <= 20.0
    _verdict(6, "2000-step training: loss decreases, mAP@2m >= 0.6, ATE <= 1.0, <= 20 min",
             ok, f"mAP@2m {map2:.3f}, ATE {ate:.2f} m, {minutes:.1f} min, "
                 f"window means decreasing: {decreasing}")


TRAINED_DIGEST = "f3fbbcf22a1a32d9276013b8614264fa4a9efe9bdce7cdb8bad26df910acb126"


def test_default_training_run_is_unchanged(trained):
    """Every loss record of the 2000-step default run and every final
    parameter's name, dtype and bytes, pinned, so a change that claims
    unchanged outputs cannot differ first at a late step (a gradient that
    turns float32 at step 624 passes every short comparison).

    Like tests/test_digests.py, the digest assumes this host's OpenBLAS
    kernels; it moves with every intended output change.
    """
    _, _, store, records, _ = trained
    h = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8"))
    for name, t in store.items():
        h.update(name.encode("utf-8"))
        h.update(t.data.dtype.name.encode("utf-8"))
        h.update(t.data.tobytes())
    assert h.hexdigest() == TRAINED_DIGEST


# ---------------------------------------------------------------------------
# criterion 7: UAF robustness ordering (direction only)
# ---------------------------------------------------------------------------


def _nds_for(cfg, scenes, store, fusion):
    preds, gts = run_inference(cfg, scenes, store, fusion=fusion,
                               oracle_uncertainty=True)
    rep = evaluate_detections(preds, gts, cfg.model.num_classes,
                              thresholds=tuple(cfg.eval.thresholds),
                              tp_threshold=cfg.eval.tp_threshold,
                              bins=tuple(cfg.eval.bins))
    return rep.nds_value


def test_criterion_7_uaf_robustness_ordering(trained):
    cfg, _, store, _, _ = trained
    scenarios = {
        "fov_limited": ScenarioSpec(kind="fov_limited", angle_deg=120.0),
        "object_failure": ScenarioSpec(kind="object_failure", frame_rate=0.5, object_rate=0.5),
        "front_occlusion": ScenarioSpec(kind="front_occlusion"),
        "stuck": ScenarioSpec(kind="stuck", frame_rate=0.5, stuck_sensor="camera"),
    }
    drops = {name: {"uaf": [], "equal": []} for name in scenarios}
    for seed in (101, 102, 103):
        eval_cfg = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        eval_cfg.sim.seed = seed
        eval_cfg.sim.num_scenes = 16
        scenes = [generate_scene(eval_cfg.model, eval_cfg.sim, i) for i in range(16)]
        clean = {f: _nds_for(eval_cfg, scenes, store, f) for f in ("uaf", "equal")}
        for name, spec in scenarios.items():
            spec_seeded = ScenarioSpec(**{**spec.__dict__, "seed": seed})
            corrupted = [apply_scenario(s, spec_seeded, eval_cfg.model, eval_cfg.sim)
                         for s in scenes]
            for f in ("uaf", "equal"):
                drops[name][f].append(clean[f] - _nds_for(eval_cfg, corrupted, store, f))
    details = []
    ok = True
    for name in scenarios:
        d_uaf = float(np.mean(drops[name]["uaf"]))
        d_eq = float(np.mean(drops[name]["equal"]))
        tie_slack = 0.0 if name == "fov_limited" else 0.005
        good = d_uaf <= d_eq + tie_slack
        ok &= good
        details.append(f"{name}: uaf {d_uaf:+.4f} vs equal {d_eq:+.4f} {'ok' if good else 'BAD'}")
    _verdict(7, "NDS drop with adaptive fusion <= drop with equal fusion", ok,
             "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: scenario correctness
# ---------------------------------------------------------------------------


def test_criterion_8_scenario_correctness():
    cfg = RunConfig()
    scene = generate_scene(cfg.model, cfg.sim, 0)

    fov = apply_scenario(scene, ScenarioSpec(kind="fov_limited", angle_deg=120.0),
                         cfg.model, cfg.sim)
    ok_fov = True
    for t in range(len(scene.points)):
        az = np.degrees(np.arctan2(scene.points[t][:, 1], scene.points[t][:, 0]))
        keep = np.abs(az) <= 60.0
        ok_fov &= len(fov.points[t]) == int(keep.sum())
        ok_fov &= np.array_equal(fov.points[t], scene.points[t][keep])

    occ = apply_scenario(scene, ScenarioSpec(kind="front_occlusion"), cfg.model, cfg.sim)
    ok_occ = True
    for (v, m, t), grid in occ.cam_maps.items():
        if v == 0:
            ok_occ &= np.count_nonzero(grid) == 0
        else:
            ok_occ &= np.array_equal(grid, scene.cam_maps[(v, m, t)])

    total = dropped = 0
    spec = ScenarioSpec(kind="object_failure", frame_rate=0.5, object_rate=0.5, seed=7)
    sid = 0
    while total < 1000:
        sc = generate_scene(cfg.model, cfg.sim, sid)
        out = apply_scenario(sc, spec, cfg.model, cfg.sim)
        for t in range(cfg.model.num_frames):
            before = set(np.unique(sc.obj_ids[t][sc.obj_ids[t] >= 0]))
            after = set(np.unique(out.obj_ids[t][out.obj_ids[t] >= 0]))
            total += len(before)
            dropped += len(before - after)
        sid += 1
    p = 0.25
    sigma = math.sqrt(total * p * (1 - p))
    ok_stats = abs(dropped - total * p) <= 3 * sigma
    ok = ok_fov and ok_occ and ok_stats
    _verdict(8, "fov cut exact, front view zeroed, drop fraction = rates product",
             ok, f"fov {ok_fov}, occ {ok_occ}, dropped {dropped}/{total} "
                 f"(expect {total * p:.0f} +/- {3 * sigma:.0f})")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism (bit-identical artifacts)
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    # the subprocess runs in ``cwd``, where a relative PYTHONPATH finds
    # nothing: hand it the source tree this process imported fusiondet from
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(fusiondet.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=src_root + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run([sys.executable, "-m", "fusiondet.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_criterion_9_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = RunConfig()
    cfg.sim.num_scenes = 8
    cfg.train.steps = 40
    with open(cfg_path, "w") as fh:
        json.dump(cfg.to_dict(), fh)

    results = {}
    for tag in ("a", "b"):
        ds = tmp_path / f"ds_{tag}"
        ck = tmp_path / f"ck_{tag}.fdcp"
        rep = tmp_path / f"rep_{tag}.json"
        _run_cli(["generate", "--config", str(cfg_path), "--out", str(ds)], tmp_path)
        _run_cli(["train", "--config", str(cfg_path), "--dataset", str(ds),
                  "--out", str(ck)], tmp_path)
        _run_cli(["eval", "--config", str(cfg_path), "--dataset", str(ds),
                  "--checkpoint", str(ck), "--out", str(rep)], tmp_path)
        results[tag] = {
            "dataset": _tree_bytes(ds),
            "checkpoint": open(ck, "rb").read(),
            "log": open(str(ck) + ".log.jsonl", "rb").read(),
            "report": open(rep, "rb").read(),
        }
    ok_ds = results["a"]["dataset"] == results["b"]["dataset"]
    ok_ck = results["a"]["checkpoint"] == results["b"]["checkpoint"]
    ok_log = results["a"]["log"] == results["b"]["log"]
    ok_rep = results["a"]["report"] == results["b"]["report"]
    ok = ok_ds and ok_ck and ok_log and ok_rep
    _verdict(9, "generate/train/eval are bit-identical across runs",
             ok, f"dataset {ok_ds}, checkpoint {ok_ck}, log {ok_log}, report {ok_rep}")
