"""CLI: subcommands, exit codes, determinism of written artifacts."""

import filecmp
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import fusiondet
from fusiondet import bench, cli, train
from fusiondet.bench import KERNELS
from fusiondet.cli import build_parser, main
from fusiondet.config import RunConfig, ScenarioSection
from fusiondet.params import init_model_params, load_checkpoint, save_checkpoint


def _write_cfg(path, **edits):
    cfg = {
        "model": {"num_queries": 12, "num_top": 4, "num_random": 8, "num_layers": 2},
        "sim": {"num_scenes": 3, "min_objects": 1, "max_objects": 3, "seed": 5},
        "train": {"steps": 4, "seed": 5},
    }
    for dotted, val in edits.items():
        sec, key = dotted.split(".")
        cfg.setdefault(sec, {})[key] = val
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _count_alive(monkeypatch, name):
    """Wrap the CLI's ``name`` so that each call records how many of the
    scenes it has returned so far are still alive, its new one included."""
    made, alive = [], []
    real = getattr(cli, name)

    def tracked(*args, **kwargs):
        scene = real(*args, **kwargs)
        made.append(weakref.ref(scene))
        alive.append(sum(ref() is not None for ref in made))
        return scene

    monkeypatch.setattr(cli, name, tracked)
    return alive


def _tree_bytes(root):
    """Relative path -> bytes of every file under ``root``."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


@pytest.fixture()
def workspace(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json")
    ds = str(tmp_path / "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    return tmp_path, cfg, ds


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["generate", "--config", cfg, "--out", a]) == 0
        assert main(["generate", "--config", cfg, "--out", b]) == 0
        cmp = filecmp.dircmp(a, b)

        def assert_same(dc):
            assert not dc.diff_files and not dc.left_only and not dc.right_only
            for sub in dc.subdirs.values():
                assert_same(sub)

        assert_same(cmp)

    def test_refuses_nonempty_without_force(self, workspace):
        tmp_path, cfg, ds = workspace
        assert main(["generate", "--config", cfg, "--out", ds]) == 1
        assert main(["generate", "--config", cfg, "--out", ds, "--force"]) == 0

    def test_invalid_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump({"model": {"nonsense_key": 1}}, fh)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "nonsense_key" in capsys.readouterr().err

    def test_removed_scenario_kind_exit_2(self, tmp_path, capsys):
        # the scenario is chosen by `robustness --scenario`, not by the config
        path = _write_cfg(tmp_path / "old.json", **{"scenario.kind": "fov_limited"})
        assert main(["generate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "scenario.kind" in err
        assert err.count("\n") == 1

    def test_invalid_override_exit_2(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json")
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--override", "model.bogus=1"])
        assert code == 2

    def test_writes_each_scene_as_it_is_made(self, tmp_path, monkeypatch):
        cfg = _write_cfg(tmp_path / "cfg.json", **{"sim.num_scenes": 4})
        alive = _count_alive(monkeypatch, "generate_scene")
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 0
        assert len(alive) == 4 and max(alive) <= 2

    def test_failed_force_leaves_the_old_dataset(self, workspace, monkeypatch, capsys):
        # under this override scene 2 leaves the float range after scenes 0
        # and 1 are written
        tmp_path, cfg, ds = workspace
        before = _tree_bytes(ds)
        made = []
        real = cli.generate_scene
        monkeypatch.setattr(cli, "generate_scene",
                            lambda model, sim, i: made.append(i) or real(model, sim, i))
        capsys.readouterr()
        assert main(["generate", "--config", cfg, "--out", ds, "--force",
                     "-O", "sim.ego_speed=0", "-O", "sim.frame_dt=6.7e153"]) == 1
        assert made == [0, 1, 2] and "sim.frame_dt" in capsys.readouterr().err
        assert _tree_bytes(ds) == before
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ds"]
        assert main(["infer", "--config", cfg, "--dataset", ds,
                     "--out", str(tmp_path / "preds.json")]) == 0

    def test_manifest_contents(self, workspace):
        tmp_path, cfg, ds = workspace
        with open(os.path.join(ds, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["num_scenes"] == 3
        assert len(manifest["scenes"]) == 3
        assert "config_hash" in manifest and "dataset_hash" in manifest


class TestTrain:
    def test_smoke_run_logs_and_checkpoint(self, workspace):
        tmp_path, cfg, ds = workspace
        ckpt = str(tmp_path / "model.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt]) == 0
        lines = open(ckpt + ".log.jsonl").read().strip().splitlines()
        assert len(lines) == 4
        recs = [json.loads(l) for l in lines]
        assert [r["step"] for r in recs] == [0, 1, 2, 3]
        assert all(np.isfinite(r["total"]) for r in recs)
        tensors, step, _, _ = load_checkpoint(ckpt)
        assert step == 4 and len(tensors) > 0

    def test_resume_continues_steps(self, workspace):
        tmp_path, cfg, ds = workspace
        ckpt1 = str(tmp_path / "m1.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt1]) == 0
        cfg8 = _write_cfg(tmp_path / "cfg8.json", **{"train.steps": 8})
        ckpt2 = str(tmp_path / "m2.fdcp")
        assert main(["train", "--config", cfg8, "--dataset", ds, "--out", ckpt2,
                     "--resume", ckpt1]) == 0
        lines = [json.loads(l) for l in open(ckpt2 + ".log.jsonl")]
        assert [r["step"] for r in lines] == [4, 5, 6, 7]
        _, step, _, _ = load_checkpoint(ckpt2)
        assert step == 8

    def test_resume_matches_uninterrupted(self, workspace):
        tmp_path, cfg, ds = workspace
        cfg8 = _write_cfg(tmp_path / "cfg8.json", **{"train.steps": 8})
        direct = str(tmp_path / "direct.fdcp")
        assert main(["train", "--config", cfg8, "--dataset", ds, "--out", direct]) == 0
        half = str(tmp_path / "half.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", half]) == 0
        resumed = str(tmp_path / "resumed.fdcp")
        assert main(["train", "--config", cfg8, "--dataset", ds, "--out", resumed,
                     "--resume", half]) == 0
        a, _, _, _ = load_checkpoint(direct)
        b, _, _, _ = load_checkpoint(resumed)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_resume_past_the_end_writes_nothing(self, workspace, capsys):
        # a 4-step checkpoint resumed under train.steps=2 would be saved as
        # step 2 while holding step 4's parameters
        tmp_path, cfg, ds = workspace
        ckpt = str(tmp_path / "m4.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt]) == 0
        out = str(tmp_path / "m2.fdcp")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", out,
                     "--resume", ckpt, "-O", "train.steps=2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "past train.steps=2" in err[0]
        assert not os.path.exists(out) and not os.path.exists(out + ".log.jsonl")
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_step_graph_is_freed_before_the_next_decode(self, workspace, monkeypatch):
        # a step's loss, and the graph behind it, must not outlive the step
        tmp_path, cfg, ds = workspace
        losses, alive = [], []
        real_loss, real_decode = train.compute_loss, train.decode

        def tracked_loss(*args, **kwargs):
            loss, terms = real_loss(*args, **kwargs)
            losses.append(weakref.ref(loss.data))  # Tensor has no __weakref__ slot
            return loss, terms

        def tracked_decode(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in losses))
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(train, "compute_loss", tracked_loss)
        monkeypatch.setattr(train, "decode", tracked_decode)
        assert main(["train", "--config", cfg, "--dataset", ds,
                     "--out", str(tmp_path / "model.fdcp")]) == 0
        assert alive == [0, 0, 0, 0]

    def test_dataset_hash_mismatch(self, workspace, tmp_path):
        _, cfg, ds = workspace
        other = _write_cfg(tmp_path / "other.json", **{"sim.seed": 99})
        assert main(["train", "--config", other, "--dataset", ds,
                     "--out", str(tmp_path / "x.fdcp")]) == 1

    def test_train_deterministic_bytes(self, workspace):
        tmp_path, cfg, ds = workspace
        c1, c2 = str(tmp_path / "c1.fdcp"), str(tmp_path / "c2.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", c1]) == 0
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", c2]) == 0
        assert open(c1, "rb").read() == open(c2, "rb").read()
        assert open(c1 + ".log.jsonl").read() == open(c2 + ".log.jsonl").read()


    def test_diverging_run_stops_with_one_line(self, workspace, capsys):
        tmp_path, cfg, ds = workspace
        ckpt = str(tmp_path / "model.fdcp")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt,
                     "-O", "train.lr=1e30"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "diverged at step" in err[0]
        assert not os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".log.jsonl")
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_nan_parameter_behind_a_relu_stops_at_step_0(self, workspace, capsys,
                                                         monkeypatch):
        tmp_path, cfg, ds = workspace
        real = cli.init_model_params

        def with_nan(*args, **kwargs):
            store = real(*args, **kwargs)
            store["layer0.fuse.b1"].data[0] = np.nan
            return store

        monkeypatch.setattr(cli, "init_model_params", with_nan)
        ckpt = str(tmp_path / "model.fdcp")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "diverged at step 0" in err[0]
        assert not os.path.exists(ckpt)

    def test_diverging_resume_keeps_the_previous_log(self, workspace, capsys):
        tmp_path, cfg, ds = workspace
        ckpt = str(tmp_path / "model.fdcp")
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt]) == 0
        log, model = open(ckpt + ".log.jsonl", "rb").read(), open(ckpt, "rb").read()
        cfg8 = _write_cfg(tmp_path / "cfg8.json", **{"train.steps": 8})
        capsys.readouterr()
        assert main(["train", "--config", cfg8, "--dataset", ds, "--out", ckpt,
                     "--resume", ckpt, "-O", "train.lr=1e300"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "diverged at step" in err[0]
        assert open(ckpt + ".log.jsonl", "rb").read() == log
        assert open(ckpt, "rb").read() == model
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


class TestOutOfMemory:
    def test_memory_error_ends_in_one_line(self, tmp_path, monkeypatch, capsys):
        # stands in for numpy failing to allocate an oversized map
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setattr(cli, "generate_scene", no_memory)
        cfg = _write_cfg(tmp_path / "cfg.json")
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: Unable to allocate 1.00 PiB"]


class TestMalformedDataset:
    def _eval(self, tmp_path, cfg, ds, capsys):
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--dataset", ds,
                     "--out", str(tmp_path / "r.json")])
        return code, capsys.readouterr().err.strip().splitlines()

    def test_truncated_camera_map(self, workspace, capsys):
        tmp_path, cfg, ds = workspace
        path = os.path.join(ds, "scene_0000", "cam_v0_m0_t0.npy")
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        code, err = self._eval(tmp_path, cfg, ds, capsys)
        assert code == 1 and len(err) == 1 and "cam_v0_m0_t0.npy" in err[0]

    def test_missing_lidar_scale(self, workspace, capsys):
        tmp_path, cfg, ds = workspace
        os.remove(os.path.join(ds, "scene_0001", "lidar_r1.npy"))
        code, err = self._eval(tmp_path, cfg, ds, capsys)
        assert code == 1 and len(err) == 1
        assert "lidar_r1.npy" in err[0] and "missing" in err[0]

    def test_camera_map_of_wrong_shape(self, workspace, capsys):
        tmp_path, cfg, ds = workspace
        path = os.path.join(ds, "scene_0002", "cam_v1_m1_t0.npy")
        np.save(path, np.load(path)[:-1])
        code, err = self._eval(tmp_path, cfg, ds, capsys)
        assert code == 1 and len(err) == 1
        assert "cam_v1_m1_t0.npy" in err[0] and "expected" in err[0]


    @pytest.mark.parametrize("fname", ["cam_v0_m1_t1.npy", "points_t1.npy"])
    def test_integer_file_ends_in_one_line(self, workspace, capsys, fname):
        tmp_path, cfg, ds = workspace
        path = os.path.join(ds, "scene_0001", fname)
        np.save(path, np.load(path).view(np.int32))
        code, err = self._eval(tmp_path, cfg, ds, capsys)
        assert code == 1 and len(err) == 1
        assert fname in err[0] and "floating point" in err[0]


def _edited_checkpoint(tmp_path, cfg, name, index, value, optimizer=False):
    """``--checkpoint`` of a fresh model with element ``index`` of ``name``
    set to ``value``, in the parameter or in its optimizer state."""
    run = RunConfig.load(cfg)
    store = init_model_params(run.model, seed=run.train.seed)
    arr = np.zeros_like(store[name].data) if optimizer else store[name].data
    arr[index] = value
    path = str(tmp_path / "edited.fdcp")
    save_checkpoint(path, store, 0, run.model.hash(), optimizer={name: arr} if optimizer else None)
    return ["--checkpoint", path]


def _one_ego_pose(ds):
    """Cut scene 0's rig to one ego pose, under a two-frame model."""
    path = os.path.join(ds, "scene_0000", "scene.json")
    with open(path) as fh:
        side = json.load(fh)
    side["rig"]["ego_poses"] = side["rig"]["ego_poses"][:1]
    with open(path, "w") as fh:
        json.dump(side, fh)
    return []


def _edited_scene(ds, key, edit):
    """Replace ``key`` of scene 1's scene.json by ``edit`` of its value."""
    path = os.path.join(ds, "scene_0001", "scene.json")
    with open(path) as fh:
        side = json.load(fh)
    side[key] = edit(side[key])
    with open(path, "w") as fh:
        json.dump(side, fh)
    return []


def _focal_140(rig):
    rig["views"][1]["intrinsics"][0][0] = 140.0
    return rig


def _generate_under(*overrides):
    return lambda tmp, cfg, ds: ["generate", "--config", cfg,
                                 *(arg for o in overrides for arg in ("-O", o))]


def _train_under(override):
    """``train`` argv under ``override``, on a dataset generated under it
    (the sim section is part of the dataset hash)."""
    def argv(tmp, cfg, ds):
        ds = str(tmp / "ds_overridden")
        assert main(["generate", "--config", cfg, "-O", override, "--out", ds]) == 0
        return ["train", "--config", cfg, "--dataset", ds, "-O", override]
    return argv


LAST_REFINE = "layer1.refine.b2"  # the last decoder layer's box head under _write_cfg
# name: (exit code, what the error line names, argv before --out)
MALFORMED = {
    "generate --seed -1": (2, "sim.seed", lambda tmp, cfg, ds: [
        "generate", "--config", cfg, "--seed", "-1"]),
    "train.seed=-3": (2, "train.seed", lambda tmp, cfg, ds: [
        "train", "--config", cfg, "--dataset", ds, "-O", "train.seed=-3"]),
    "scenario.seed=-1": (2, "scenario.seed", lambda tmp, cfg, ds: [
        "robustness", "--config", cfg, "--dataset", ds, "-O", "scenario.seed=-1"]),
    "model.num_classes=2": (2, "model.num_classes", lambda tmp, cfg, ds: [
        "train", "--config", cfg, "--dataset", ds, "-O", "model.num_classes=2"]),
    "no queries": (2, "model.num_queries", lambda tmp, cfg, ds: [
        "train", "--config", cfg, "--dataset", ds, "-O", "model.num_queries=0",
        "-O", "model.num_top=0", "-O", "model.num_random=0"]),
    "gradcheck --seeds 0": (1, "--seeds", lambda tmp, cfg, ds: ["gradcheck", "--seeds", "0"]),
    "gradcheck --seeds -3": (1, "--seeds", lambda tmp, cfg, ds: ["gradcheck", "--seeds", "-3"]),
    "infer, NaN parameter": (1, LAST_REFINE, lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds,
        *_edited_checkpoint(tmp, cfg, LAST_REFINE, 0, np.nan)]),
    "eval, NaN parameter": (1, LAST_REFINE, lambda tmp, cfg, ds: [
        "eval", "--config", cfg, "--dataset", ds,
        *_edited_checkpoint(tmp, cfg, LAST_REFINE, 0, np.nan)]),
    "infer, infinite optimizer state": (1, LAST_REFINE, lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds,
        *_edited_checkpoint(tmp, cfg, LAST_REFINE, 0, np.inf, optimizer=True)]),
    "infer, one ego pose": (1, "ego poses", lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds, *_one_ego_pose(ds)]),
    # a scene file that stores another range, rig, seed or frame count than
    # the config builds; the line names the file and the part
    "eval, scene det_range 100 m": (1, "scene.json differs from the config in its det range x",
                                    lambda tmp, cfg, ds: [
        "eval", "--config", cfg, "--dataset", ds, *_edited_scene(
            ds, "det_range", lambda r: {**r, "x": [-100.0, 100.0], "y": [-100.0, 100.0]})]),
    "infer, scene focal length 140": (1, "scene.json differs from the config in its rig views[1] "
                                      "intrinsics[0][0]", lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds, *_edited_scene(ds, "rig", _focal_140)]),
    "infer, scene seed": (1, "scene.json differs from the config in its seed",
                          lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds, *_edited_scene(ds, "seed", lambda s: s + 1)]),
    "train, scene num_frames": (1, "scene.json differs from the config in its num frames",
                                lambda tmp, cfg, ds: [
        "train", "--config", cfg, "--dataset", ds, *_edited_scene(ds, "num_frames", lambda n: 1)]),
    "infer, box size -1e4": (1, "box sizes", lambda tmp, cfg, ds: [
        "infer", "--config", cfg, "--dataset", ds,
        *_edited_checkpoint(tmp, cfg, LAST_REFINE, 3, -1e4)]),
    "eval, box size -1e4": (1, "box sizes", lambda tmp, cfg, ds: [
        "eval", "--config", cfg, "--dataset", ds,
        *_edited_checkpoint(tmp, cfg, LAST_REFINE, 3, -1e4)]),
    "bench --reps 29": (1, "--reps", lambda tmp, cfg, ds: [
        "bench", "--config", cfg, "--reps", "29"]),
    # config values the simulator cannot run with, then draws it cannot make;
    # each error line names the key set; a range bound past the float32
    # range is refused under the single precision the config sets
    **{item: (2, item.split("=")[0], _generate_under(item)) for item in (
        "sim.spawn_margin=25", "model.range_xy=[-1e-300,1e-300]",
        "model.range_xy=[-1e308,1e308]", "model.range_z=[-8.9e307,8.9e307]",
        "model.range_xy=[-1e39,1e39]")},
    "train.log_every=0": (2, "train.log_every", lambda tmp, cfg, ds: [
        "train", "--config", cfg, "--dataset", ds, "-O", "train.log_every=0"]),
    **{item: (1, item.split("=")[0], _generate_under(item)) for item in (
        "sim.point_density=1e308", "sim.clutter_density=1e308",
        "sim.frame_dt=1e308", "sim.ego_speed=1e308")},
    # a range double precision holds, whose past-frame poses leave the float range
    "model.range_xy=[-1e200,1e200]": (1, "model.range_xy", _generate_under(
        "model.range_xy=[-1e200,1e200]", "model.precision=double")),
    # size_sigma=50 and vel_sigma=1e100 draw sizes and velocities that are
    # finite as float64, not as float32
    **{item: (1, item.split("=")[0], _train_under(item)) for item in (
        "sim.oracle.fp_rate=1e308", "sim.oracle.depth_sigma=1000",
        "sim.oracle.depth_sigma=1e308", "sim.oracle.size_sigma=1000",
        "sim.oracle.yaw_sigma=1e308", "sim.oracle.vel_sigma=1e308",
        "sim.oracle.size_sigma=50", "sim.oracle.vel_sigma=1e100")},
    # a generate that fails in scene 0, and one that fails in scene 2 after
    # two scenes are written, leave no directory
    **{f"generate, frame_dt={dt}": (1, "sim.frame_dt", lambda tmp, cfg, ds, dt=dt: [
        "generate", "--config", cfg, "-O", "sim.ego_speed=0", "-O", f"sim.frame_dt={dt}"])
       for dt in ("1e308", "6.7e153")},
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_ends_in_one_line(workspace, capsys, case):
    tmp_path, cfg, ds = workspace
    code, names, argv = MALFORMED[case]
    out = tmp_path / "out"
    argv = argv(tmp_path, cfg, ds) + ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("config error:" if code == 2 else "error:") and names in err
    assert not [f for f in os.listdir(tmp_path) if f.startswith("out")]  # nor a temporary


class TestEvalAndInfer:
    def test_eval_report_schema(self, workspace):
        tmp_path, cfg, ds = workspace
        ckpt = str(tmp_path / "m.fdcp")
        main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt])
        rep = str(tmp_path / "report.json")
        assert main(["eval", "--config", cfg, "--dataset", ds,
                     "--checkpoint", ckpt, "--out", rep]) == 0
        doc = json.load(open(rep))
        for key in ("map", "nds", "tp_metrics", "distance_bins", "config_hash",
                    "version", "fusion"):
            assert key in doc
        assert os.path.exists(str(tmp_path / "report_bins.csv"))

    def test_eval_deterministic(self, workspace):
        tmp_path, cfg, ds = workspace
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["eval", "--config", cfg, "--dataset", ds, "--out", r1,
                     "--oracle-uncertainty"]) == 0
        assert main(["eval", "--config", cfg, "--dataset", ds, "--out", r2,
                     "--oracle-uncertainty"]) == 0
        assert open(r1).read() == open(r2).read()

    def test_infer_writes_predictions(self, workspace):
        tmp_path, cfg, ds = workspace
        out = str(tmp_path / "preds.json")
        assert main(["infer", "--config", cfg, "--dataset", ds, "--out", out]) == 0
        doc = json.load(open(out))
        assert len(doc["scenes"]) == 3
        assert all(len(s["boxes"]) == 12 for s in doc["scenes"])


    def test_inference_leaves_scipy_optimize_unloaded(self):
        # only training's matching reads scipy.optimize, and importing it
        # costs tens of MiB; a fresh interpreter shows whether it was loaded
        script = (
            "import sys\n"
            "from fusiondet import cli\n"
            "from fusiondet.config import RunConfig\n"
            "from fusiondet.params import init_model_params\n"
            "from fusiondet.scenesim import generate_scene\n"
            "from fusiondet.train import run_inference\n"
            "cfg = RunConfig()\n"
            "store = init_model_params(cfg.model, seed=0)\n"
            "scenes = [generate_scene(cfg.model, cfg.sim, 0)]\n"
            "for oracle in (False, True):\n"
            "    preds, _ = run_inference(cfg, scenes, store, oracle_uncertainty=oracle)\n"
            "    assert len(preds) == 1\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(fusiondet.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert proc.stdout.strip() == "False"


class TestRobustness:
    def test_per_scenario_reports(self, workspace):
        tmp_path, cfg, ds = workspace
        out = str(tmp_path / "rob")
        assert main(["robustness", "--config", cfg, "--dataset", ds, "--out", out,
                     "--fusion", "equal", "--oracle-uncertainty",
                     "--scenario", "fov_limited", "--scenario", "front_occlusion"]) == 0
        for name in ("clean_equal", "fov_limited_equal", "front_occlusion_equal",
                     "summary_equal"):
            assert os.path.exists(os.path.join(out, name + ".json"))
        summary = json.load(open(os.path.join(out, "summary_equal.json")))
        assert set(summary["scenarios"]) == {"fov_limited", "front_occlusion"}
        for rec in summary["scenarios"].values():
            assert "nds_drop" in rec

    def test_decodes_each_corrupted_scene_as_it_is_made(self, tmp_path, monkeypatch):
        cfg = _write_cfg(tmp_path / "cfg.json", **{"sim.num_scenes": 4})
        ds = str(tmp_path / "ds")
        assert main(["generate", "--config", cfg, "--out", ds]) == 0
        alive = _count_alive(monkeypatch, "apply_scenario")
        assert main(["robustness", "--config", cfg, "--dataset", ds,
                     "--out", str(tmp_path / "rob"), "--oracle-uncertainty",
                     "--scenario", "fov_limited", "--scenario", "front_occlusion"]) == 0
        assert len(alive) == 8 and max(alive) <= 2

    def test_scenario_choices_are_the_config_kinds(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        scenario = next(a for a in sub.choices["robustness"]._actions if a.dest == "scenario")
        assert tuple(scenario.choices) == ScenarioSection.KINDS

    def test_stuck_requires_two_frames(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg1.json", **{"model.num_frames": 1})
        ds = str(tmp_path / "ds1")
        assert main(["generate", "--config", cfg, "--out", ds]) == 0
        assert main(["robustness", "--config", cfg, "--dataset", ds,
                     "--out", str(tmp_path / "rob"),
                     "--scenario", "stuck"]) == 1


class TestBenchAndGradcheck:
    def test_bench_kernel(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--config", cfg, "--kernel", "sample_lidar",
                     "--reps", "30", "--out", out]) == 0
        doc = json.load(open(out))
        for key in ("config_hash", "python_version", "numpy_version", "scipy_version",
                    "platform", "omp_num_threads"):
            assert key in doc
        assert doc["numpy_version"] == np.__version__
        assert doc["omp_num_threads"] == os.environ.get("OMP_NUM_THREADS")
        rep = doc["reports"][0]
        assert rep["repetitions"] == 30
        # p90 needs 100 repetitions, 10 samples beyond it; p99 is not reported
        assert rep["p50_ms"] > 0 and rep["p90_ms"] is None and "p99_ms" not in rep
        assert rep["queries_per_s"] > 0

    def test_bench_times_every_kernel_once(self, tmp_path, monkeypatch):
        real, timed = bench._time_ms, []
        monkeypatch.setattr(bench, "_time_ms",
                            lambda fn, reps: timed.append(fn) or real(fn, reps))
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = str(tmp_path / "bench2.json")
        assert main(["bench", "--config", cfg, "--reps", "30", "--out", out]) == 0
        reports = json.load(open(out))["reports"]
        assert [r["kernel"] for r in reports] == list(KERNELS)
        assert "predict_pattern" in KERNELS and len(timed) == len(KERNELS)
        assert all("parts_ms" not in r and 0 < r["p50_ms"] for r in reports)

    def test_bench_generate_queries(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = str(tmp_path / "bench3.json")
        assert main(["bench", "--config", cfg, "--kernel", "generate_queries",
                     "--reps", "100", "--out", out]) == 0
        rep = json.load(open(out))["reports"][0]
        assert rep["kernel"] == "generate_queries" and rep["repetitions"] == 100
        assert 0 < rep["p50_ms"] <= rep["p90_ms"]
        assert capsys.readouterr().out.startswith("generate_queries")

    def test_gradcheck_quick(self, tmp_path):
        out = str(tmp_path / "grad.json")
        assert main(["gradcheck", "--seeds", "2", "--out", out]) == 0
        doc = json.load(open(out))
        assert all(r["passed"] for r in doc["results"].values())
