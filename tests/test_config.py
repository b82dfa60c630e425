"""Config schema, leaf type checks and malformed-checkpoint handling."""

import json
import os
import struct

import pytest

from fusiondet.cli import main
from fusiondet.config import ConfigError, ModelSection, RunConfig
from fusiondet.params import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
)

DESK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")

# (dotted key, JSON text of the value): each must end in a ConfigError
BAD_LEAVES = [
    ("model.channels", '"abc"'),
    ("sim.num_scenes", "1.5"),
    ("model.num_layers", '"3"'),
    ("model.num_layers", "true"),
    ("sim.focal", "false"),
    ("model.precision", "1"),
    ("eval.bins", '[0.0, "10"]'),
    ("model.range_xy", "3"),
    ("sim.oracle", "3"),
]


def _nested(dotted: str, value) -> dict:
    d = value
    for part in reversed(dotted.split(".")):
        d = {part: d}
    return d


def _one_line_error(capsys, prefix: str):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1


class TestDeskConfig:
    def test_desk_json_is_the_defaults(self):
        with open(DESK_JSON, encoding="utf-8") as fh:
            desk = json.load(fh)
        assert desk == RunConfig().to_dict()
        assert RunConfig.load(DESK_JSON).hash() == RunConfig().hash()


class TestLeafTypes:
    @pytest.mark.parametrize("dotted,raw", BAD_LEAVES)
    def test_from_dict_rejects(self, dotted, raw):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(_nested(dotted, json.loads(raw)))

    @pytest.mark.parametrize("dotted,raw", BAD_LEAVES)
    def test_override_rejects(self, dotted, raw):
        cfg = RunConfig()
        before = cfg.hash()
        with pytest.raises(ConfigError):
            cfg.apply_override(dotted, raw)
        assert cfg.hash() == before

    def test_good_leaves_accepted(self):
        cfg = RunConfig()
        cfg.apply_override("model.channels", "16")
        cfg.apply_override("model.precision", "double")  # bare strings stay allowed
        cfg.apply_override("eval.bins", "[0, 15.5]")
        cfg.validate()
        assert (cfg.model.channels, cfg.model.precision) == (16, "double")

    @pytest.mark.parametrize("args", [
        ["-O", 'model.channels="abc"'],
        ["-O", "sim.num_scenes=1.5"],
    ])
    def test_cli_override_exit_2(self, tmp_path, capsys, args):
        assert main(["generate", *args, "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(tmp_path / "o")

    def test_cli_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"num_layers": "3"}}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")


# (dotted key, JSON text of the value): type-correct, but not a [min, max] range
BAD_RANGES = [
    ("model.range_xy", "[5]"),
    ("model.range_xy", "[5, -5]"),
    ("model.range_z", "[1, 1]"),
]


class TestDetectionRange:
    @pytest.mark.parametrize("dotted,raw", BAD_RANGES)
    def test_from_dict_rejects(self, dotted, raw):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(_nested(dotted, json.loads(raw)))

    @pytest.mark.parametrize("dotted,raw", BAD_RANGES)
    def test_override_rejects(self, dotted, raw):
        cfg = RunConfig()
        cfg.apply_override(dotted, raw)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("dotted,raw", BAD_RANGES)
    def test_cli_exit_2(self, tmp_path, capsys, dotted, raw):
        assert main(["generate", "-O", f"{dotted}={raw}", "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(tmp_path / "o")


# (dotted key, JSON text of the value): type-correct, but a simulator, model
# or eval setting the program cannot run with
BAD_SIZES = [
    ("sim.base_stride", "0"),
    ("sim.bev_grid", "127"),
    ("sim.bev_grid", "0"),
    ("sim.focal", "-1"),
    ("sim.image_width", "4"),
    ("sim.image_width", "330"),
    ("sim.image_height", "0"),
    ("model.max_offset_factor", "0"),
    ("model.nms_iou", "-0.1"),
    ("model.nms_iou", "1.5"),
    ("eval.thresholds", "[]"),
    ("eval.thresholds", "[0, 1]"),
]


class TestSizes:
    @pytest.mark.parametrize("dotted,raw", BAD_SIZES)
    def test_from_dict_rejects(self, dotted, raw):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(_nested(dotted, json.loads(raw)))

    @pytest.mark.parametrize("dotted,raw", BAD_SIZES)
    def test_override_rejects(self, dotted, raw):
        cfg = RunConfig()
        cfg.apply_override(dotted, raw)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("dotted,raw", BAD_SIZES)
    def test_cli_exit_2(self, tmp_path, capsys, dotted, raw):
        assert main(["generate", "-O", f"{dotted}={raw}", "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(tmp_path / "o")

    def test_eval_with_no_thresholds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["eval", "-O", "eval.thresholds=[]", "--dataset", str(tmp_path / "ds"),
                     "--out", str(out)]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(out)

    def test_sizes_follow_the_scale_counts(self):
        cfg = RunConfig()
        cfg.apply_override("sim.image_width", "336")  # 21 texels at stride 16
        cfg.apply_override("sim.bev_grid", "96")
        cfg.validate()
        cfg.apply_override("model.num_lidar_scales", "7")  # 96 is not a multiple of 64
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = RunConfig()
        cfg.apply_override("model.num_cam_scales", "5")  # 320 is not a multiple of 128
        with pytest.raises(ConfigError):
            cfg.validate()


class TestIntInFloatLeaf:
    def test_int_kept_as_written(self):
        cfg = RunConfig.from_dict({"sim": {"focal": 150}})
        assert type(cfg.sim.focal) is int
        over = RunConfig()
        over.apply_override("sim.focal", "150")
        assert type(over.sim.focal) is int
        assert over.hash() == cfg.hash()

    def test_hash_unchanged(self):
        # ints in float leaves hash as written ("focal":150, not 150.0), as
        # they did before leaves were type-checked; both hashes are pinned,
        # as of the removal of scenario.kind
        cfg = RunConfig.from_dict({"sim": {"focal": 150}, "train": {"lr": 1}})
        assert '"focal":150,' in cfg.canonical_json()
        assert cfg.hash() == "3e05be582ff967df"
        assert RunConfig().hash() == "23686bf43b8aaf68"


def _write_raw_checkpoint(path, header: dict, data: bytes):
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(data)


def _small_model():
    return ModelSection(num_queries=12, num_top=4, num_random=8, num_layers=1)


class TestTruncatedCheckpoint:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "full.fdcp"
        save_checkpoint(str(path), init_model_params(_small_model(), seed=0), 3, "abc")
        return path.read_bytes()

    def test_full_file_loads(self, tmp_path, checkpoint):
        path = tmp_path / "copy.fdcp"
        path.write_bytes(checkpoint)
        tensors, step, model_hash, _ = load_checkpoint(str(path))
        assert step == 3 and model_hash == "abc" and tensors

    def test_every_cut_raises(self, tmp_path, checkpoint):
        (hlen,) = struct.unpack("<Q", checkpoint[8:16])
        header_end = 16 + hlen
        cuts = [0, 2, 4, 6, 8, 12, 16, 17, 200, header_end - 1, header_end,
                header_end + 1, (header_end + len(checkpoint)) // 2, len(checkpoint) - 1]
        for n in cuts:
            path = tmp_path / f"cut{n}.fdcp"
            path.write_bytes(checkpoint[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))

    def test_entry_past_end_raises(self, tmp_path):
        path = tmp_path / "past.fdcp"
        entry = {"name": "w", "shape": [2], "dtype": "float64", "offset": 8, "nbytes": 16,
                 "kind": "param"}
        _write_raw_checkpoint(path, {"step": 0, "model_hash": "", "tensors": [entry]},
                              bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_bytes_not_filling_shape_raise(self, tmp_path):
        path = tmp_path / "short.fdcp"
        entry = {"name": "w", "shape": [3], "dtype": "float64", "offset": 0, "nbytes": 16,
                 "kind": "param"}
        _write_raw_checkpoint(path, {"step": 0, "model_hash": "", "tensors": [entry]},
                              bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_cli_eval_exit_1(self, tmp_path, capsys, checkpoint):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"num_queries": 12, "num_top": 4, "num_random": 8, "num_layers": 1},
            "sim": {"num_scenes": 1, "min_objects": 1, "max_objects": 2},
        }))
        ds = str(tmp_path / "ds")
        assert main(["generate", "--config", str(cfg), "--out", ds]) == 0
        cut = tmp_path / "cut.fdcp"
        cut.write_bytes(checkpoint[:200])
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--dataset", ds, "--checkpoint", str(cut),
                     "--out", str(tmp_path / "report.json")]) == 1
        _one_line_error(capsys, "error:")


def _tiny_run_config(path, **model) -> str:
    doc = {
        "model": {"num_queries": 12, "num_top": 4, "num_random": 8, "num_layers": 1, **model},
        "sim": {"num_scenes": 1, "min_objects": 1, "max_objects": 2},
        "train": {"steps": 2},
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckpointModelHash:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = _tiny_run_config(tmp_path / "cfg.json")
        ds = str(tmp_path / "ds")
        ckpt = str(tmp_path / "model.fdcp")
        assert main(["generate", "--config", cfg, "--out", ds]) == 0
        assert main(["train", "--config", cfg, "--dataset", ds, "--out", ckpt]) == 0
        return cfg, ds, ckpt

    def test_header_holds_model_hash(self, trained):
        cfg, _, ckpt = trained
        _, _, model_hash, _ = load_checkpoint(ckpt)
        assert model_hash == RunConfig.load(cfg).model.hash()

    def test_other_model_config_exit_1(self, tmp_path, capsys, trained):
        # same parameter shapes, different model section
        _, _, ckpt = trained
        other = _tiny_run_config(tmp_path / "other.json", center_step=0.5)
        ds = str(tmp_path / "ds_other")
        assert main(["generate", "--config", other, "--out", ds]) == 0
        capsys.readouterr()
        for cmd in (["eval", "--checkpoint", ckpt], ["infer", "--checkpoint", ckpt],
                    ["train", "--resume", ckpt]):
            assert main([*cmd, "--config", other, "--dataset", ds,
                         "--out", str(tmp_path / "out")]) == 1
            _one_line_error(capsys, "error: checkpoint")

    def test_missing_model_hash_exit_1(self, tmp_path, capsys, trained):
        cfg, ds, ckpt = trained
        raw = open(ckpt, "rb").read()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        del header["model_hash"]
        old = tmp_path / "old.fdcp"
        _write_raw_checkpoint(old, header, raw[16 + hlen:])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(old))
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--dataset", ds, "--checkpoint", str(old),
                     "--out", str(tmp_path / "report.json")]) == 1
        _one_line_error(capsys, "error: checkpoint")

    def test_matching_resume(self, tmp_path, trained):
        # a longer run under the same model section resumes
        _, ds, ckpt = trained
        longer = tmp_path / "longer.json"
        doc = json.loads((tmp_path / "cfg.json").read_text())
        doc["train"]["steps"] = 3
        longer.write_text(json.dumps(doc))
        out = str(tmp_path / "resumed.fdcp")
        assert main(["train", "--config", str(longer), "--dataset", ds, "--out", out,
                     "--resume", ckpt]) == 0
        assert load_checkpoint(out)[1] == 3
