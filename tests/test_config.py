"""Config schema, leaf type checks and malformed-checkpoint handling."""

import dataclasses
import json
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondet import config
from fusiondet.cli import main
from fusiondet.config import ConfigError, ModelSection, RunConfig
from fusiondet.params import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    init_model_params,
    load_checkpoint,
    restore_into,
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
    # Python's json reads NaN and +-Infinity; no leaf takes a non-finite number
    ("sim.ego_speed", "NaN"),
    ("sim.focal", "NaN"),
    ("model.max_offset_factor", "NaN"),
    ("sim.feature_noise", "Infinity"),
    ("train.lr", "-Infinity"),
    ("sim.ego_speed", "1" + "0" * 400),  # an int past the double range
    ("eval.bins", "[0.0, NaN]"),
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
        cfg.apply_override("model.channels", "24")
        cfg.apply_override("model.precision", "double")  # bare strings stay allowed
        cfg.apply_override("eval.bins", "[0, 15.5]")
        cfg.validate()
        assert (cfg.model.channels, cfg.model.precision) == (24, "double")

    @pytest.mark.parametrize("args", [
        ["-O", 'model.channels="abc"'],
        ["-O", "sim.num_scenes=1.5"],
        ["-O", "sim.ego_speed=NaN"],
        ["-O", "sim.focal=NaN"],
        ["-O", "model.max_offset_factor=NaN"],
        ["-O", "sim.feature_noise=Infinity"],
        ["-O", "sim.ego_speed=1" + "0" * 400],
        ["-O", "model.channels=" + "9" * 5000],  # past json's int digit limit
    ])
    def test_cli_override_exit_2(self, tmp_path, capsys, args):
        assert main(["generate", *args, "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("dotted", [
        "model.__class__.channels", "__class__.model", "model.__dict__", "sim.oracle.__init__",
        "model.channels.x", "nope.channels", "",
    ])
    def test_override_reaches_only_fields(self, dotted):
        # a path runs through section fields only: a dunder or a leaf in the
        # middle is an unknown key, and nothing is rebound
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig().apply_override(dotted, "5")
        assert ModelSection().channels == ModelSection.channels == 32

    def test_cli_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"num_layers": "3"}}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        _one_line_error(capsys, "config error:")

    @pytest.mark.parametrize("raw", [
        b'{"model": {"channels": ' + b"9" * 5000 + b"}}",  # past json's int digit limit
        b"[" * 100000,  # nested past the parser's recursion limit
        b'{"model": {"precision": "\xff"}}',  # not UTF-8
    ], ids=["long_int", "deep", "not_utf8"])
    def test_cli_unreadable_config_file_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
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
    ("sim.point_density", "-1"),
    ("sim.clutter_density", "-1"),
    ("sim.blob_sigma_px", "0"),
    ("sim.image_width", "4"),
    ("sim.image_width", "330"),
    ("sim.image_height", "0"),
    ("sim.feature_noise", "-1"),
    ("sim.max_place_retries", "0"),
    # negative noise scales (0 stays valid: tests use noiseless oracles)
    ("sim.oracle.pixel_sigma", "-2"),
    ("sim.oracle.depth_sigma", "-0.1"),
    ("sim.oracle.size_sigma", "-0.1"),
    ("sim.oracle.yaw_sigma", "-0.1"),
    ("sim.oracle.vel_sigma", "-0.1"),
    ("model.max_offset_factor", "0"),
    ("model.nms_iou", "-0.1"),
    ("model.nms_iou", "1.5"),
    ("eval.thresholds", "[]"),
    ("eval.thresholds", "[0, 1]"),
    ("eval.tp_threshold", "0"),
    ("eval.tp_threshold", "-1"),
    # below the simulator's camera content width, 19 channels
    ("model.channels", "18"),
    ("model.channels", "1"),
    # scale counts whose stride exceeds the image or BEV size; the power of
    # two of the largest is never formed
    ("model.num_cam_scales", "100000"),
    ("model.num_lidar_scales", "100000"),
    ("model.num_cam_scales", "10000000000"),
    ("model.num_lidar_scales", "10000000000"),
    # numpy's generators take non-negative seeds only
    ("sim.seed", "-1"),
    ("train.seed", "-3"),
    ("scenario.seed", "-1"),
    # the simulator draws 3 classes
    ("model.num_classes", "2"),
    # an empty spawn interval, or a range extent past the float range
    ("sim.spawn_margin", "25"),
    ("model.range_xy", "[-1e-300, 1e-300]"),
    ("model.range_xy", "[-1e308, 1e308]"),
    ("model.range_z", "[-1e308, 1e308]"),
    ("train.log_every", "0"),
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

    def test_eval_with_nonpositive_tp_threshold_exit_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["eval", "-O", "eval.tp_threshold=-1", "--dataset", str(tmp_path / "ds"),
                     "--out", str(out)]) == 2
        _one_line_error(capsys, "config error:")
        assert not os.path.exists(out)

    def test_channels_floor_is_the_camera_content_width(self):
        cfg = RunConfig()
        cfg.apply_override("model.channels", "19")
        cfg.validate()
        # sections built directly, as the gradient suite's mini models are,
        # are not held to it
        ModelSection(channels=4, num_queries=4, num_top=2, num_random=2).validate()

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
        assert '"focal":150,' in config._canonical_json(cfg.to_dict())
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


_GOOD_ENTRY = {"name": "w", "shape": [2], "dtype": "float64", "offset": 0, "nbytes": 16,
               "kind": "param"}

# header and entry fields that save_checkpoint never writes: each must end in
# a CheckpointError, over an otherwise valid one-entry header
BAD_HEADERS = [
    {"tensors": 5},
    {"tensors": {"w": _GOOD_ENTRY}},
    {"tensors": [5]},
    {"step": -1},
    {"step": 1.5},
    {"step": "3"},
    {"step": True},
    {"model_hash": 5},
    {"model_hash": None},
]
BAD_ENTRIES = [
    {"dtype": "int32", "shape": [4]},  # fills its bytes, but no float
    {"dtype": "float16", "shape": [8]},
    {"dtype": "object"},
    {"dtype": ["float64"]},
    {"offset": -8},
    {"offset": 1e300},
    {"nbytes": "16"},
    {"shape": 2},
    {"shape": [2.0]},
    {"shape": [-2]},
]


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

    @pytest.mark.parametrize("bad", BAD_HEADERS, ids=json.dumps)
    def test_bad_header_field_raises(self, tmp_path, bad):
        path = tmp_path / "bad.fdcp"
        header = {"step": 0, "model_hash": "", "tensors": [_GOOD_ENTRY], **bad}
        _write_raw_checkpoint(path, header, bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=json.dumps)
    def test_bad_entry_field_raises(self, tmp_path, bad):
        path = tmp_path / "bad.fdcp"
        entry = {**_GOOD_ENTRY, **bad}
        _write_raw_checkpoint(path, {"step": 0, "model_hash": "", "tensors": [entry]},
                              bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_deeply_nested_header_raises(self, tmp_path, checkpoint):
        path = tmp_path / "deep.fdcp"
        blob = b"[" * 100000
        path.write_bytes(checkpoint[:8] + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_header_length_past_the_end_raises(self, tmp_path, checkpoint):
        # a damaged length must not size a read of 2^63 bytes
        path = tmp_path / "long.fdcp"
        path.write_bytes(checkpoint[:8] + struct.pack("<Q", 1 << 63) + checkpoint[16:])
        with pytest.raises(CheckpointError, match="truncated"):
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

    @pytest.mark.parametrize("damage", ["tensors_not_a_list", "int32_entry"])
    def test_malformed_header_exit_1(self, tmp_path, capsys, trained, damage):
        # under the config's own model hash, so only the header is at fault
        cfg, ds, ckpt = trained
        raw = open(ckpt, "rb").read()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        if damage == "tensors_not_a_list":
            header["tensors"] = 5
        else:
            header["tensors"][0]["dtype"] = "int32"
        bad = tmp_path / "bad.fdcp"
        _write_raw_checkpoint(bad, header, raw[16 + hlen:])
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--dataset", ds, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "report.json")]) == 1
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


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a valid object or the documented error
# ---------------------------------------------------------------------------


def _dotted_leaves(section, prefix="") -> list:
    out = []
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            out += _dotted_leaves(value, f"{prefix}{f.name}.")
        else:
            out.append(prefix + f.name)
    return out


# real leaves (most draws), sections, unknown names and dunder names
_DOTTED = st.sampled_from(
    _dotted_leaves(RunConfig())
    + ["model", "sim", "sim.oracle", "train", "eval", "scenario"]
    + ["nope", "model.nope", "sim.oracle.nope", "model.channels.x", ""]
    + ["__class__", "model.__class__.channels", "__class__.model", "sim.__dict__",
       "sim.oracle.__init__", "__dataclass_fields__"]
)
_NUMBERS = st.one_of(st.integers(-(2 ** 64), 2 ** 64),
                     st.floats(allow_nan=True, allow_infinity=True))
_VALUES = st.one_of(
    _NUMBERS,
    st.recursive(
        st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=8)),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=8,
    ),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(dotted=_DOTTED, value=_VALUES, bare=st.booleans())
    def test_override_gives_a_valid_config_or_config_error(self, dotted, value, bare):
        cfg = RunConfig()
        raw = value if bare and isinstance(value, str) else json.dumps(value)
        try:
            cfg.apply_override(dotted, raw)
            cfg.validate()
        except ConfigError:
            return
        json.dumps(cfg.to_dict(), allow_nan=False)  # every number is finite
        assert RunConfig.from_dict(cfg.to_dict()).hash() == cfg.hash()

    @settings(max_examples=150, deadline=None)
    @given(dotted=_DOTTED, value=_VALUES)
    def test_from_dict_gives_a_valid_config_or_config_error(self, dotted, value):
        doc = _nested(dotted, value) if dotted else value
        try:
            cfg = RunConfig.from_dict(doc)
        except ConfigError:
            return
        json.dumps(cfg.to_dict(), allow_nan=False)  # every number is finite
        cfg.validate()

    @pytest.fixture(scope="class")
    def small_checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.fdcp"
        store = init_model_params(_small_model(), seed=0)
        save_checkpoint(str(path), store, 3, _small_model().hash(),
                        optimizer={"w": store["query.default_embedding"].data})
        return path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_raises(self, small_checkpoint, data):
        raw = bytearray(small_checkpoint)
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            # the 16-byte preamble and the JSON header come first, so about
            # half the flips land in them
            (hlen,) = struct.unpack("<Q", raw[8:16])
            where = st.one_of(st.integers(0, 16 + hlen - 1), st.integers(0, len(raw) - 1))
            for pos in data.draw(st.lists(where, min_size=1, max_size=4)):
                raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "damaged.fdcp")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                tensors, step, model_hash, optimizer = load_checkpoint(path)
                restore_into(init_model_params(_small_model(), seed=0), tensors)
            except CheckpointError:
                return
        assert isinstance(step, int) and step >= 0 and isinstance(model_hash, str)
        assert all(a.dtype.kind == "f" for a in [*tensors.values(), *optimizer.values()])
