"""Parameter store groups, the shared two-layer head and atomic artifact writes."""

import builtins
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from fusiondet import fileio
from fusiondet import tensor as T
from fusiondet.config import ModelSection
from fusiondet.params import (
    init_model_params,
    load_checkpoint,
    restore_into,
    save_checkpoint,
)
from fusiondet.train import sgd_update


def _mini():
    return ModelSection(channels=4, num_queries=4, num_top=2, num_random=2, num_points=2,
                        num_layers=2, num_cam_scales=1, num_lidar_scales=1, num_frames=1,
                        num_views=2, num_classes=2, precision="double")


class TestGroup:
    def test_direct_children_only(self):
        store = init_model_params(_mini(), seed=0)
        assert set(vars(store.group("layer0.lidar"))) == {
            "offset_w", "offset_b", "weight_w", "weight_b"}
        assert set(vars(store.group("layer1.fuse"))) == {
            "w1", "b1", "w2", "b2", "ln_gain", "ln_shift"}
        assert set(vars(store.group("layer0.camera.mix"))) == {
            "chan_w", "chan_b", "spat_w", "spat_b", "ln_chan_gain", "ln_chan_shift",
            "ln_spat_gain", "ln_spat_shift", "agg_w", "agg_b", "ln_out_gain", "ln_out_shift"}
        assert set(vars(store.group("query"))) == {"default_embedding"}

    def test_every_parameter_is_in_exactly_one_group(self):
        store = init_model_params(_mini(), seed=0)
        for name, t in store.items():
            prefix, _, leaf = name.rpartition(".")
            assert getattr(store.group(prefix), leaf) is t

    def test_members_are_the_stores_tensors(self):
        cfg = _mini()
        store = init_model_params(cfg, seed=0)
        reg = store.group("layer0.lidar.reg")
        assert reg.w1 is store["layer0.lidar.reg.w1"]
        # an SGD update shows through the group
        for _, t in store.items():
            t.grad = np.ones_like(t.data)
        before = reg.w1.data.copy()
        sgd_update(store, {}, lr=0.5, momentum=0.0, clip_norm=0.0)
        np.testing.assert_array_equal(reg.w1.data, before - 0.5)
        # so does a restored checkpoint
        other = init_model_params(cfg, seed=1)
        restore_into(store, {name: t.data for name, t in other.items()})
        np.testing.assert_array_equal(reg.w1.data, other["layer0.lidar.reg.w1"].data)

    def test_unknown_prefix_raises_key_error(self):
        store = init_model_params(_mini(), seed=0)
        for prefix in ("layer9.lidar", "layer0", "layer0.lid", "layer0.lidar.reg.w1", ""):
            with pytest.raises(KeyError):
                store.group(prefix)

    def test_built_once_and_rebuilt_after_add(self):
        store = init_model_params(_mini(), seed=0)
        assert store.group("layer0.cls") is store.group("layer0.cls")
        with pytest.raises(KeyError):
            store.group("extra")
        t = store.add("extra.w", np.zeros(3))
        assert store.group("extra").w is t


class TestMlp:
    def test_matches_explicit_two_layer_relu(self):
        rng = np.random.default_rng(0)
        p = SimpleNamespace(w1=T.Tensor(rng.normal(size=(3, 5))), b1=T.Tensor(rng.normal(size=5)),
                            w2=T.Tensor(rng.normal(size=(5, 2))), b2=T.Tensor(rng.normal(size=2)))
        x = rng.normal(size=(4, 3))
        want = np.maximum(x @ p.w1.data + p.b1.data, 0.0) @ p.w2.data + p.b2.data
        np.testing.assert_allclose(T.mlp(T.Tensor(x), p).data, want, rtol=1e-12)


class _DiskFull:
    """A writable file that accepts ``budget`` bytes and then fails."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


class TestAtomicWrites:
    def _fail_after(self, monkeypatch, budget):
        def failing_open(path, mode, **kwargs):
            return _DiskFull(builtins.open(path, mode, **kwargs), budget)

        monkeypatch.setattr(fileio, "open", failing_open, raising=False)

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        store = init_model_params(_mini(), seed=0)
        path = str(tmp_path / "model.fdcp")
        save_checkpoint(path, store, step=3, model_hash="h")
        before = open(path, "rb").read()
        self._fail_after(monkeypatch, 1000)
        with pytest.raises(OSError):
            save_checkpoint(path, store, step=4, model_hash="h")
        assert open(path, "rb").read() == before
        assert load_checkpoint(path)[1] == 3
        assert os.listdir(tmp_path) == ["model.fdcp"]

    def test_failed_json_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "report.json")
        fileio.write_json(path, {"map": 0.5})
        self._fail_after(monkeypatch, 5)
        with pytest.raises(OSError):
            fileio.write_json(path, {"map": 0.25, "nds": 0.125})
        with open(path) as fh:
            assert json.load(fh) == {"map": 0.5}
        assert os.listdir(tmp_path) == ["report.json"]

    def test_unserializable_document_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "summary.json")
        with pytest.raises(TypeError):
            fileio.write_json(path, {"a": 1, "z": object()})
        assert os.listdir(tmp_path) == []

    def test_success_replaces_and_matches_plain_dump(self, tmp_path):
        path = str(tmp_path / "doc.json")
        fileio.write_json(path, {"b": [1, 2], "a": 1.5})
        fileio.write_json(path, {"b": [3], "a": 2.5})
        with open(path) as fh:
            assert fh.read() == json.dumps({"b": [3], "a": 2.5}, sort_keys=True, indent=1)
        assert os.listdir(tmp_path) == ["doc.json"]
