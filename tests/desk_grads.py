"""Desk-scale decoder inputs whose gradients tests compare bit for bit
between a row-wide op and the per-column chain it replaced."""

from __future__ import annotations

import numpy as np

from fusiondet import tensor as T
from fusiondet.config import RunConfig
from fusiondet.paqg import generate_queries
from fusiondet.params import init_model_params
from fusiondet.queries import QueryBatch
from fusiondet.scenesim import generate_scene

DESK_SCENES = range(6)


def desk_queries(scene_id: int, precision: str) -> tuple:
    """(model config, scene, parameter store, query batch) for one desk scene.

    Every parameter is moved off its initial value, so heads that start at
    zero still pass gradients. The batch's features and box state are leaves
    that require a gradient; the box state does as in criterion 2's
    ``compute_loss`` builder.
    """
    cfg = RunConfig()
    cfg.model.precision = precision
    cfg.validate()
    scene = generate_scene(cfg.model, cfg.sim, scene_id)
    store = init_model_params(cfg.model, seed=scene_id)
    rng = np.random.default_rng(scene_id)
    for _, t in store.items():
        t.data = (t.data + rng.normal(0.0, 0.15, t.data.shape)).astype(t.data.dtype)
    batch = generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                             cfg.model, cfg.sim.oracle, store["query.default_embedding"],
                             np.random.default_rng(scene_id))
    leaves = QueryBatch(T.Tensor(batch.features.data, requires_grad=True),
                        T.Tensor(batch.box_state.data, requires_grad=True))
    return cfg.model, scene, store, leaves


def outputs_and_grads(fn, leaves: list, seed: int) -> list:
    """The arrays of ``fn()``'s output tensors, then each leaf's gradient of
    one fixed random projection of all outputs."""
    for leaf in leaves:
        leaf.grad = None
    outs = fn()
    rng = np.random.default_rng(seed)
    total = None
    for out in outs:
        term = T.sum_(T.mul(out, rng.normal(size=out.shape)))
        total = term if total is None else T.add(total, term)
    total.backward()
    return [out.data for out in outs] + [leaf.grad for leaf in leaves]


def assert_same(got: list, want: list):
    """Equal dtypes and equal values, array by array."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a is not None and b is not None, i
        assert a.dtype == b.dtype and np.array_equal(a, b), i
