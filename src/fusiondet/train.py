"""Toy end-to-end training (SGD with momentum) and batched inference.

One step = one scene: generate queries with the perspective oracle, decode,
match, backprop, update. All randomness is derived from (seed, step) so a
resumed run reproduces an uninterrupted one exactly. A non-finite box,
logit, loss or gradient norm stops the run before the update.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoder import compute_loss, decode, match_layers
from .geometry import BoxArray
from .paqg import generate_queries
from .params import ParamStore


class DivergenceError(ArithmeticError):
    pass


def _scene_order(num_scenes: int, seed: int, epoch: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11, int(epoch)]))
    return rng.permutation(num_scenes)


def _query_rng(seed: int, salt: int, unique: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(salt), int(unique)]))


def sgd_update(store: ParamStore, velocity: dict, lr: float, momentum: float,
               clip_norm: float):
    """In-place momentum step with optional global-norm gradient clipping;
    DivergenceError, before any change, if the gradient norm is not finite."""
    total_sq = 0.0
    for _, t in store.items():
        if t.grad is not None:
            total_sq += float(np.sum(t.grad.astype(np.float64) ** 2))
    scale = 1.0
    norm = float(np.sqrt(total_sq))
    if not math.isfinite(norm):
        raise DivergenceError("the gradient norm is not finite")
    if clip_norm > 0 and norm > clip_norm:
        scale = float(clip_norm / norm)
    for name, t in store.items():
        g = t.grad
        if g is None:
            continue
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(t.data)
        # keep the parameter dtype; python-float scalars do not promote
        v = (momentum * v - lr * scale * g).astype(t.data.dtype, copy=False)
        velocity[name] = v
        t.data = t.data + v
    return norm


def _require_finite(step: int, what: str, values):
    if not np.all(np.isfinite(values)):
        raise DivergenceError(f"training diverged at step {step}: {what} is not finite")


def decode_scene(cfg: RunConfig, scene, store: ParamStore, rng: np.random.Generator,
                 fusion: str, oracle_uncertainty: bool) -> tuple:
    """One scene's queries, decoded: (a LayerPrediction per layer, GT BoxArray).
    ``generate_queries`` and ``decode`` are this module's globals, looked up
    at each call, so wrappers set on ``train`` see every call."""
    mcfg = cfg.model
    gt = BoxArray.stack(scene.gt_boxes)
    feats = scene.feature_set(mcfg)
    batch = generate_queries(gt, scene.rig, feats, mcfg, cfg.sim.oracle,
                             store["query.default_embedding"], rng)
    preds = decode(batch, feats, scene.lidar_pyramid(mcfg), scene.rig, store, mcfg,
                   fusion=fusion, oracle_gt=gt if oracle_uncertainty else None)
    return preds, gt


def _train_step(cfg: RunConfig, scene, step: int, store: ParamStore,
                velocity: dict) -> dict:
    """One SGD step on one scene; returns its log record. The step's graph
    lives only in this frame, so it is freed before the next step starts."""
    tcfg = cfg.train
    mcfg = cfg.model
    preds, gt = decode_scene(cfg, scene, store, _query_rng(tcfg.seed, 13, step),
                             fusion="uaf", oracle_uncertainty=False)
    for layer, pred in enumerate(preds):
        _require_finite(step, f"layer {layer}'s box state", pred.box_state.data)
        _require_finite(step, f"layer {layer}'s class logits", pred.class_logits.data)
    matching = match_layers(preds, gt, tcfg, mcfg)
    loss, terms = compute_loss(preds, gt, matching, tcfg, mcfg)
    _require_finite(step, "the loss", terms["total"])
    store.zero_grad()
    loss.backward()
    try:
        sgd_update(store, velocity, tcfg.lr, tcfg.momentum, tcfg.clip_norm)
    except DivergenceError as exc:
        raise DivergenceError(f"training diverged at step {step}: {exc}") from None
    return {"step": step, **{k: round(v, 6) for k, v in terms.items()}}


def train_loop(
    cfg: RunConfig,
    scenes: list,
    store: ParamStore,
    start_step: int = 0,
    log_fn=None,
    velocity: dict | None = None,
) -> list:
    """Run cfg.train.steps total steps (from start_step); returns the log
    records [{step, total, cls, box, unc, reg}]. ``velocity`` carries the
    momentum state across resumed runs."""
    tcfg = cfg.train
    velocity = {} if velocity is None else velocity
    records = []
    n = len(scenes)
    for step in range(start_step, tcfg.steps):
        epoch, pos = divmod(step, n)
        scene = scenes[_scene_order(n, tcfg.seed, epoch)[pos]]
        rec = _train_step(cfg, scene, step, store, velocity)
        records.append(rec)
        if log_fn is not None and step % tcfg.log_every == 0:
            log_fn(rec)
    return records


def run_inference(
    cfg: RunConfig,
    scenes,
    store: ParamStore,
    fusion: str = "uaf",
    oracle_uncertainty: bool = False,
) -> tuple:
    """Decode every scene of an iterable, one at a time; returns (pred boxes
    per scene, GT boxes per scene), each scene's boxes one BoxArray.

    Query-generation noise is seeded per scene id, so evaluation is
    deterministic and independent of scene order.
    """
    preds_per_scene = []
    gts_per_scene = []
    with T.no_grad():
        for scene in scenes:
            preds, gt = decode_scene(cfg, scene, store,
                                     _query_rng(cfg.sim.seed, 17, scene.scene_id),
                                     fusion, oracle_uncertainty)
            preds_per_scene.append(preds[-1].boxes())
            gts_per_scene.append(gt)
    return preds_per_scene, gts_per_scene
