"""The L-stage refinement loop: sampling, mixing, uncertainty-weighted fusion,
box/class heads, bipartite matching and set-prediction losses.

Per layer: predict sampling patterns from the query features, gather RoI
features from both modalities, mix them, fuse with (1-u) weighting, then
classify and refine the boxes residually. Refined boxes feed the next
layer's sampling centers (detached, as in iterative-refinement decoders);
query features chain through all layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as T
from . import uaf
from .config import ModelSection, TrainSection
from .featuremaps import CameraFeatureSet, LidarFeaturePyramid
from .geometry import BoxArray, CameraRig, DetectionRange
from .params import ParamStore
from .queries import QueryBatch, boxes_to_state, state_to_boxes
from .rias import adaptive_mix, predict_pattern, sample_camera, sample_lidar


@dataclass
class LayerPrediction:
    """Per-layer decoder outputs for all queries (graph tensors kept for loss).
    A UAF head's fields are None in a mode that does not run it: all four
    under equal fusion, ``dist_*`` under oracle u (see :func:`decode`)."""

    class_logits: T.Tensor  # (N, n_cls)
    box_state: T.Tensor  # (N, 10), after this layer's refinement
    u_cam: np.ndarray  # (N,) uncertainties actually used in fusion
    u_lid: np.ndarray
    dist_cam: T.Tensor | None  # (N,) f_dist outputs
    dist_lid: T.Tensor | None
    reg_cam: T.Tensor | None  # (N, 2) f_reg BEV position estimates
    reg_lid: T.Tensor | None

    def scores(self) -> np.ndarray:
        return expit(self.class_logits.data)

    def boxes(self) -> BoxArray:
        scores = self.scores()
        cls = scores.argmax(axis=1)
        best = scores[np.arange(len(cls)), cls]
        return state_to_boxes(self.box_state.data, scores=best, class_ids=cls)


def refine_box(features: T.Tensor, state: T.Tensor, params, cfg: ModelSection) -> T.Tensor:
    """Residual box update from the fused query feature.

    ``params`` is the layer's two-layer refine head group
    (``ParamStore.group("layer0.refine")``). The whole state row moves by
    the head output times a per-column step: the center by ``center_step``
    times the range extent per axis (48 m in x/y and 6 m in z at the desk
    defaults), sizes in log space and the (sin, cos) pair by 1, velocity by
    ``velocity_step``. The (sin, cos) pair is then renormalized.
    """
    resid = T.mlp(features, params)
    step = np.concatenate([cfg.detection_range().extent * cfg.center_step, np.ones(5),
                           np.full(2, cfg.velocity_step)])
    moved = T.add(state, T.mul(resid, step))
    sincos = T.narrow(moved, 1, 6, 2)
    norm = T.sqrt(T.add(T.sum_(T.mul(sincos, sincos), axis=1), 1e-12))
    unit = T.div(sincos, T.reshape(norm, (-1, 1)))
    return T.concat([T.narrow(moved, 1, 0, 6), unit, T.narrow(moved, 1, 8, 2)], axis=1)


def _nearest_gt_xy(centers_xy: np.ndarray, gt_boxes: BoxArray) -> np.ndarray:
    """Per query, the BEV center of the nearest GT box (inf-distance filler
    when the scene has no ground truth)."""
    if not len(gt_boxes):
        return np.full((centers_xy.shape[0], 2), 1e6)
    gt_xy = gt_boxes.center[:, :2]
    d = np.linalg.norm(centers_xy[:, None, :] - gt_xy[None, :, :], axis=2)
    return gt_xy[d.argmin(axis=1)]


def decode_layer(
    layer: int,
    batch: QueryBatch,
    cam_feats: CameraFeatureSet,
    lidar_feats: LidarFeaturePyramid,
    rig: CameraRig,
    store: ParamStore,
    cfg: ModelSection,
    fusion: str = "uaf",
    oracle_gt: BoxArray | None = None,
) -> tuple:
    """One decoder layer: sample and mix both modalities, fuse, run the heads.

    Returns this layer's LayerPrediction and the batch the next layer
    starts from (fused features, refined boxes detached from the graph).
    ``fusion`` and ``oracle_gt`` are as in :func:`decode`, with the ground
    truth already stacked.
    """
    if fusion not in ("uaf", "equal"):
        raise ValueError("fusion must be 'uaf' or 'equal'")
    prefix = f"layer{layer}"
    centers = batch.centers()
    centers_xy = batch.centers_xy()

    def group(name):
        return store.group(f"{prefix}.{name}")

    pat_lid = predict_pattern(batch, group("lidar"), "lidar", cfg)
    roi_lid = sample_lidar(centers_xy, pat_lid, lidar_feats)
    mix_lid = adaptive_mix(batch.features, roi_lid, group("lidar.mix"))

    pat_cam = predict_pattern(batch, group("camera"), "camera", cfg)
    roi_cam = sample_camera(centers, pat_cam, cam_feats, rig)
    mix_cam = adaptive_mix(batch.features, roi_cam, group("camera.mix"))

    dist_cam = dist_lid = reg_cam = reg_lid = None
    if fusion == "equal":
        u_cam = u_lid = T.Tensor(np.full(batch.count, 0.5))
    else:
        pool_cam, pool_lid = uaf.pool_roi(roi_cam), uaf.pool_roi(roi_lid)
        # oracle u and the training loss read the position estimates
        reg_cam = uaf.regress_xy(pool_cam, group("camera.reg"), centers_xy)
        reg_lid = uaf.regress_xy(pool_lid, group("lidar.reg"), centers_xy)
        if oracle_gt is not None:
            gt_xy = _nearest_gt_xy(centers_xy.data, oracle_gt)
            dists = [T.Tensor(uaf.oracle_distance_xy(r.data, gt_xy)) for r in (reg_cam, reg_lid)]
        else:
            dist_cam = uaf.predict_distance(pool_cam, group("camera.dist"))
            dist_lid = uaf.predict_distance(pool_lid, group("lidar.dist"))
            dists = (dist_cam, dist_lid)
        u_cam, u_lid = (uaf.uncertainty_from_distance(d) for d in dists)

    fuse_p = group("fuse")
    fused = uaf.fuse(mix_cam, u_cam, mix_lid, u_lid, fuse_p)
    # bound the refined query feature before the heads and the next layer
    fused = T.layer_norm(fused, fuse_p.ln_gain, fuse_p.ln_shift)

    cls_p = group("cls")
    logits = T.linear(fused, cls_p.w, cls_p.b)
    new_state = refine_box(fused, batch.box_state, group("refine"), cfg)

    pred = LayerPrediction(logits, new_state, u_cam.data, u_lid.data,
                           dist_cam, dist_lid, reg_cam, reg_lid)
    return pred, QueryBatch(fused, T.Tensor(new_state.data.copy()))


def decode(
    batch: QueryBatch,
    cam_feats: CameraFeatureSet,
    lidar_feats: LidarFeaturePyramid,
    rig: CameraRig,
    store: ParamStore,
    cfg: ModelSection,
    fusion: str = "uaf",
    oracle_gt=None,
) -> list:
    """Run all decoder layers; returns one LayerPrediction per layer.

    ``fusion`` selects Eq.-style adaptive weighting ("uaf") or fixed equal
    weights ("equal"). With ``oracle_gt`` set, uncertainties come from the
    auxiliary regressor against the nearest ground-truth box instead of the
    distance predictor (oracle-uncertainty mode); it is a BoxArray or a
    sequence of Box3D, as every ground truth the decoder reads. UAF heads run
    only where read, their LayerPrediction fields None elsewhere: none under
    equal fusion (which ignores ``oracle_gt``), the regressors under oracle
    u, all four under predicted u, the mode :func:`compute_loss` reads.
    """
    if oracle_gt is not None:
        oracle_gt = BoxArray.stack(oracle_gt)
    preds = []
    for layer in range(cfg.num_layers):
        pred, batch = decode_layer(layer, batch, cam_feats, lidar_feats, rig, store, cfg,
                                   fusion, oracle_gt)
        preds.append(pred)
    return preds


# ---------------------------------------------------------------------------
# matching and losses
# ---------------------------------------------------------------------------


def _state_scale(det_range: DetectionRange) -> np.ndarray:
    """Per-dimension normalization for box-parameter L1 terms."""
    ext = det_range.extent
    return np.array(
        [2.0 / ext[0], 2.0 / ext[1], 2.0 / ext[2], 1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 0.2]
    )


def hungarian_match(
    pred_state: np.ndarray,
    pred_scores: np.ndarray,
    gt_boxes,
    cfg: TrainSection,
    det_range: DetectionRange,
) -> list:
    """Minimum-cost matching where both sides carry a no-object option.

    An unmatched prediction or an unmatched GT each pay ``no_object_cost``
    c, so a pair is only matched when its cost beats leaving both unmatched
    (2c). The total is c (N + G) plus, over matched pairs, cost - 2c, so the
    assignment is solved on the N x G block of min(cost - 2c, 0), keeping
    the pairs with cost < 2c: the optimum of the (N + G)-square padded
    problem at a fraction of its size. Returns (pred_index, gt_index) pairs
    in prediction order.
    """
    gt_boxes = BoxArray.stack(gt_boxes)
    n_pred = pred_state.shape[0]
    n_gt = len(gt_boxes)
    if n_gt == 0 or n_pred == 0:
        return []
    gt_state = boxes_to_state(gt_boxes)
    scale = _state_scale(det_range)
    diff = np.abs(pred_state[:, None, :] - gt_state[None, :, :]) * scale
    cost_box = diff.sum(axis=2)
    cost_cls = 1.0 - pred_scores[:, gt_boxes.class_id]
    cost = cfg.w_cls * cost_cls + cfg.w_box * cost_box

    # imported here: scipy.optimize costs ~24 MiB and only training matches
    from scipy.optimize import linear_sum_assignment

    gain = cost - 2.0 * cfg.no_object_cost
    rows, cols = linear_sum_assignment(np.minimum(gain, 0.0))
    keep = gain[rows, cols] < 0.0
    return [(int(r), int(c)) for r, c in zip(rows[keep], cols[keep])]


def _pow_gamma(x: T.Tensor, gamma: float) -> T.Tensor:
    if gamma == 2.0:
        return T.mul(x, x)
    if gamma == 1.0:
        return x
    return T.exp(T.mul(T.log(T.clamp_min(x, 1e-12)), gamma))


def focal_loss(logits: T.Tensor, targets: np.ndarray, alpha: float, gamma: float,
               normalizer: float) -> T.Tensor:
    """Sigmoid focal loss; -log terms use softplus for stability."""
    p = T.sigmoid(logits)
    pos = T.mul(T.mul(_pow_gamma(T.sub(1.0, p), gamma), T.softplus(T.neg(logits))), alpha)
    negt = T.mul(T.mul(_pow_gamma(p, gamma), T.softplus(logits)), 1.0 - alpha)
    mask = np.asarray(targets, dtype=logits.data.dtype)
    total = T.add(T.mul(pos, mask), T.mul(negt, 1.0 - mask))
    return T.div(T.sum_(total), normalizer)


def match_layers(
    preds: list,
    gt_boxes,
    train_cfg: TrainSection,
    model_cfg: ModelSection,
) -> list:
    """Hungarian matching per decoder layer (on detached predictions)."""
    det_range = model_cfg.detection_range()
    gt_boxes = BoxArray.stack(gt_boxes)
    return [
        hungarian_match(p.box_state.data, p.scores(), gt_boxes, train_cfg, det_range)
        for p in preds
    ]


def oracle_distance_targets(preds: list, matching: list, gt_boxes,
                            cap: float = 5.0) -> list:
    """Detached per-layer BEV distance targets for the distance predictors:
    how far each modality's position estimate actually is from its matched
    GT. Targets saturate at ``cap`` meters (the uncertainty mapping is flat
    out there anyway)."""
    gt_boxes = BoxArray.stack(gt_boxes)
    out = []
    for pred, matches in zip(preds, matching):
        if not matches:
            out.append(None)
            continue
        p_idx = [pi for pi, _ in matches]
        gt_xy = gt_boxes.center[[gi for _, gi in matches], :2]
        out.append(
            {
                "cam": np.minimum(uaf.oracle_distance_xy(pred.reg_cam.data[p_idx], gt_xy), cap),
                "lid": np.minimum(uaf.oracle_distance_xy(pred.reg_lid.data[p_idx], gt_xy), cap),
            }
        )
    return out


def compute_loss(
    preds: list,
    gt_boxes,
    matching: list,
    train_cfg: TrainSection,
    model_cfg: ModelSection,
    unc_targets: list | None = None,
) -> tuple:
    """Deep-supervised set-prediction loss over all decoder layers.

    Classification is sigmoid focal; matched boxes get a range-normalized
    L1; the distance predictors regress the (detached) oracle BEV distance
    of their modality's position estimate, and the position estimates
    themselves get an L1 pull toward the matched GT centers. ``matching``
    comes from :func:`match_layers`; ``unc_targets`` may be passed to freeze
    the detached distance targets (otherwise computed here).
    """
    det_range = model_cfg.detection_range()
    scale = _state_scale(det_range)
    n_cls = model_cfg.num_classes
    gt_boxes = BoxArray.stack(gt_boxes)
    if unc_targets is None:
        unc_targets = oracle_distance_targets(preds, matching, gt_boxes,
                                              cap=train_cfg.dist_cap)
    total = None
    breakdown = {"cls": 0.0, "box": 0.0, "unc": 0.0, "reg": 0.0}
    gt_state_all = boxes_to_state(gt_boxes) if len(gt_boxes) else None

    for pred, matches, d_targets in zip(preds, matching, unc_targets):
        n = pred.class_logits.shape[0]
        n_match = len(matches)
        p_idx = [pi for pi, _ in matches]
        g_idx = [gi for _, gi in matches]
        targets = np.zeros((n, n_cls))
        targets[p_idx, gt_boxes.class_id[g_idx]] = 1.0
        norm = float(max(1, n_match))
        layer_loss = T.mul(
            focal_loss(pred.class_logits, targets, train_cfg.focal_alpha,
                       train_cfg.focal_gamma, norm),
            train_cfg.w_cls,
        )
        breakdown["cls"] += layer_loss.item()

        if n_match > 0:
            tgt = gt_state_all[g_idx]
            rows = T.gather_rows(pred.box_state, p_idx)
            diff = T.mul(T.absolute(T.sub(rows, tgt)), scale)
            box_term = T.mul(T.mean(diff), train_cfg.w_box)
            breakdown["box"] += box_term.item()
            layer_loss = T.add(layer_loss, box_term)

            gt_xy = tgt[:, 0:2]
            unc_term = None
            reg_term = None
            for modality, dist, reg in (
                ("cam", pred.dist_cam, pred.reg_cam),
                ("lid", pred.dist_lid, pred.reg_lid),
            ):
                d_hat = T.gather_rows(dist, p_idx)
                u_t = T.mean(T.absolute(T.sub(d_hat, d_targets[modality])))
                unc_term = u_t if unc_term is None else T.add(unc_term, u_t)
                r_t = T.mean(T.absolute(T.sub(T.gather_rows(reg, p_idx), gt_xy)))
                reg_term = r_t if reg_term is None else T.add(reg_term, r_t)
            unc_term = T.mul(unc_term, train_cfg.w_unc)
            reg_term = T.mul(reg_term, train_cfg.w_reg)
            breakdown["unc"] += unc_term.item()
            breakdown["reg"] += reg_term.item()
            layer_loss = T.add(T.add(layer_loss, unc_term), reg_term)

        total = layer_loss if total is None else T.add(total, layer_loss)
    breakdown["total"] = total.item()
    return total, breakdown
