"""nuScenes-style detection metrics: distance-threshold AP, TP error metrics,
the NDS composite and distance-binned AP tables.

Matching is score-descending greedy on BEV center distance within each
scene and class. AP integrates the 101-point interpolated precision/recall
curve with the standard clipping below 0.1 recall/precision. The NDS
denominator generalizes to 5 + len(mTPs) so a 4-metric run (no attribute
labels, hence no AAE) still reports a composite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fileio import atomic_open, write_json
from .geometry import BoxArray

RECALL_SAMPLES = 101
MIN_RECALL = 0.1
MIN_PRECISION = 0.1
TP_METRIC_NAMES = ("ate", "ase", "aoe", "ave")


def _bev_norm(d: np.ndarray) -> np.ndarray:
    """Length of each 2-vector of d (..., 2), each one dot product, as
    ``np.linalg.norm`` takes it for a lone vector (``norm(axis=-1)`` and
    ``np.hypot`` round differently)."""
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def _concat(per_scene) -> tuple:
    """All scenes' boxes as one BoxArray, and each box's scene index."""
    arrays = [BoxArray.stack(b) for b in per_scene] or [BoxArray.stack([])]
    scene = np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])
    return BoxArray(*(np.concatenate([getattr(a, f.name) for a in arrays])
                      for f in fields(BoxArray))), scene


def center_distances(preds: BoxArray, gts: BoxArray, pred_scene, gt_scene) -> np.ndarray:
    """(P, G) BEV center distances; NaN between boxes of different scenes,
    which therefore never match."""
    dist = np.full((len(preds), len(gts)), np.nan)
    p, g = np.nonzero(pred_scene[:, None] == gt_scene[None, :])
    dist[p, g] = _bev_norm(preds.center[p, :2] - gts.center[g, :2])
    return dist


def _bin_of(dist: np.ndarray, bins) -> np.ndarray:
    """The last of the ascending ``bins`` edges each distance reaches; 0
    below the first edge."""
    reached = dist[:, None] >= np.asarray(bins, dtype=float)
    return np.maximum(np.count_nonzero(reached, axis=1) - 1, 0)


def match_for_ap(scores: np.ndarray, dist: np.ndarray, threshold: float) -> tuple:
    """Greedy score-descending matching on BEV center distance.

    Predictions are visited in stable score-descending order; each takes
    the nearest unmatched GT within ``threshold`` (ties go to the highest GT
    index), and each GT matches at most once. ``dist`` is the (P, G) matrix
    of :func:`center_distances`. Returns (order, gt): ``gt[k]`` is the GT
    matched by prediction ``order[k]``, or -1.
    """
    order = np.argsort(-scores, kind="stable")
    dist = dist[order]
    near = dist <= threshold
    gt = np.full(len(order), -1)
    free = np.ones(dist.shape[1], dtype=bool)
    for k in np.flatnonzero(near.any(axis=1)).tolist():
        cands = np.flatnonzero(near[k] & free)[::-1]
        if len(cands):
            j = cands[np.argmin(dist[k, cands])]
            gt[k] = j
            free[j] = False
    return order, gt


def average_precision(tp: np.ndarray, n_gt: int) -> float:
    """nuScenes AP from the TP flags of the predictions in score order:
    101-point interpolated PR curve, clipped below 0.1 recall/precision and
    renormalized. Zero when there is no ground truth or no prediction."""
    if n_gt == 0 or len(tp) == 0:
        return 0.0
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    rec_interp = np.linspace(0.0, 1.0, RECALL_SAMPLES)
    prec_interp = np.interp(rec_interp, recall, precision, right=0.0)
    start = round(MIN_RECALL * (RECALL_SAMPLES - 1)) + 1
    clipped = prec_interp[start:] - MIN_PRECISION
    clipped[clipped < 0] = 0.0
    return float(np.mean(clipped) / (1.0 - MIN_PRECISION))


def tp_errors(preds: BoxArray, gts: BoxArray) -> dict:
    """ATE/ASE/AOE/AVE over matched pairs (row i of ``preds`` with row i of
    ``gts``); 1.0 each when nothing matched. The scale error is 1 - IoU of
    centered, axis-aligned boxes (a pure size comparison)."""
    if not len(preds):
        return {k: 1.0 for k in TP_METRIC_NAMES}
    inter = np.prod(np.minimum(preds.size, gts.size), axis=1)
    union = np.prod(preds.size, axis=1) + np.prod(gts.size, axis=1) - inter
    yaw = np.mod(np.abs(preds.yaw - gts.yaw), 2.0 * math.pi)
    return {
        "ate": float(np.mean(_bev_norm(preds.center[:, :2] - gts.center[:, :2]))),
        "ase": float(np.mean(1.0 - inter / union)),
        "aoe": float(np.mean(np.where(yaw <= math.pi, yaw, 2.0 * math.pi - yaw))),
        "ave": float(np.mean(_bev_norm(preds.velocity - gts.velocity))),
    }


def nds(map_value: float, tp_values: list) -> float:
    """Composite score: (5 * mAP + sum(1 - min(1, x))) / (5 + len(mTPs))."""
    for x in tp_values:
        if x < 0:
            raise ValueError("TP error metrics must be nonnegative")
    bonus = sum(1.0 - min(1.0, float(x)) for x in tp_values)
    return (5.0 * float(map_value) + bonus) / (5.0 + len(tp_values))


@dataclass
class MetricsReport:
    per_class_ap: dict  # class_id -> {threshold -> ap}
    map_value: float
    tp_metrics: dict  # name -> value
    nds_value: float
    distance_bins: dict  # "lo-hi" -> {"map": float or None, "num_gt": int}
    map_at: dict = field(default_factory=dict)  # threshold -> mAP

    def to_dict(self) -> dict:
        return {
            "per_class_ap": {
                str(c): {f"{t:g}": v for t, v in th.items()}
                for c, th in self.per_class_ap.items()
            },
            "map": self.map_value,
            "map_at": {f"{t:g}": v for t, v in self.map_at.items()},
            "tp_metrics": dict(self.tp_metrics),
            "nds": self.nds_value,
            "distance_bins": self.distance_bins,
        }


def evaluate_detections(
    preds_per_scene: list,
    gts_per_scene: list,
    num_classes: int,
    thresholds=(0.5, 1.0, 2.0, 4.0),
    tp_threshold: float = 2.0,
    bins=(0.0, 10.0, 20.0, 30.0),
) -> MetricsReport:
    """AP per present class and threshold, mAP, TP errors, NDS and AP per
    ego-distance bin (``bins`` ascending). Each scene's boxes are a BoxArray
    or a sequence of Box3D.

    Each (class, threshold) pair is matched once; the ``tp_threshold`` match
    also gives the TP errors and the bins of the predictions: a matched
    prediction takes its GT's bin, an unmatched one its own. Empty bins
    report a null AP (absent, not zero).
    """
    scenes = list(zip(preds_per_scene, gts_per_scene))
    preds, pred_scene = _concat([p for p, _ in scenes])
    gts, gt_scene = _concat([g for _, g in scenes])
    dist = center_distances(preds, gts, pred_scene, gt_scene)
    gt_bin = _bin_of(_bev_norm(gts.center[:, :2]), bins)
    pred_bin = _bin_of(_bev_norm(preds.center[:, :2]), bins)

    def match(pc, gc, t):
        return match_for_ap(preds.score[pc], dist[np.ix_(pc, gc)], t)

    per_class_ap = {}
    tp_by_class = {}
    for c in range(num_classes):
        pc = np.flatnonzero(preds.class_id == c)
        gc = np.flatnonzero(gts.class_id == c)
        # without ground truth only the bins need a match, at tp_threshold
        matches = {t: match(pc, gc, t)
                   for t in dict.fromkeys([tp_threshold, *(thresholds if len(gc) else ())])}
        order, gt = matches[tp_threshold]
        hit = gt >= 0
        pred_bin[pc[order[hit]]] = gt_bin[gc[gt[hit]]]
        if len(gc):
            per_class_ap[c] = {t: average_precision(matches[t][1] >= 0, len(gc))
                               for t in thresholds}
            tp_by_class[c] = tp_errors(preds.take(pc[order[hit]]), gts.take(gc[gt[hit]]))
    present = list(per_class_ap)
    if present:
        map_value = float(np.mean([np.mean(list(per_class_ap[c].values())) for c in present]))
        map_at = {
            t: float(np.mean([per_class_ap[c][t] for c in present])) for t in thresholds
        }
        tp_metrics = {
            k: float(np.mean([tp_by_class[c][k] for c in present]))
            for k in TP_METRIC_NAMES
        }
    else:
        map_value = 0.0
        map_at = {t: 0.0 for t in thresholds}
        tp_metrics = {k: 1.0 for k in TP_METRIC_NAMES}
    nds_value = nds(map_value, [tp_metrics[k] for k in TP_METRIC_NAMES])

    bins_table = {}
    edges = list(bins) + [float("inf")]
    for i in range(len(bins)):
        hi = edges[i + 1]
        label = f"{bins[i]:g}-{hi:g}" if math.isfinite(hi) else f"{bins[i]:g}+"
        in_bin = gt_bin == i
        if not in_bin.any():
            bins_table[label] = {"map": None, "num_gt": 0}
            continue
        aps = []
        for c in range(num_classes):
            gc = np.flatnonzero(in_bin & (gts.class_id == c))
            if not len(gc):
                continue
            pc = np.flatnonzero((pred_bin == i) & (preds.class_id == c))
            aps.append(float(np.mean([average_precision(match(pc, gc, t)[1] >= 0, len(gc))
                                      for t in thresholds])))
        bins_table[label] = {"map": float(np.mean(aps)), "num_gt": int(np.count_nonzero(in_bin))}
    return MetricsReport(
        per_class_ap=per_class_ap,
        map_value=map_value,
        tp_metrics=tp_metrics,
        nds_value=nds_value,
        distance_bins=bins_table,
        map_at=map_at,
    )


def write_bins_csv(path: str, report: MetricsReport):
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "map", "num_gt"])
        for label, row in report.distance_bins.items():
            writer.writerow(
                [label, "" if row["map"] is None else f"{row['map']:.6f}", row["num_gt"]]
            )


def write_report_json(path: str, report: MetricsReport, extra: dict | None = None):
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    write_json(path, doc)
