"""The record-based detection metrics, kept as the reference that
``fusiondet.metrics`` must reproduce bit for bit.

Every box is copied into a DetectionRecord and matched with a Python loop
over records; ``evaluate_detections`` matches each class at ``tp_threshold``
once for AP, once for the TP errors and once more for the distance bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fusiondet.geometry import Box3D
from fusiondet.metrics import (
    MIN_PRECISION,
    MIN_RECALL,
    RECALL_SAMPLES,
    TP_METRIC_NAMES,
    MetricsReport,
    nds,
)


@dataclass
class DetectionRecord:
    """One prediction or GT box flattened for evaluation."""

    scene: int
    center: np.ndarray
    size: np.ndarray
    yaw: float
    velocity: np.ndarray
    class_id: int
    score: float = 1.0

    @classmethod
    def from_box(cls, scene: int, b: Box3D) -> "DetectionRecord":
        return cls(scene, b.center[:2].copy(), b.size.copy(), b.yaw,
                   b.velocity.copy(), b.class_id, b.score)

    def distance_to(self, other: "DetectionRecord") -> float:
        return float(np.linalg.norm(self.center - other.center))

    def ego_distance(self) -> float:
        return float(np.linalg.norm(self.center))


def _records(preds_per_scene: list, gts_per_scene: list) -> tuple:
    preds = []
    gts = []
    for scene, (pb, gb) in enumerate(zip(preds_per_scene, gts_per_scene)):
        preds += [DetectionRecord.from_box(scene, b) for b in pb]
        gts += [DetectionRecord.from_box(scene, b) for b in gb]
    return preds, gts


def match_for_ap(preds: list, gts: list, threshold: float) -> tuple:
    """Greedy score-descending matching on BEV center distance.

    Returns (tp flags aligned with score-sorted preds, sorted preds,
    matches as (pred, gt) record pairs). Each GT matches at most once.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    sorted_preds = [preds[i] for i in order]
    unmatched = {}
    for g in gts:
        unmatched.setdefault(g.scene, []).append(g)
    tp = np.zeros(len(sorted_preds), dtype=bool)
    matches = []
    for i, p in enumerate(sorted_preds):
        cands = unmatched.get(p.scene, [])
        best_j = -1
        best_d = threshold
        for j, g in enumerate(cands):
            d = p.distance_to(g)
            if d <= best_d:
                best_d = d
                best_j = j
        if best_j >= 0:
            tp[i] = True
            matches.append((p, cands.pop(best_j)))
    return tp, sorted_preds, matches


def average_precision(preds: list, gts: list, threshold: float) -> float:
    """nuScenes AP: 101-point interpolated PR curve, clipped below 0.1
    recall/precision and renormalized. Zero when there is no ground truth."""
    n_gt = len(gts)
    if n_gt == 0 or len(preds) == 0:
        return 0.0
    tp, _, _ = match_for_ap(preds, gts, threshold)
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


def _scale_error(size_a: np.ndarray, size_b: np.ndarray) -> float:
    """1 - IoU of centered, axis-aligned boxes (pure size comparison)."""
    inter = float(np.prod(np.minimum(size_a, size_b)))
    union = float(np.prod(size_a) + np.prod(size_b) - inter)
    return 1.0 - inter / union


def _yaw_diff(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return d if d <= math.pi else 2.0 * math.pi - d


def tp_errors(matches: list) -> dict:
    """ATE/ASE/AOE/AVE over matched (pred, gt) pairs; 1.0 when unmatched."""
    if not matches:
        return {k: 1.0 for k in TP_METRIC_NAMES}
    ate = float(np.mean([p.distance_to(g) for p, g in matches]))
    ase = float(np.mean([_scale_error(p.size, g.size) for p, g in matches]))
    aoe = float(np.mean([_yaw_diff(p.yaw, g.yaw) for p, g in matches]))
    ave = float(np.mean([np.linalg.norm(p.velocity - g.velocity) for p, g in matches]))
    return {"ate": ate, "ase": ase, "aoe": aoe, "ave": ave}


def evaluate_detections(
    preds_per_scene: list,
    gts_per_scene: list,
    num_classes: int,
    thresholds=(0.5, 1.0, 2.0, 4.0),
    tp_threshold: float = 2.0,
    bins=(0.0, 10.0, 20.0, 30.0),
) -> MetricsReport:
    preds, gts = _records(preds_per_scene, gts_per_scene)
    per_class_ap = {}
    tp_by_class = {}
    present = []
    for c in range(num_classes):
        cp = [p for p in preds if p.class_id == c]
        cg = [g for g in gts if g.class_id == c]
        if not cg:
            continue
        present.append(c)
        per_class_ap[c] = {t: average_precision(cp, cg, t) for t in thresholds}
        _, _, matches = match_for_ap(cp, cg, tp_threshold)
        tp_by_class[c] = tp_errors(matches)
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
    bins_table = distance_binned_ap(
        preds, gts, num_classes, thresholds, tp_threshold, bins
    )
    return MetricsReport(
        per_class_ap=per_class_ap,
        map_value=map_value,
        tp_metrics=tp_metrics,
        nds_value=nds_value,
        distance_bins=bins_table,
        map_at=map_at,
    )


def distance_binned_ap(
    preds: list,
    gts: list,
    num_classes: int,
    thresholds,
    tp_threshold: float,
    bins,
) -> dict:
    """AP per ego-distance bin. GTs bin by their own distance; matched
    predictions inherit their GT's bin, unmatched bin by themselves.
    Empty bins report a null AP (absent, not zero)."""
    edges = list(bins) + [float("inf")]
    labels = []
    for i in range(len(bins)):
        hi = edges[i + 1]
        labels.append(f"{bins[i]:g}-{hi:g}" if math.isfinite(hi) else f"{bins[i]:g}+")

    def bin_of(dist: float) -> int:
        for i in range(len(bins) - 1, -1, -1):
            if dist >= bins[i]:
                return i
        return 0

    pred_bin = {}
    for c in range(num_classes):
        cp = [p for p in preds if p.class_id == c]
        cg = [g for g in gts if g.class_id == c]
        _, _, matches = match_for_ap(cp, cg, tp_threshold)
        matched_pred_ids = {id(p): g for p, g in matches}
        for p in cp:
            g = matched_pred_ids.get(id(p))
            pred_bin[id(p)] = bin_of(g.ego_distance() if g is not None else p.ego_distance())

    table = {}
    for i, label in enumerate(labels):
        bin_gts = [g for g in gts if bin_of(g.ego_distance()) == i]
        bin_preds = [p for p in preds if pred_bin.get(id(p)) == i]
        if not bin_gts:
            table[label] = {"map": None, "num_gt": 0}
            continue
        aps = []
        for c in range(num_classes):
            cg = [g for g in bin_gts if g.class_id == c]
            if not cg:
                continue
            cp = [p for p in bin_preds if p.class_id == c]
            aps.append(float(np.mean([average_precision(cp, cg, t) for t in thresholds])))
        table[label] = {"map": float(np.mean(aps)), "num_gt": len(bin_gts)}
    return table
