"""Detection metrics: AP fixture, TP errors, NDS arithmetic, distance bins,
and bit-for-bit agreement with the record-based reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as reference
from fusiondet.geometry import Box3D, BoxArray
from fusiondet.metrics import (
    average_precision,
    center_distances,
    evaluate_detections,
    match_for_ap,
    nds,
    tp_errors,
)


def _rec(x, y, cls=0, score=1.0, scene=0, size=(4.0, 2.0, 1.5), yaw=0.0, vel=(0.0, 0.0)):
    """One box and the scene it belongs to."""
    return Box3D([x, y, 0.5], size, yaw, vel, class_id=cls, score=score), scene


def _stack(recs):
    return BoxArray.stack([b for b, _ in recs]), np.array([s for _, s in recs], dtype=int)


def _scenes(per_scene):
    """Each scene's list of Box3D as one BoxArray."""
    return [BoxArray.stack(boxes) for boxes in per_scene]


def _match(preds, gts, threshold):
    (pb, ps), (gb, gs) = _stack(preds), _stack(gts)
    return match_for_ap(pb.score, center_distances(pb, gb, ps, gs), threshold)


def _ap(preds, gts, threshold):
    _, gt = _match(preds, gts, threshold)
    return average_precision(gt >= 0, len(gts))


def _tp_errors(pairs):
    return tp_errors(BoxArray.stack([p for (p, _), _ in pairs]),
                     BoxArray.stack([g for _, (g, _) in pairs]))


class TestMatchForAp:
    def test_exact_hit_is_tp(self):
        _, gt = _match([_rec(0, 0)], [_rec(0, 0)], threshold=2.0)
        assert (gt >= 0).tolist() == [True]

    def test_beyond_threshold_is_fp(self):
        _, gt = _match([_rec(3, 0)], [_rec(0, 0)], threshold=2.0)
        assert (gt >= 0).tolist() == [False]

    def test_greedy_prefers_higher_score(self):
        preds = [_rec(0.5, 0, score=0.6), _rec(0.4, 0, score=0.9)]
        order, gt = _match(preds, [_rec(0, 0)], threshold=2.0)
        assert preds[order[0]][0].score == 0.9
        assert (gt >= 0).tolist() == [True, False]

    def test_gt_matched_at_most_once(self):
        preds = [_rec(0.1, 0, score=0.9), _rec(0.2, 0, score=0.8)]
        _, gt = _match(preds, [_rec(0, 0)], threshold=2.0)
        assert np.count_nonzero(gt >= 0) == 1

    def test_matching_is_per_scene(self):
        preds = [_rec(0, 0, scene=0, score=0.9)]
        gts = [_rec(0, 0, scene=1)]
        _, gt = _match(preds, gts, threshold=2.0)
        assert (gt >= 0).tolist() == [False]

    def test_distance_ties_go_to_the_highest_gt_index(self):
        gts = [_rec(-1, 0), _rec(1, 0), _rec(0, 5)]
        _, gt = _match([_rec(0, 0)], gts, threshold=2.0)
        assert gt.tolist() == [1]


class TestAveragePrecision:
    def test_perfect_detector(self):
        gts = [_rec(0, 0), _rec(10, 0)]
        preds = [_rec(0, 0, score=0.9), _rec(10, 0, score=0.8)]
        assert _ap(preds, gts, 2.0) == pytest.approx(1.0)

    def test_no_predictions(self):
        assert _ap([], [_rec(0, 0)], 2.0) == 0.0

    def test_no_gt(self):
        assert _ap([_rec(0, 0)], [], 2.0) == 0.0

    def test_hand_computed_fixture(self):
        # 2 GT; predictions [TP s=.9, FP s=.8, TP s=.7].
        # PR points: recall [.5, .5, 1], precision [1, 1/2, 2/3]; 101-sample
        # interpolation, clip below 0.1 recall/precision, renormalize:
        # exact value 239/324 (independent fraction-arithmetic integration).
        gts = [_rec(0, 0), _rec(20, 0)]
        preds = [
            _rec(0, 0, score=0.9),
            _rec(50, 50, score=0.8),
            _rec(20, 0, score=0.7),
        ]
        assert _ap(preds, gts, 2.0) == pytest.approx(239 / 324, abs=1e-12)

    def test_order_invariance_and_low_score_fp(self):
        rng = np.random.default_rng(0)
        gts = [_rec(x * 5.0, 0) for x in range(4)]
        preds = [_rec(x * 5.0 + rng.uniform(-1, 1), 0, score=rng.uniform(0.5, 1))
                 for x in range(4)]
        preds += [_rec(100, 100, score=0.45)]
        base = _ap(preds, gts, 2.0)
        shuffled = [preds[i] for i in rng.permutation(len(preds))]
        assert _ap(shuffled, gts, 2.0) == pytest.approx(base)
        worse = preds + [_rec(200, 200, score=0.01)]
        assert _ap(worse, gts, 2.0) <= base + 1e-12
        assert 0.0 <= base <= 1.0


class TestTpErrors:
    def test_perfect_matches_zero(self):
        pairs = [(_rec(1, 2), _rec(1, 2))]
        errs = _tp_errors(pairs)
        assert errs == {"ate": 0.0, "ase": 0.0, "aoe": 0.0, "ave": 0.0}

    def test_yaw_off_by_pi(self):
        errs = _tp_errors([(_rec(0, 0, yaw=0.0), _rec(0, 0, yaw=math.pi))])
        assert errs["aoe"] == pytest.approx(math.pi)

    def test_scale_error_volume_ratio(self):
        a = _rec(0, 0, size=(2.0, 2.0, 2.0))
        b = _rec(0, 0, size=(1.0, 1.0, 1.0))
        errs = _tp_errors([(a, b)])
        assert errs["ase"] == pytest.approx(1.0 - 1.0 / 8.0)

    def test_no_matches_convention(self):
        assert _tp_errors([]) == {"ate": 1.0, "ase": 1.0, "aoe": 1.0, "ave": 1.0}

    def test_velocity_error(self):
        errs = _tp_errors([(_rec(0, 0, vel=(3.0, 4.0)), _rec(0, 0, vel=(0.0, 0.0)))])
        assert errs["ave"] == pytest.approx(5.0)

    def test_self_evaluation_is_zero(self):
        rng = np.random.default_rng(1)
        recs = [
            _rec(rng.uniform(-10, 10), rng.uniform(-10, 10), yaw=rng.uniform(-3, 3),
                 size=tuple(rng.uniform(0.5, 4, 3)), vel=tuple(rng.normal(0, 2, 2)))
            for _ in range(10)
        ]
        errs = _tp_errors([(r, r) for r in recs])
        assert all(v == 0.0 for v in errs.values())


class TestNds:
    def test_perfect(self):
        assert nds(1.0, [0.0] * 5) == 1.0

    def test_sparse_fusion_headline_row(self):
        # 74.4 mAP with the published TP errors composes to 77.0
        val = nds(0.744, [0.241, 0.229, 0.278, 0.154, 0.118])
        assert val == pytest.approx(0.770, abs=5e-4)

    def test_floor(self):
        assert nds(0.0, [1.0, 2.0, 1.5, 1.0, 3.0]) == 0.0

    def test_four_metric_variant(self):
        assert nds(0.5, [0.0] * 4) == pytest.approx((2.5 + 4) / 9)

    def test_negative_tp_rejected(self):
        with pytest.raises(ValueError):
            nds(0.5, [-0.1])

    # every complete row of the published benchmark table: (mTPs..., mAP, NDS)
    TABLE_ROWS = [
        ((25.9, 24.3, 35.9, 28.8, 12.7), 68.9, 71.7),
        ((28.4, 24.1, 31.0, 30.0, 12.0), 69.4, 72.1),
        ((24.5, 23.3, 31.1, 25.8, 13.3), 68.4, 72.4),
        ((26.1, 23.9, 32.9, 26.0, 13.4), 70.2, 72.9),
        ((25.0, 24.0, 35.9, 25.4, 13.2), 71.3, 73.3),
        ((25.7, 24.0, 32.5, 24.5, 12.8), 70.8, 73.4),
        ((25.5, 23.8, 31.0, 24.4, 13.2), 71.5, 74.0),
        ((27.9, 23.5, 30.8, 25.9, 11.2), 72.0, 74.1),
        ((24.7, 23.7, 30.4, 25.0, 13.3), 72.2, 74.4),
        ((24.1, 22.9, 25.6, 24.0, 13.1), 70.9, 74.5),
        ((25.1, 24.2, 32.8, 22.6, 12.6), 72.4, 74.5),
        ((25.3, 23.8, 33.4, 17.4, 12.0), 72.0, 74.8),
        ((26.7, 23.6, 28.6, 22.5, 10.5), 72.6, 75.1),
        ((24.1, 22.9, 27.8, 15.4, 11.8), 74.4, 77.0),
        ((24.5, 23.3, 30.8, 23.3, 13.1), 71.4, 74.2),
        ((24.3, 23.8, 34.5, 32.8, 13.3), 75.5, 74.9),
        ((24.2, 22.7, 32.0, 22.2, 13.0), 75.0, 76.1),
        ((23.5, 23.3, 32.8, 22.6, 13.0), 75.6, 76.3),
        ((23.3, 22.0, 27.1, 21.2, 12.7), 75.3, 77.0),
        ((22.9, 22.9, 30.2, 22.5, 13.5), 76.8, 77.2),
        ((23.4, 22.8, 27.8, 20.4, 12.4), 76.6, 77.6),
        ((24.3, 23.1, 28.4, 15.2, 11.7), 75.9, 77.7),
    ]

    @pytest.mark.parametrize("tps,map_pct,nds_pct", TABLE_ROWS)
    def test_published_rows_reproduce(self, tps, map_pct, nds_pct):
        # published values carry one decimal in percent, so the worst-case
        # rounding error is exactly 5e-4; the bound is inclusive (one row
        # lands exactly on it)
        val = nds(map_pct / 100.0, [t / 100.0 for t in tps])
        assert abs(val - nds_pct / 100.0) <= 5e-4 + 1e-12


class TestDistanceBins:
    def test_all_near_only_first_bin(self):
        gts = [[Box3D([3.0, 4.0, 0.5], [4, 2, 1.5], 0.0, class_id=0)]]
        preds = [[Box3D([3.0, 4.0, 0.5], [4, 2, 1.5], 0.0, class_id=0, score=0.9)]]
        rep = evaluate_detections(_scenes(preds), _scenes(gts), 3)
        assert rep.distance_bins["0-10"]["map"] == pytest.approx(1.0)
        for label in ("10-20", "20-30", "30+"):
            assert rep.distance_bins[label]["map"] is None
            assert rep.distance_bins[label]["num_gt"] == 0

    def test_partition_equals_per_bin_subproblems(self):
        # two well-separated clusters in different bins
        near_gt = [Box3D([5.0, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0)]
        far_gt = [Box3D([25.0, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0)]
        near_pred = [Box3D([5.2, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0, score=0.9)]
        far_pred = [Box3D([26.5, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0, score=0.8)]
        rep = evaluate_detections(_scenes([near_pred + far_pred]),
                                  _scenes([near_gt + far_gt]), 1)
        rep_near = evaluate_detections(_scenes([near_pred]), _scenes([near_gt]), 1)
        rep_far = evaluate_detections(_scenes([far_pred]), _scenes([far_gt]), 1)
        assert rep.distance_bins["0-10"]["map"] == pytest.approx(rep_near.map_value)
        assert rep.distance_bins["20-30"]["map"] == pytest.approx(rep_far.map_value)

    def test_unmatched_prediction_binned_by_itself(self):
        gts = [[Box3D([5.0, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0)]]
        preds = [[
            Box3D([5.0, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0, score=0.9),
            Box3D([35.0, 0.0, 0.5], [4, 2, 1.5], 0.0, class_id=0, score=0.8),
        ]]
        rep = evaluate_detections(_scenes(preds), _scenes(gts), 1)
        # far FP cannot pollute the near bin
        assert rep.distance_bins["0-10"]["map"] == pytest.approx(1.0)


class TestEvaluateEndToEnd:
    def test_report_fields_and_self_consistency(self):
        rng = np.random.default_rng(2)
        gts, preds = [], []
        for scene in range(4):
            boxes = [
                Box3D([rng.uniform(-20, 20), rng.uniform(-20, 20), 0.5],
                      rng.uniform(0.5, 4, 3), rng.uniform(-3, 3),
                      rng.normal(0, 1, 2), class_id=int(rng.integers(0, 3)))
                for _ in range(5)
            ]
            gts.append(boxes)
            preds.append([
                Box3D(b.center + rng.normal(0, 0.3, 3), b.size, b.yaw, b.velocity,
                      b.class_id, float(rng.uniform(0.5, 1.0)))
                for b in boxes
            ])
        rep = evaluate_detections(_scenes(preds), _scenes(gts), 3)
        assert 0.0 <= rep.map_value <= 1.0
        assert 0.0 <= rep.nds_value <= 1.0
        doc = rep.to_dict()
        for key in ("per_class_ap", "map", "map_at", "tp_metrics", "nds", "distance_bins"):
            assert key in doc

    def test_self_evaluation_perfect(self):
        rng = np.random.default_rng(3)
        gts = [[
            Box3D([rng.uniform(-20, 20), rng.uniform(-20, 20), 0.5],
                  rng.uniform(0.5, 4, 3), rng.uniform(-3, 3), rng.normal(0, 1, 2),
                  class_id=int(rng.integers(0, 3)))
            for _ in range(6)
        ] for _ in range(3)]
        preds = [[Box3D(b.center, b.size, b.yaw, b.velocity, b.class_id, 0.9)
                  for b in scene] for scene in gts]
        rep = evaluate_detections(_scenes(preds), _scenes(gts), 3)
        assert rep.map_value == pytest.approx(1.0)
        assert rep.nds_value == pytest.approx(1.0)
        assert all(v == 0.0 for v in rep.tp_metrics.values())


# lattice points tie distances; free floats round their squares and sums
_COORD = st.one_of(st.integers(-12, 12).map(lambda k: k * 0.5), st.floats(-6.0, 6.0))
_SCORE = st.one_of(st.sampled_from([0.3, 0.6, 0.9]), st.floats(0.0, 1.0))


@st.composite
def _scene_sets(draw):
    num_classes = draw(st.integers(1, 4))
    gt_classes = draw(st.lists(st.integers(0, num_classes - 1), min_size=1,
                               max_size=num_classes, unique=True))

    def boxes(classes, max_size):
        return [
            Box3D([x, y, 0.5], size, yaw, vel, class_id=cls, score=score)
            for x, y, cls, score, size, yaw, vel in draw(st.lists(st.tuples(
                _COORD, _COORD, st.sampled_from(classes), _SCORE,
                st.lists(st.floats(0.5, 4.0), min_size=3, max_size=3),
                st.floats(-4.0, 4.0), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
            ), max_size=max_size))
        ]

    n_scenes = draw(st.integers(0, 4))
    preds = [boxes(list(range(num_classes)), 10) for _ in range(n_scenes)]
    gts = [boxes(gt_classes, 6) for _ in range(n_scenes)]
    thresholds = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]), min_size=1)))
    tp_threshold = draw(st.sampled_from([1.0, 2.0, 3.0]))
    bins = draw(st.sampled_from([(0.0, 10.0, 20.0, 30.0), (0.0, 2.0, 5.0), (1.0,)]))
    return preds, gts, num_classes, tuple(thresholds), tp_threshold, bins


class TestMatchesReference:
    """The array metrics reproduce the record-based reference exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_scene_sets())
    def test_report_equals_reference(self, case):
        preds, gts, num_classes, thresholds, tp_threshold, bins = case
        kw = dict(thresholds=thresholds, tp_threshold=tp_threshold, bins=bins)
        want = reference.evaluate_detections(preds, gts, num_classes, **kw).to_dict()
        got = evaluate_detections(_scenes(preds), _scenes(gts), num_classes, **kw)
        assert got.to_dict() == want

    def test_decoded_scenes_equal_reference(self):
        from fusiondet.config import RunConfig
        from fusiondet.params import init_model_params
        from fusiondet.scenesim import generate_scene
        from fusiondet.train import run_inference

        cfg = RunConfig()
        scenes = [generate_scene(cfg.model, cfg.sim, i) for i in range(3)]
        store = init_model_params(cfg.model, seed=0)
        preds, gts = run_inference(cfg, scenes, store, oracle_uncertainty=True)
        assert all(isinstance(b, BoxArray) for b in preds + gts)
        want = reference.evaluate_detections(preds, gts, cfg.model.num_classes)
        assert want.map_value > 0
        assert evaluate_detections(preds, gts, cfg.model.num_classes).to_dict() == want.to_dict()
