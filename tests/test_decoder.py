"""Decoder loop, box refinement, matching, and loss properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fusiondet import tensor as T
from fusiondet import uaf
from fusiondet.config import ModelSection, OracleSection, SimSection, TrainSection
from fusiondet.decoder import (
    compute_loss,
    decode,
    hungarian_match,
    match_layers,
    refine_box,
    _state_scale,
)
from fusiondet.geometry import Box3D, BoxArray, GeometryError
from fusiondet.paqg import generate_queries
from fusiondet.params import init_model_params
from fusiondet.queries import QueryBatch, boxes_to_state, state_to_boxes
from fusiondet.scenesim import generate_scene

from desk_grads import DESK_SCENES, assert_same, desk_queries, outputs_and_grads


def _setup(seed=0, **model_kw):
    model_kw.setdefault("precision", "double")
    model = ModelSection(num_queries=16, num_top=6, num_random=10,
                         num_layers=2, **model_kw)
    model.validate()
    sim = SimSection(seed=seed)
    scene = generate_scene(model, sim, 0)
    store = init_model_params(model, seed=seed)
    return scene, model, sim, store


def _noiseless():
    return OracleSection(pixel_sigma=0.0, depth_sigma=0.0, size_sigma=0.0,
                         yaw_sigma=0.0, vel_sigma=0.0, miss_rate=0.0, fp_rate=0.0)


def _run(scene, model, sim, store, oracle=None, rng_seed=0, **decode_kw):
    oracle = oracle or _noiseless()
    batch = generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(model),
                             model, oracle, store["query.default_embedding"],
                             np.random.default_rng(rng_seed))
    preds = decode(batch, scene.feature_set(model), scene.lidar_pyramid(model),
                   scene.rig, store, model, **decode_kw)
    return batch, preds


class TestDecode:
    def test_zero_init_heads_identity_refinement(self):
        scene, model, sim, store = _setup()
        batch, preds = _run(scene, model, sim, store)
        for layer in preds:
            np.testing.assert_allclose(
                layer.box_state.data, batch.box_state.data, atol=1e-9
            )

    def test_one_layer_equals_manual_composition(self):
        scene, model, sim, store = _setup()
        _, preds2 = _run(scene, model, sim, store)
        model1 = ModelSection(**{**model.__dict__, "num_layers": 1})
        _, preds1 = _run(scene, model1, sim, store)
        np.testing.assert_array_equal(
            preds1[0].class_logits.data, preds2[0].class_logits.data
        )
        np.testing.assert_array_equal(preds1[0].box_state.data, preds2[0].box_state.data)

    def test_noiseless_oracle_covers_gt_exactly(self):
        scene, model, sim, store = _setup()
        _, preds = _run(scene, model, sim, store)
        final = preds[-1].boxes()
        for gt in scene.gt_boxes:
            errs = [np.linalg.norm(b.center - gt.center) for b in final]
            assert min(errs) < 1e-9
            nearest = final[int(np.argmin(errs))]
            dyaw = abs(nearest.yaw - gt.yaw) % (2 * math.pi)
            assert min(dyaw, 2 * math.pi - dyaw) < 1e-9

    def test_bit_identical_across_runs(self):
        scene, model, sim, store = _setup()
        _, a = _run(scene, model, sim, store, rng_seed=5)
        _, b = _run(scene, model, sim, store, rng_seed=5)
        assert a[-1].box_state.data.tobytes() == b[-1].box_state.data.tobytes()
        assert a[-1].class_logits.data.tobytes() == b[-1].class_logits.data.tobytes()

    def test_fusion_mode_validation(self):
        scene, model, sim, store = _setup()
        with pytest.raises(ValueError):
            _run(scene, model, sim, store, fusion="bogus")

    def test_equal_fusion_and_oracle_modes_run(self, monkeypatch):
        # each UAF head runs only in the mode that reads it, and the fields
        # of a head that did not run are None
        scene, model, sim, store = _setup()
        heads = ("predict_distance", "regress_xy")
        calls = []

        def counted(name):
            real = getattr(uaf, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in heads:
            monkeypatch.setattr(uaf, name, counted(name))

        def run(**decode_kw):
            calls.clear()
            _, preds = _run(scene, model, sim, store, **decode_kw)
            assert len(preds) == model.num_layers
            per_layer = tuple(calls.count(name) / model.num_layers for name in heads)
            return preds, per_layer

        eq, per_layer = run(fusion="equal", oracle_gt=scene.gt_boxes)
        assert per_layer == (0, 0)
        assert np.all(eq[0].u_cam == 0.5) and np.all(eq[0].u_lid == 0.5)
        for pred in eq:
            assert pred.dist_cam is pred.dist_lid is pred.reg_cam is pred.reg_lid is None

        orc, per_layer = run(oracle_gt=scene.gt_boxes)
        assert per_layer == (0, 2)
        assert np.all((orc[0].u_lid >= 0) & (orc[0].u_lid < 1))
        for pred in orc:
            assert pred.dist_cam is None and pred.dist_lid is None
            assert pred.reg_cam.shape == pred.reg_lid.shape == (model.num_queries, 2)

        predicted, per_layer = run()
        assert per_layer == (2, 2)
        for pred in predicted:
            assert pred.dist_cam.shape == pred.dist_lid.shape == (model.num_queries,)
            assert pred.reg_cam.shape == pred.reg_lid.shape == (model.num_queries, 2)


class TestOracleUncertainty:
    """Oracle mode sets u = 1 - exp(-d), d the BEV distance from each
    modality's position estimate to the ground truth nearest the query."""

    def _oracle_run(self, reg_bias=(0.0, 0.0)):
        scene, model, sim, store = _setup()
        for layer in range(model.num_layers):
            for branch in ("camera", "lidar"):
                store[f"layer{layer}.{branch}.reg.w2"].data *= 0.0  # estimate = center + bias
                store[f"layer{layer}.{branch}.reg.b2"].data = np.array(reg_bias)
        batch, preds = _run(scene, model, sim, store, oracle_gt=scene.gt_boxes)
        gt_xy = np.stack([b.center[:2] for b in scene.gt_boxes])
        # each layer samples at the boxes the layer before it refined
        states = [batch.box_state] + [pred.box_state for pred in preds[:-1]]
        dists = [self._nearest_gt_distance(st.data[:, :2], gt_xy) for st in states]
        return preds, dists

    @staticmethod
    def _nearest_gt_distance(centers_xy, gt_xy):
        d = np.linalg.norm(centers_xy[:, None, :] - gt_xy[None, :, :], axis=2)
        return d.min(axis=1)

    def test_estimate_on_gt_gives_zero(self):
        preds, dists = self._oracle_run()
        on_gt = dists[0] < 1e-9
        assert on_gt.any()  # the noiseless oracle puts queries on ground truth
        for u in (preds[0].u_cam, preds[0].u_lid):
            np.testing.assert_allclose(u[on_gt], 0.0, atol=1e-9)

    def test_offset_ln2_gives_half(self):
        preds, dists = self._oracle_run(reg_bias=(math.log(2.0), 0.0))
        on_gt = dists[0] < 1e-9
        assert on_gt.any()
        for u in (preds[0].u_cam, preds[0].u_lid):
            np.testing.assert_allclose(u[on_gt], 0.5, atol=1e-9)

    def test_matches_nearest_gt_distance(self):
        preds, dists = self._oracle_run()
        for pred, dist in zip(preds, dists):
            want = 1.0 - np.exp(-dist)
            np.testing.assert_allclose(pred.u_cam, want, atol=1e-12)
            np.testing.assert_allclose(pred.u_lid, want, atol=1e-12)


def per_column_refine_box(features, state, params, cfg):
    """The column-by-column update that ``refine_box`` replaced: each of the
    center, log-size, sin, cos and velocity blocks narrowed, moved and joined
    back."""
    resid = T.mlp(features, params)
    center_scale = cfg.detection_range().extent * cfg.center_step
    center = T.add(T.narrow(state, 1, 0, 3), T.mul(T.narrow(resid, 1, 0, 3), center_scale))
    log_size = T.add(T.narrow(state, 1, 3, 3), T.narrow(resid, 1, 3, 3))
    s = T.add(T.narrow(state, 1, 6, 1), T.narrow(resid, 1, 6, 1))
    c = T.add(T.narrow(state, 1, 7, 1), T.narrow(resid, 1, 7, 1))
    norm = T.sqrt(T.add(T.add(T.mul(s, s), T.mul(c, c)), 1e-12))
    s = T.div(s, norm)
    c = T.div(c, norm)
    vel = T.add(T.narrow(state, 1, 8, 2), T.mul(T.narrow(resid, 1, 8, 2), cfg.velocity_step))
    return T.concat([center, log_size, s, c, vel], axis=1)


class TestRefineBox:
    def test_zero_head_output_keeps_box(self):
        scene, model, sim, store = _setup()
        rng = np.random.default_rng(0)
        qf = T.Tensor(rng.normal(size=(3, model.channels)), dtype=np.float64)
        boxes = [Box3D(rng.uniform(-5, 5, 3), rng.uniform(0.5, 3, 3),
                       rng.uniform(-3, 3), rng.normal(0, 1, 2)) for _ in range(3)]
        state = T.Tensor(boxes_to_state(BoxArray.stack(boxes)), dtype=np.float64)
        out = refine_box(qf, state, store.group("layer0.refine"), model)
        np.testing.assert_allclose(out.data, state.data, atol=1e-9)

    def test_log_size_residual_doubles_length(self):
        scene, model, sim, store = _setup()
        # craft a head that outputs ln2 on the length channel only
        store["layer0.refine.w1"].data *= 0.0
        store["layer0.refine.b1"].data = np.ones(model.channels)
        w2 = np.zeros((model.channels, 10))
        w2[0, 3] = math.log(2.0) / model.channels
        store["layer0.refine.w2"].data = w2 * 0.0
        store["layer0.refine.b2"].data = np.eye(1, 10, 3)[0] * math.log(2.0)
        box = Box3D([1.0, 2.0, 0.5], [2.0, 1.0, 1.5], 0.3, [0.0, 0.0])
        state = T.Tensor(boxes_to_state(BoxArray.stack([box])), dtype=np.float64)
        qf = T.Tensor(np.zeros((1, model.channels)), dtype=np.float64)
        out = state_to_boxes(refine_box(qf, state, store.group("layer0.refine"), model).data)
        np.testing.assert_allclose(out[0].size, [4.0, 1.0, 1.5], atol=1e-12)
        np.testing.assert_allclose(out[0].center, box.center, atol=1e-12)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_matches_per_column_update(self, precision):
        # the state, the features and the head all get their gradients bit
        # for bit, at both precisions
        for scene_id in DESK_SCENES:
            model, _, store, batch = desk_queries(scene_id, precision)
            params = store.group("layer0.refine")
            leaves = [batch.features, batch.box_state, *vars(params).values()]

            def run(refine):
                return outputs_and_grads(
                    lambda: [refine(batch.features, batch.box_state, params, model)],
                    leaves, scene_id)

            assert_same(run(refine_box), run(per_column_refine_box))


class TestHungarian:
    CFG = TrainSection()

    def _match(self, preds, scores, gts, model):
        return hungarian_match(preds, scores, gts, self.CFG, model.detection_range())

    def test_single_exact_match(self):
        model = ModelSection()
        gt = Box3D([5.0, 5.0, 0.5], [4, 2, 1.5], 0.2, [1.0, 0.0], class_id=1)
        gts = BoxArray.stack([gt])
        state = boxes_to_state(gts)
        scores = np.array([[0.1, 0.9, 0.1]])
        assert self._match(state, scores, gts, model) == [(0, 0)]

    def test_nearer_prediction_wins(self):
        model = ModelSection()
        gt = Box3D([0.0, 0.0, 0.5], [4, 2, 1.5], 0.0, [0.0, 0.0], class_id=0)
        near = Box3D([0.5, 0.0, 0.5], [4, 2, 1.5], 0.0, [0.0, 0.0])
        far = Box3D([10.0, 0.0, 0.5], [4, 2, 1.5], 0.0, [0.0, 0.0])
        state = boxes_to_state(BoxArray.stack([far, near]))
        scores = np.full((2, 3), 0.5)
        assert self._match(state, scores, BoxArray.stack([gt]), model) == [(1, 0)]

    def test_matches_brute_force_assignment_cost(self):
        # exhaustive oracle over all partial matchings, with each unmatched
        # prediction/GT paying the no-object cost
        model = ModelSection()
        rng = np.random.default_rng(0)
        tcfg = self.CFG
        scale = _state_scale(model.detection_range())
        for trial in range(20):
            n_pred, n_gt = 8, 5
            gts = BoxArray.stack([
                Box3D(rng.uniform(-20, 20, 3), rng.uniform(0.5, 4, 3),
                      rng.uniform(-3, 3), rng.normal(0, 2, 2),
                      class_id=int(rng.integers(0, 3)))
                for _ in range(n_gt)
            ])
            pred_state = boxes_to_state(BoxArray.stack(
                [Box3D(rng.uniform(-20, 20, 3), rng.uniform(0.5, 4, 3),
                       rng.uniform(-3, 3), rng.normal(0, 2, 2)) for _ in range(n_pred)]
            ))
            scores = rng.uniform(0, 1, size=(n_pred, 3))
            gt_state = boxes_to_state(gts)
            gt_cls = [g.class_id for g in gts]

            def pair_cost(pi, gi):
                box = np.sum(np.abs(pred_state[pi] - gt_state[gi]) * scale)
                return tcfg.w_cls * (1 - scores[pi, gt_cls[gi]]) + tcfg.w_box * box

            def total_cost(pairs):
                unmatched = (n_pred - len(pairs)) + (n_gt - len(pairs))
                return (sum(pair_cost(pi, gi) for pi, gi in pairs)
                        + tcfg.no_object_cost * unmatched)

            best = math.inf
            for k in range(0, n_gt + 1):
                for gsub in itertools.combinations(range(n_gt), k):
                    for psub in itertools.permutations(range(n_pred), k):
                        best = min(best, total_cost(list(zip(psub, gsub))))
            got = self._match(pred_state, scores, gts, model)
            assert total_cost(got) == pytest.approx(best, abs=1e-9)

    def test_empty_gt(self):
        model = ModelSection()
        state = boxes_to_state(BoxArray.stack([Box3D([0, 0, 0], [1, 1, 1], 0.0)]))
        assert self._match(state, np.ones((1, 3)), BoxArray.stack([]), model) == []

    @staticmethod
    def _padded_match(cost, c):
        """Reference: the assignment on the (N + G)-square matrix padded with
        no-object rows and columns of cost ``c``."""
        n_pred, n_gt = cost.shape
        padded = np.zeros((n_pred + n_gt,) * 2)
        padded[:n_pred, :n_gt] = cost
        padded[:n_pred, n_gt:] = c
        padded[n_pred:, :n_gt] = c
        rows, cols = linear_sum_assignment(padded)
        return [(int(r), int(k)) for r, k in zip(rows, cols) if r < n_pred and k < n_gt]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pred=st.integers(0, 10), n_gt=st.integers(0, 10),
           mode=st.sampled_from(["default", "none", "all"]))
    def test_matches_the_padded_form(self, seed, n_pred, n_gt, mode):
        model = ModelSection()
        rng = np.random.default_rng(seed)
        boxes = BoxArray.stack([Box3D(rng.uniform(-20, 20, 3), rng.uniform(0.5, 4, 3),
                                      rng.uniform(-3, 3), rng.normal(0, 2, 2),
                                      class_id=int(rng.integers(0, 3)))
                                for _ in range(n_pred + n_gt)])
        gts = boxes.take(np.arange(n_pred, n_pred + n_gt))
        pred_state = boxes_to_state(boxes.take(np.arange(n_pred)))
        scores = rng.uniform(0, 1, size=(n_pred, 3))
        diff = np.abs(pred_state[:, None, :] - boxes_to_state(gts)[None, :, :])
        cost = (self.CFG.w_cls * (1.0 - scores[:, [g.class_id for g in gts]])
                + self.CFG.w_box * (diff * _state_scale(model.detection_range())).sum(axis=2))
        # "none": every cost is at least twice the no-object cost, the least
        # one equal to it (a tie the padded form may break either way)
        c = {"default": self.CFG.no_object_cost, "all": 1e6,
             "none": cost.min() / 2.0 if cost.size else 1.0}[mode]
        cfg = TrainSection(no_object_cost=c)
        got = hungarian_match(pred_state, scores, gts, cfg, model.detection_range())
        want = self._padded_match(cost, c)

        def total(pairs):
            return sum(cost[p, g] - 2.0 * c for p, g in pairs)

        assert total(got) == pytest.approx(total(want), abs=1e-9)
        assert all(cost[p, g] < 2.0 * c for p, g in got)
        assert [p for p, _ in got] == sorted({p for p, _ in got})
        assert len({g for _, g in got}) == len(got)
        if mode == "none":
            assert got == []
        if mode == "all":
            assert len(got) == min(n_pred, n_gt)


class TestComputeLoss:
    def test_perfect_predictions_zero_box_terms(self):
        scene, model, sim, store = _setup()
        _, preds = _run(scene, model, sim, store)
        matching = match_layers(preds, scene.gt_boxes, TrainSection(), model)
        # noiseless queries sit exactly on GT; box L1 and reg terms vanish
        loss, terms = compute_loss(preds, scene.gt_boxes, matching, TrainSection(), model)
        assert terms["box"] == pytest.approx(0.0, abs=1e-8)
        assert np.isfinite(terms["total"])

    def test_empty_gt_only_classification(self):
        scene, model, sim, store = _setup()
        batch, _ = _run(scene, model, sim, store)
        # re-decode against an empty GT list
        preds = decode(batch, scene.feature_set(model), scene.lidar_pyramid(model),
                       scene.rig, store, model)
        no_gt = BoxArray.stack([])
        matching = match_layers(preds, no_gt, TrainSection(), model)
        loss, terms = compute_loss(preds, no_gt, matching, TrainSection(), model)
        assert terms["box"] == 0.0 and terms["unc"] == 0.0 and terms["reg"] == 0.0
        assert terms["cls"] > 0.0

    def test_gt_order_invariance(self):
        scene, model, sim, store = _setup(seed=3)
        oracle = OracleSection(pixel_sigma=2.0, fp_rate=1.0)
        batch, preds = _run(scene, model, sim, store, oracle=oracle)
        tcfg = TrainSection()
        m1 = match_layers(preds, scene.gt_boxes, tcfg, model)
        l1, _ = compute_loss(preds, scene.gt_boxes, m1, tcfg, model)
        rev = scene.gt_boxes.take(np.arange(len(scene.gt_boxes))[::-1])
        m2 = match_layers(preds, rev, tcfg, model)
        l2, _ = compute_loss(preds, rev, m2, tcfg, model)
        assert l1.item() == pytest.approx(l2.item(), rel=1e-12)

    def test_query_order_invariance(self):
        scene, model, sim, store = _setup(seed=4)
        oracle = OracleSection(pixel_sigma=2.0, fp_rate=1.0)
        batch, _ = _run(scene, model, sim, store, oracle=oracle)
        tcfg = TrainSection()

        def loss_for(batch):
            preds = decode(batch, scene.feature_set(model),
                           scene.lidar_pyramid(model), scene.rig, store, model)
            matching = match_layers(preds, scene.gt_boxes, tcfg, model)
            return compute_loss(preds, scene.gt_boxes, matching, tcfg, model)[0].item()

        perm = np.random.default_rng(0).permutation(batch.count)
        shuffled = QueryBatch(
            T.Tensor(batch.features.data[perm].copy()),
            T.Tensor(batch.box_state.data[perm].copy()),
        )
        assert loss_for(batch) == pytest.approx(loss_for(shuffled), rel=1e-9)


def _per_box_decode(state, scores=None, class_ids=None) -> list:
    """The one-Box3D-per-row decode that ``state_to_boxes`` replaced."""
    out = []
    for i, row in enumerate(np.asarray(state, dtype=float)):
        yaw = math.atan2(row[6], row[7])
        out.append(
            Box3D(
                center=row[0:3],
                size=np.exp(row[3:6]),
                yaw=yaw,
                velocity=row[8:10],
                class_id=0 if class_ids is None else int(class_ids[i]),
                score=1.0 if scores is None else float(scores[i]),
            )
        )
    return out


class TestStateToBoxes:
    """The array decode gives the per-box decode's rows bit for bit."""

    def _assert_rows_equal(self, boxes, rows):
        assert isinstance(boxes, BoxArray) and len(boxes) == len(rows)
        for name, dtype in (("center", np.float64), ("size", np.float64),
                            ("yaw", np.float64), ("velocity", np.float64),
                            ("class_id", np.int64), ("score", np.float64)):
            got = getattr(boxes, name)
            assert got.dtype == dtype, name
            want = np.array([getattr(r, name) for r in rows], dtype=dtype).reshape(got.shape)
            assert got.tobytes() == want.tobytes(), name
        for row, want in zip(boxes, rows):
            assert row.to_dict() == want.to_dict()
            assert type(row.class_id) is type(want.class_id)
            assert type(row.score) is type(want.score)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_states(self, dtype):
        rng = np.random.default_rng(0)
        state = rng.normal(0.0, 3.0, size=(2000, 10)).astype(dtype)
        scores = rng.uniform(size=2000).astype(dtype)
        classes = rng.integers(0, 3, size=2000)
        self._assert_rows_equal(state_to_boxes(state, scores, classes),
                                _per_box_decode(state, scores, classes))
        self._assert_rows_equal(state_to_boxes(state), _per_box_decode(state))

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_decoded_layers(self, precision):
        scene, model, sim, store = _setup(precision=precision)
        _, preds = _run(scene, model, sim, store, oracle=OracleSection())
        for pred in preds:
            scores = pred.scores()
            cls = scores.argmax(axis=1)
            best = scores[np.arange(len(cls)), cls]
            self._assert_rows_equal(pred.boxes(),
                                    _per_box_decode(pred.box_state.data, best, cls))

    def test_empty(self):
        boxes = state_to_boxes(np.zeros((0, 10)))
        assert len(boxes) == 0 and list(boxes) == []

    def test_underflowing_size_raises(self):
        state = boxes_to_state(BoxArray.stack([Box3D([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0)]))
        state[0, 4] = -800.0  # exp underflows to 0
        with pytest.raises(GeometryError):
            _per_box_decode(state)
        with pytest.raises(GeometryError):
            state_to_boxes(state)
