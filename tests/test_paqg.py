"""Query generation: oracle proposals, lifting, top-k selection, random fill."""

import math

import numpy as np
import pytest
from scipy import stats

from fusiondet import paqg
from fusiondet import tensor as T
from fusiondet.config import ModelSection, OracleSection, RunConfig, SimSection
from fusiondet.geometry import (
    Box3D,
    align_temporal,
    hit_views,
    project_to_view,
    unproject_center,
)
from fusiondet.params import init_model_params
from fusiondet.paqg import (
    PerspectiveProposal,
    generate_queries,
    init_queries,
    lift_proposals,
    perspective_oracle,
    random_queries,
    select_topk,
)
from fusiondet.scenesim import generate_scene
from test_rias import packed_map


def _model(**kw) -> ModelSection:
    base = dict(num_queries=16, num_top=6, num_random=10, precision="double")
    base.update(kw)
    m = ModelSection(**base)
    m.validate()
    return m


def _noiseless() -> OracleSection:
    return OracleSection(pixel_sigma=0.0, depth_sigma=0.0, size_sigma=0.0,
                         yaw_sigma=0.0, vel_sigma=0.0, miss_rate=0.0, fp_rate=0.0)


def _scene(seed=0, model=None):
    model = model or _model()
    sim = SimSection(seed=seed)
    return generate_scene(model, sim, 0), model, sim


class TestPerspectiveOracle:
    def test_noiseless_projects_onto_gt(self):
        scene, model, sim = _scene()
        props = perspective_oracle(scene.gt_boxes, scene.rig, _noiseless(),
                                   np.random.default_rng(0), model.detection_range())
        assert props
        for p in props:
            gt = scene.gt_boxes[0]
            # every proposal must sit exactly on some GT projection
            best = min(
                np.hypot(p.cx - q[0], p.cy - q[1])
                for q in (
                    project_to_view(b.center, scene.rig.views[p.view])
                    for b in scene.gt_boxes
                )
                if q is not None
            )
            assert best < 1e-9
            assert p.score == 1.0

    def test_full_miss_rate_leaves_only_false_positives(self):
        scene, model, sim = _scene()
        oracle = OracleSection(miss_rate=1.0, fp_rate=0.0)
        props = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                                   np.random.default_rng(0), model.detection_range())
        assert props == []
        oracle = OracleSection(miss_rate=1.0, fp_rate=2.0)
        props = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                                   np.random.default_rng(0), model.detection_range())
        assert all(p.score <= 0.3 for p in props)

    def test_seeded_runs_are_deterministic(self):
        scene, model, sim = _scene()
        oracle = OracleSection(pixel_sigma=2.0)
        a = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                               np.random.default_rng(42), model.detection_range())
        b = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                               np.random.default_rng(42), model.detection_range())
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.cx == pb.cx and pa.cy == pb.cy and pa.depth == pb.depth

    def test_lifted_centers_within_3sigma_bound(self):
        # pixel noise only; lifted centers stay within the 3-sigma-implied
        # metric bound for ~99% of objects (Monte-Carlo over seeded scenes)
        model = _model()
        sim = SimSection()
        oracle = OracleSection(pixel_sigma=2.0, depth_sigma=0.0, size_sigma=0.0,
                               yaw_sigma=0.0, vel_sigma=0.0, miss_rate=0.0, fp_rate=0.0)
        total = 0
        within = 0
        scene_idx = 0
        while total < 1000:
            scene = generate_scene(model, sim, scene_idx)
            scene_idx += 1
            rng = np.random.default_rng(scene_idx)
            props = perspective_oracle(scene.gt_boxes, scene.rig, oracle, rng,
                                       model.detection_range())
            boxes = lift_proposals(props, scene.rig)
            for p, b in zip(props, boxes):
                view = scene.rig.views[p.view]
                proj = min(
                    (
                        (np.hypot(p.cx - q[0], p.cy - q[1]), g)
                        for g, q in (
                            (g, project_to_view(g.center, view))
                            for g in scene.gt_boxes
                        )
                        if q is not None
                    ),
                    key=lambda x: x[0],
                )[1]
                depth = project_to_view(proj.center, view)[2]
                # 3 sigma in each pixel axis maps to ~3*sigma*sqrt(2)*d/f meters
                bound = 3.0 * 2.0 * math.sqrt(2.0) * depth / view.intrinsics[0, 0]
                total += 1
                if np.linalg.norm(b.center - proj.center) <= bound:
                    within += 1
        assert within / total >= 0.99


class TestLiftProposals:
    def test_principal_point_identity(self):
        scene, model, sim = _scene()
        view = scene.rig.views[0]
        W, H = view.image_size
        p = PerspectiveProposal(view=0, cx=W / 2, cy=H / 2, depth=10.0,
                                size=np.array([4.0, 2.0, 1.5]), yaw=0.3)
        (box,) = lift_proposals([p], scene.rig)
        want = unproject_center(W / 2, H / 2, 10.0, view)
        np.testing.assert_allclose(box.center, want, atol=1e-12)

    def test_noiseless_equals_gt(self):
        scene, model, sim = _scene()
        props = perspective_oracle(scene.gt_boxes, scene.rig, _noiseless(),
                                   np.random.default_rng(0), model.detection_range())
        boxes = lift_proposals(props, scene.rig)
        for b in boxes:
            err = min(np.linalg.norm(b.center - g.center) for g in scene.gt_boxes)
            assert err < 1e-9

    def test_depth_doubling_moves_along_ray(self):
        scene, model, sim = _scene()
        view = scene.rig.views[0]
        cam_center = np.linalg.inv(view.extrinsics)[:3, 3]
        p1 = PerspectiveProposal(view=0, cx=70.0, cy=100.0, depth=5.0,
                                 size=np.ones(3), yaw=0.0)
        p2 = PerspectiveProposal(view=0, cx=70.0, cy=100.0, depth=10.0,
                                 size=np.ones(3), yaw=0.0)
        b1, b2 = lift_proposals([p1, p2], scene.rig)
        np.testing.assert_allclose(
            b2.center - cam_center, 2.0 * (b1.center - cam_center), atol=1e-9
        )

    def test_missing_view_errors(self):
        scene, model, sim = _scene()
        p = PerspectiveProposal(view=99, cx=1.0, cy=1.0, depth=1.0,
                                size=np.ones(3), yaw=0.0)
        with pytest.raises(ValueError):
            lift_proposals([p], scene.rig)


class TestSelectTopk:
    def test_duplicate_across_views_suppressed(self):
        model = _model()
        b1 = Box3D([5.0, 0.0, 0.5], [4.0, 2.0, 1.5], 0.0, score=0.9)
        b2 = Box3D([5.05, 0.0, 0.5], [4.0, 2.0, 1.5], 0.0, score=0.8)
        kept = select_topk([b1, b2], model)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_top_k_by_score(self):
        model = _model(num_queries=13, num_top=3, num_random=10)
        boxes = [
            Box3D([x * 20.0 - 50, 0.0, 0.5], [2.0, 2.0, 1.5], 0.0, score=s)
            for x, s in enumerate([0.1, 0.9, 0.5, 0.7, 0.3])
        ]
        kept = select_topk(boxes, model)
        assert [b.score for b in kept] == [0.9, 0.7, 0.5]

    def test_short_list_passes_through(self):
        model = _model()
        boxes = [Box3D([0.0, 5.0, 0.5], [2, 2, 2], 0.0, score=0.5)]
        assert len(select_topk(boxes, model)) == 1


class TestRandomQueries:
    def test_zero_count(self):
        model = _model()
        assert random_queries(0, model.detection_range(), np.random.default_rng(0)) == []

    def test_seeded_determinism(self):
        model = _model()
        a = random_queries(20, model.detection_range(), np.random.default_rng(3))
        b = random_queries(20, model.detection_range(), np.random.default_rng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.center, y.center)
            assert x.yaw == y.yaw

    def test_uniform_centers_ks(self):
        model = _model()
        det = model.detection_range()
        boxes = random_queries(10_000, det, np.random.default_rng(5))
        xs = np.array([b.center[0] for b in boxes])
        ys = np.array([b.center[1] for b in boxes])
        zs = np.array([b.center[2] for b in boxes])
        for vals, lo, hi in ((xs, det.x_min, det.x_max), (ys, det.y_min, det.y_max),
                             (zs, det.z_min, det.z_max)):
            p = stats.kstest((vals - lo) / (hi - lo), "uniform").pvalue
            assert p > 0.01

    def test_zero_velocity_and_valid_boxes(self):
        model = _model()
        for b in random_queries(50, model.detection_range(), np.random.default_rng(7)):
            np.testing.assert_array_equal(b.velocity, [0.0, 0.0])
            assert model.detection_range().contains(b.center)


class TestGenerateQueries:
    def test_short_survivor_list_pads_with_random_queries(self):
        # a single surviving proposal is padded to N_k (and then N_q) with
        # random queries carrying zero score and the learned embedding
        scene, model, sim = _scene()
        emb = T.Tensor(np.full(model.channels, 3.0))
        one_gt = [scene.gt_boxes[0]]
        batch = generate_queries(one_gt, scene.rig, scene.feature_set(model),
                                 model, _noiseless(), emb, np.random.default_rng(0))
        assert batch.count == model.num_queries
        from fusiondet.queries import state_to_boxes
        # visible GT produces >= 1 real proposal; everything else is padding
        n_real = sum(
            1 for b in state_to_boxes(batch.box_state.data)
            if min(np.linalg.norm(b.center - g.center) for g in one_gt) < 1e-6
        )
        assert 1 <= n_real <= len(scene.rig.views)

    def test_always_n_q_queries(self):
        scene, model, sim = _scene()
        emb = T.Tensor(np.zeros(model.channels), requires_grad=True)
        for oracle in (_noiseless(), OracleSection(miss_rate=1.0, fp_rate=0.0),
                       OracleSection(pixel_sigma=5.0, fp_rate=3.0)):
            batch = generate_queries(scene.gt_boxes, scene.rig,
                                     scene.feature_set(model), model, oracle,
                                     emb, np.random.default_rng(0))
            assert batch.count == model.num_queries

    def test_feature_init_constant_map(self):
        # box seen by exactly one view over constant maps -> that constant
        scene, model, sim = _scene()
        const_val = 1.25
        feats = scene.feature_set(model)
        feats.values.data[:] = const_val
        emb = T.Tensor(np.zeros(model.channels))
        boxes = [Box3D([10.0, 0.0, 0.5], [4, 2, 1.5], 0.0, score=1.0)]
        rows = init_queries(boxes, feats, scene.rig, emb, model.detection_range())
        feat = rows[0][0].data if isinstance(rows[0][0], T.Tensor) else rows[0][0]
        # M scales sum: M * const
        np.testing.assert_allclose(feat, model.num_cam_scales * const_val, atol=1e-9)

    def test_out_of_frustum_gets_default_embedding(self):
        scene, model, sim = _scene()
        emb = T.Tensor(np.full(model.channels, 7.0))
        boxes = [Box3D([0.0, 0.0, 2.9], [1, 1, 1], 0.0, score=1.0)]  # above frusta
        rows = init_queries(boxes, scene.feature_set(model), scene.rig, emb,
                            model.detection_range())
        assert rows[0][0] is emb

    def test_permutation_equivariance(self):
        scene, model, sim = _scene()
        emb = T.Tensor(np.zeros(model.channels))
        boxes = [
            Box3D([10.0, 2.0, 0.5], [4, 2, 1.5], 0.0, score=0.9),
            Box3D([-8.0, 5.0, 0.5], [2, 2, 1.5], 1.0, score=0.8),
            Box3D([3.0, -9.0, 0.5], [1, 1, 1.5], -1.0, score=0.7),
        ]
        fwd = init_queries(boxes, scene.feature_set(model), scene.rig, emb,
                           model.detection_range())
        rev = init_queries(boxes[::-1], scene.feature_set(model), scene.rig, emb,
                           model.detection_range())
        for (fa, ba), (fb, bb) in zip(fwd, rev[::-1]):
            np.testing.assert_allclose(np.asarray(fa.data), np.asarray(fb.data))
            assert ba.score == bb.score


# ---------------------------------------------------------------------------
# the batched query-feature read gives the per-box loop's numbers bit for bit
# ---------------------------------------------------------------------------


def per_box_init_queries(boxes, cam_feats, rig, default_embedding, det_range):
    """The query init as one bilinear read per (box, hit view, scale): views
    averaged and scales summed box by box, in view then scale order."""
    out = []
    for box in boxes:
        box = paqg._clamp_to_range(box, det_range)
        hit = hit_views(box.center, rig, 0)
        if not hit:
            out.append((default_embedding, box))
            continue
        p = align_temporal(box.center, rig, 0)
        acc = None
        for v in hit:
            u, w, _ = project_to_view(p, rig.views[v])
            for m in range(cam_feats.num_scales):
                stride = cam_feats.strides[m]
                s = T.bilinear_sample(packed_map(cam_feats, cam_feats.index(v, m, 0)),
                                      np.array([u / stride, w / stride]))
                acc = s if acc is None else T.add(acc, s)
        out.append((T.mul(acc, 1.0 / len(hit)), box))
    return out


class TestBatchedQueryFeatures:
    def _generate(self, scene, cfg, oracle, emb, seed):
        return generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                                cfg.model, oracle, emb, np.random.default_rng(seed))

    def _features_state_and_grad(self, scene, cfg, oracle, seed):
        emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
        batch = self._generate(scene, cfg, oracle, emb, seed)
        batch.features.backward(np.random.default_rng(seed).normal(size=batch.features.shape))
        return batch.features.data, batch.box_state.data, emb.grad

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_matches_per_box_reads(self, precision, monkeypatch):
        cfg = RunConfig()
        cfg.model.precision = precision
        oracle = OracleSection(pixel_sigma=4.0, fp_rate=2.0)
        read_rows = 0
        for scene_id in range(6):
            scene = generate_scene(cfg.model, cfg.sim, scene_id)
            got = self._features_state_and_grad(scene, cfg, oracle, scene_id)
            with monkeypatch.context() as m:
                m.setattr(paqg, "init_queries", per_box_init_queries)
                want = self._features_state_and_grad(scene, cfg, oracle, scene_id)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            # the last row is a random query, which carries the default embedding
            read_rows += int(np.sum(np.any(got[0] != got[0][-1], axis=1)))
        assert read_rows > 0

    def test_one_packed_read_per_batch(self, monkeypatch):
        cfg = RunConfig()
        scene = generate_scene(cfg.model, cfg.sim, 0)
        emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
        calls = []
        packed = T.bilinear_sample_packed
        monkeypatch.setattr(T, "bilinear_sample_packed",
                            lambda *a: calls.append(a) or packed(*a))
        monkeypatch.setattr(T, "bilinear_sample", None)  # the one-grid reads are gone
        self._generate(scene, cfg, cfg.sim.oracle, emb, 0)
        assert len(calls) == 1
        # no proposal, so no read; the batch is the float32 default embedding
        batch = self._generate(scene, cfg, OracleSection(miss_rate=1.0, fp_rate=0.0), emb, 0)
        assert len(calls) == 1
        assert batch.features.dtype == np.float32
        assert np.array_equal(batch.features.data,
                              np.tile(emb.data, (cfg.model.num_queries, 1)))

    def test_all_miss_boxes_keep_the_default_embedding(self):
        cfg = RunConfig()
        scene = generate_scene(cfg.model, cfg.sim, 0)
        emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
        det = cfg.model.detection_range()
        boxes = [Box3D([x, 0.0, 2.9], [1, 1, 1], 0.0, score=1.0) for x in (0.0, 0.5)]
        for init in (init_queries, per_box_init_queries):
            rows = init(boxes, scene.feature_set(cfg.model), scene.rig, emb, det)
            assert [f is emb for f, _ in rows] == [True, True]
        features = T.concat([T.reshape(f, (1, cfg.model.channels)) for f, _ in rows])
        assert features.dtype == np.float32
