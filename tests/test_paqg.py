"""Query generation: oracle proposals, lifting, top-k selection, random fill,
and the whole pipeline against its one-proposal-at-a-time reference."""

import math

import numpy as np
import pytest
from scipy import stats

import paqg_reference as ref
from fusiondet import paqg
from fusiondet import tensor as T
from fusiondet.classes import CLASS_MIX, NUM_CLASSES, draw_class
from fusiondet.config import ModelSection, OracleSection, RunConfig, SimSection
from fusiondet.geometry import Box3D, BoxArray, project_to_view, unproject_center
from fusiondet.params import init_model_params
from fusiondet.paqg import (
    Proposals,
    generate_queries,
    init_queries,
    lift_proposals,
    perspective_oracle,
    random_queries,
    select_topk,
)
from fusiondet.scenesim import generate_scene


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


def _proposals(*rows) -> Proposals:
    """Proposals from (view, cx, cy, depth) rows with unit sizes and yaw 0."""
    view, cx, cy, depth = (np.array(c) for c in zip(*rows))
    n = len(rows)
    return Proposals(view=view.astype(np.int64), uv=np.stack([cx, cy], axis=1),
                     depth=depth.astype(float), size=np.ones((n, 3)), yaw=np.zeros(n),
                     velocity=np.zeros((n, 2)), score=np.ones(n),
                     class_id=np.zeros(n, dtype=np.int64))


class TestPerspectiveOracle:
    def test_noiseless_projects_onto_gt(self):
        scene, model, sim = _scene()
        props = perspective_oracle(scene.gt_boxes, scene.rig, _noiseless(),
                                   np.random.default_rng(0), model.detection_range())
        assert len(props) > 0
        for v, (cx, cy), score in zip(props.view, props.uv, props.score):
            # every proposal must sit exactly on some GT projection
            best = min(
                np.hypot(cx - q[0], cy - q[1])
                for q in (project_to_view(b.center, scene.rig.views[v]) for b in scene.gt_boxes)
                if q is not None
            )
            assert best < 1e-9
            assert score == 1.0

    def test_full_miss_rate_leaves_only_false_positives(self):
        scene, model, sim = _scene()
        oracle = OracleSection(miss_rate=1.0, fp_rate=0.0)
        props = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                                   np.random.default_rng(0), model.detection_range())
        assert len(props) == 0
        oracle = OracleSection(miss_rate=1.0, fp_rate=2.0)
        props = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                                   np.random.default_rng(0), model.detection_range())
        assert len(props) > 0 and np.all(props.score <= 0.3)

    def test_seeded_runs_are_deterministic(self):
        scene, model, sim = _scene()
        oracle = OracleSection(pixel_sigma=2.0)
        a = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                               np.random.default_rng(42), model.detection_range())
        b = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                               np.random.default_rng(42), model.detection_range())
        assert len(a) == len(b)
        assert np.array_equal(a.uv, b.uv) and np.array_equal(a.depth, b.depth)

    def test_proposals_come_in_view_order(self):
        scene, model, sim = _scene()
        props = perspective_oracle(scene.gt_boxes, scene.rig, OracleSection(fp_rate=3.0),
                                   np.random.default_rng(1), model.detection_range())
        assert np.all(np.diff(props.view) >= 0)

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
            for v, (cx, cy), center in zip(props.view, props.uv, boxes.center):
                view = scene.rig.views[v]
                proj = min(
                    (
                        (np.hypot(cx - q[0], cy - q[1]), g)
                        for g, q in ((g, project_to_view(g.center, view))
                                     for g in scene.gt_boxes)
                        if q is not None
                    ),
                    key=lambda x: x[0],
                )[1]
                depth = project_to_view(proj.center, view)[2]
                # 3 sigma in each pixel axis maps to ~3*sigma*sqrt(2)*d/f meters
                bound = 3.0 * 2.0 * math.sqrt(2.0) * depth / view.intrinsics[0, 0]
                total += 1
                if np.linalg.norm(center - proj.center) <= bound:
                    within += 1
        assert within / total >= 0.99


class TestLiftProposals:
    def test_principal_point_identity(self):
        scene, model, sim = _scene()
        view = scene.rig.views[0]
        W, H = view.image_size
        boxes = lift_proposals(_proposals((0, W / 2, H / 2, 10.0)), scene.rig)
        want = unproject_center(W / 2, H / 2, 10.0, view)
        np.testing.assert_allclose(boxes.center[0], want, atol=1e-12)

    def test_noiseless_equals_gt(self):
        scene, model, sim = _scene()
        props = perspective_oracle(scene.gt_boxes, scene.rig, _noiseless(),
                                   np.random.default_rng(0), model.detection_range())
        for center in lift_proposals(props, scene.rig).center:
            err = min(np.linalg.norm(center - g.center) for g in scene.gt_boxes)
            assert err < 1e-9

    def test_depth_doubling_moves_along_ray(self):
        scene, model, sim = _scene()
        view = scene.rig.views[0]
        cam_center = np.linalg.inv(view.extrinsics)[:3, 3]
        c1, c2 = lift_proposals(_proposals((0, 70.0, 100.0, 5.0), (0, 70.0, 100.0, 10.0)),
                                scene.rig).center
        np.testing.assert_allclose(c2 - cam_center, 2.0 * (c1 - cam_center), atol=1e-9)

    def test_missing_view_errors(self):
        scene, model, sim = _scene()
        with pytest.raises(ValueError):
            lift_proposals(_proposals((99, 1.0, 1.0, 1.0)), scene.rig)

    def test_invalid_proposals_rejected(self):
        with pytest.raises(ValueError):
            _proposals((0, 1.0, 1.0, 0.0))
        props = _proposals((0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Proposals(props.view, props.uv, props.depth, props.size, props.yaw,
                      props.velocity, np.array([1.5]), props.class_id)
        with pytest.raises(ValueError):
            Proposals(props.view, props.uv, props.depth, np.zeros((1, 3)), props.yaw,
                      props.velocity, props.score, props.class_id)


class TestSelectTopk:
    def test_duplicate_across_views_suppressed(self):
        model = _model()
        b1 = Box3D([5.0, 0.0, 0.5], [4.0, 2.0, 1.5], 0.0, score=0.9)
        b2 = Box3D([5.05, 0.0, 0.5], [4.0, 2.0, 1.5], 0.0, score=0.8)
        kept = select_topk(BoxArray.stack([b1, b2]), model)
        assert len(kept) == 1 and kept.score[0] == 0.9

    def test_top_k_by_score(self):
        model = _model(num_queries=13, num_top=3, num_random=10)
        boxes = [
            Box3D([x * 20.0 - 50, 0.0, 0.5], [2.0, 2.0, 1.5], 0.0, score=s)
            for x, s in enumerate([0.1, 0.9, 0.5, 0.7, 0.3])
        ]
        kept = select_topk(BoxArray.stack(boxes), model)
        assert kept.score.tolist() == [0.9, 0.7, 0.5]

    def test_short_list_passes_through(self):
        model = _model()
        boxes = BoxArray.stack([Box3D([0.0, 5.0, 0.5], [2, 2, 2], 0.0, score=0.5)])
        assert len(select_topk(boxes, model)) == 1


class TestRandomQueries:
    def test_zero_count(self):
        model = _model()
        assert len(random_queries(0, model.detection_range(), np.random.default_rng(0))) == 0

    def test_seeded_determinism(self):
        model = _model()
        a = random_queries(20, model.detection_range(), np.random.default_rng(3))
        b = random_queries(20, model.detection_range(), np.random.default_rng(3))
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(a.yaw, b.yaw)

    def test_uniform_centers_ks(self):
        model = _model()
        det = model.detection_range()
        boxes = random_queries(10_000, det, np.random.default_rng(5))
        for vals, lo, hi in zip(boxes.center.T, (det.x_min, det.y_min, det.z_min),
                                (det.x_max, det.y_max, det.z_max)):
            p = stats.kstest((vals - lo) / (hi - lo), "uniform").pvalue
            assert p > 0.01

    def test_zero_velocity_and_valid_boxes(self):
        model = _model()
        boxes = random_queries(50, model.detection_range(), np.random.default_rng(7))
        np.testing.assert_array_equal(boxes.velocity, np.zeros((50, 2)))
        det = model.detection_range()
        lo = [det.x_min, det.y_min, det.z_min]
        hi = [det.x_max, det.y_max, det.z_max]
        assert np.all((boxes.center >= lo) & (boxes.center <= hi))
        assert np.all((-math.pi < boxes.yaw) & (boxes.yaw <= math.pi))


class TestDrawClass:
    def test_matches_rng_choice_and_stream_position(self):
        # the helper against the call it replaces, draw for draw, with the
        # other draws query generation and scene placement make in between
        ours, theirs = np.random.default_rng(2024), np.random.default_rng(2024)
        for i in range(100_000):
            assert draw_class(ours) == int(theirs.choice(NUM_CLASSES, p=CLASS_MIX)), i
            if i % 3 == 0:
                assert ours.normal(0.0, 0.08, size=3).tobytes() == \
                    theirs.normal(0.0, 0.08, size=3).tobytes()
            if i % 5 == 0:
                assert ours.uniform(-24.0, 24.0) == theirs.uniform(-24.0, 24.0)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestGenerateQueries:
    def test_short_survivor_list_pads_with_random_queries(self):
        # a single surviving proposal is padded to N_k (and then N_q) with
        # random queries carrying zero score and the learned embedding
        scene, model, sim = _scene()
        emb = T.Tensor(np.full(model.channels, 3.0))
        one_gt = scene.gt_boxes.take([0])
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
        boxes = BoxArray.stack([Box3D([10.0, 0.0, 0.5], [4, 2, 1.5], 0.0, score=1.0)])
        rows, seen, _ = init_queries(boxes, feats, scene.rig, model.detection_range())
        assert seen.tolist() == [True]
        # M scales sum: M * const
        np.testing.assert_allclose(rows.data[0], model.num_cam_scales * const_val, atol=1e-9)

    def test_out_of_frustum_gets_default_embedding(self, monkeypatch):
        scene, model, sim = _scene()
        emb = T.Tensor(np.full(model.channels, 7.0))
        boxes = BoxArray.stack([Box3D([10.0, 0.0, 0.5], [4, 2, 1.5], 0.0, score=1.0),
                                Box3D([0.0, 0.0, 2.9], [1, 1, 1], 0.0, score=1.0)])
        rows, seen, _ = init_queries(boxes, scene.feature_set(model), scene.rig,
                                     model.detection_range())
        assert seen.tolist() == [True, False]
        assert not np.any(rows.data[1])
        # the unseen box's query carries the embedding, the seen box's its read
        monkeypatch.setattr(paqg, "select_topk", lambda boxes_in, cfg: boxes)
        batch = generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(model), model,
                                 _noiseless(), emb, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.features.data[0], rows.data[0])
        np.testing.assert_array_equal(batch.features.data[1:], 7.0)

    def test_permutation_equivariance(self):
        scene, model, sim = _scene()
        boxes = BoxArray.stack([
            Box3D([10.0, 2.0, 0.5], [4, 2, 1.5], 0.0, score=0.9),
            Box3D([-8.0, 5.0, 0.5], [2, 2, 1.5], 1.0, score=0.8),
            Box3D([3.0, -9.0, 0.5], [1, 1, 1.5], -1.0, score=0.7),
        ])
        fwd, fwd_seen, fwd_boxes = init_queries(boxes, scene.feature_set(model), scene.rig,
                                                model.detection_range())
        rev, rev_seen, rev_boxes = init_queries(boxes.take(np.arange(3)[::-1]),
                                                scene.feature_set(model), scene.rig,
                                                model.detection_range())
        np.testing.assert_array_equal(fwd_seen, rev_seen[::-1])
        np.testing.assert_allclose(fwd.data, rev.data[::-1])
        np.testing.assert_array_equal(fwd_boxes.score, rev_boxes.score[::-1])

    def test_op_count_does_not_grow_with_the_query_budget(self, monkeypatch):
        # the batch is one gather, not one op per query
        ops = []
        make = T._make
        monkeypatch.setattr(T, "_make", lambda *a: ops.append(a[1]) or make(*a))
        counts = []
        for num_queries, num_top in ((60, 20), (240, 80)):
            cfg = RunConfig()
            cfg.model.num_queries, cfg.model.num_top = num_queries, num_top
            cfg.model.num_random = num_queries - num_top
            scene = generate_scene(cfg.model, cfg.sim, 0)
            emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
            ops.clear()
            generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                             cfg.model, cfg.sim.oracle, emb, np.random.default_rng(0))
            assert "bilinear_sample" in ops  # some box was read
            counts.append(len(ops))
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# the array pipeline gives the per-proposal, per-box reference's numbers and
# leaves the generator where the reference leaves it, bit for bit
# ---------------------------------------------------------------------------


def _run(generate, scene, cfg, oracle, gt_boxes, seed):
    emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
    rng = np.random.default_rng(seed)
    batch = generate(gt_boxes, scene.rig, scene.feature_set(cfg.model), cfg.model, oracle,
                     emb, rng)
    # through a float64 op, as in training, so the gradient reaches float32
    # features (nothing read) in float64
    out = T.mul(T.Tensor(np.ones(batch.features.shape)), batch.features)
    out.backward(np.random.default_rng(seed).normal(size=out.shape))
    return batch.features.data, batch.box_state.data, emb.grad, rng.bit_generator.state


def _same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike ``array_equal``, a sign-of-zero
    change shows. Two ``None`` (no gradient) are the same."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert _same_bytes(a, b)
    assert got[3] == want[3]


ORACLES = {
    "desk": OracleSection(),
    "fp_rate=2": OracleSection(fp_rate=2.0),
    "miss_rate=1": OracleSection(miss_rate=1.0),
    "no GT": OracleSection(),
}


class TestMatchesReference:
    @pytest.mark.parametrize("oracle", list(ORACLES))
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_generate_queries_bit_for_bit(self, precision, oracle):
        cfg = RunConfig()
        cfg.model.precision = precision
        for scene_id in range(6):
            scene = generate_scene(cfg.model, cfg.sim, scene_id)
            gt_boxes = BoxArray.stack([]) if oracle == "no GT" else scene.gt_boxes
            args = (scene, cfg, ORACLES[oracle], gt_boxes, scene_id)
            _assert_same(_run(generate_queries, *args), _run(ref.generate_queries, *args))

    def test_dense_scenes_bit_for_bit(self):
        # many overlapping proposals, so NMS suppresses and the top-k cut bites
        cfg = RunConfig()
        for key, value in {"num_queries": 240, "num_top": 80, "num_random": 160}.items():
            setattr(cfg.model, key, value)
        cfg.sim.min_objects, cfg.sim.max_objects = 20, 24
        oracle = OracleSection(pixel_sigma=6.0, fp_rate=4.0)
        suppressed = 0
        for scene_id in range(3):
            scene = generate_scene(cfg.model, cfg.sim, scene_id)
            args = (scene, cfg, oracle, scene.gt_boxes, scene_id)
            _assert_same(_run(generate_queries, *args), _run(ref.generate_queries, *args))
            props = perspective_oracle(scene.gt_boxes, scene.rig, oracle,
                                       np.random.default_rng(scene_id),
                                       cfg.model.detection_range())
            boxes = lift_proposals(props, scene.rig)
            suppressed += len(boxes) - len(paqg.nms_3d(boxes, cfg.model.nms_iou))
        assert suppressed > 0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_no_random_queries_bit_for_bit(self, precision):
        # every query a seen top-k box: no query reads the default embedding,
        # which must then get no gradient at all, as in the reference
        cfg = RunConfig()
        cfg.model.precision = precision
        cfg.model.num_queries, cfg.model.num_top, cfg.model.num_random = 4, 4, 0
        untouched = 0
        for scene_id in range(6):
            scene = generate_scene(cfg.model, cfg.sim, scene_id)
            args = (scene, cfg, OracleSection(), scene.gt_boxes, scene_id)
            want = _run(ref.generate_queries, *args)
            _assert_same(_run(generate_queries, *args), want)
            untouched += want[2] is None
        assert untouched > 0


# ---------------------------------------------------------------------------
# the batched query-feature read gives the per-box loop's numbers bit for bit
# ---------------------------------------------------------------------------


def per_box_init_queries(boxes, cam_feats, rig, det_range):
    """``init_queries`` through the reference's per-(box, hit view, scale) reads,
    with a zero row for each unseen box."""
    as_box3d = [Box3D(boxes.center[i], boxes.size[i], boxes.yaw[i], boxes.velocity[i],
                      boxes.class_id[i], boxes.score[i]) for i in range(len(boxes))]
    read = ref.init_queries(as_box3d, cam_feats, rig, None, det_range)
    seen = np.array([f is not None for f, _ in read], dtype=bool)
    boxes = BoxArray.stack([b for _, b in read])
    if not seen.any():  # zero rows at the buffer's dtype
        return T.Tensor(np.zeros((len(boxes), cam_feats.channels), cam_feats.values.dtype)), \
            seen, boxes
    dtype = next(f.dtype for f, _ in read if f is not None)
    zero = T.Tensor(np.zeros(cam_feats.channels, dtype=dtype))
    rows = T.concat([T.reshape(zero if f is None else f, (1, cam_feats.channels))
                     for f, _ in read])
    return rows, seen, boxes


class TestBatchedQueryFeatures:
    def _generate(self, scene, cfg, oracle, emb, seed):
        return generate_queries(scene.gt_boxes, scene.rig, scene.feature_set(cfg.model),
                                cfg.model, oracle, emb, np.random.default_rng(seed))

    def _features_state_and_grad(self, scene, cfg, oracle, seed):
        emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
        batch = self._generate(scene, cfg, oracle, emb, seed)
        # seeded through a float64 op, as the loss seeds training: a seed
        # passed to backward would be cast to the features' dtype
        w = np.random.default_rng(seed).normal(size=batch.features.shape)
        T.sum_(T.mul(batch.features, T.Tensor(w, dtype=np.float64))).backward()
        return batch.features.data, batch.box_state.data, emb.grad

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_matches_per_box_reads(self, precision, monkeypatch):
        cfg = RunConfig()
        cfg.model.precision = precision
        noisy = OracleSection(pixel_sigma=4.0, fp_rate=2.0)
        all_miss = OracleSection(miss_rate=1.0, fp_rate=0.0)  # no box, so no read
        read_rows = 0
        for scene_id, oracle in [(i, noisy) for i in range(6)] + [(0, all_miss)]:
            scene = generate_scene(cfg.model, cfg.sim, scene_id)
            got = self._features_state_and_grad(scene, cfg, oracle, scene_id)
            with monkeypatch.context() as m:
                m.setattr(paqg, "init_queries", per_box_init_queries)
                want = self._features_state_and_grad(scene, cfg, oracle, scene_id)
            for a, b in zip(got, want):
                assert _same_bytes(a, b)
            # the float64 gradient reaches the embedding as it is, read or not
            assert got[2].dtype == np.float64
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

    def test_all_miss_boxes_keep_the_default_embedding(self, monkeypatch):
        cfg = RunConfig()
        scene = generate_scene(cfg.model, cfg.sim, 0)
        emb = init_model_params(cfg.model, seed=0)["query.default_embedding"]
        det = cfg.model.detection_range()
        boxes = BoxArray.stack([Box3D([x, 0.0, 2.9], [1, 1, 1], 0.0, score=1.0)
                                for x in (0.0, 0.5)])
        monkeypatch.setattr(paqg, "select_topk", lambda boxes_in, cfg: boxes)
        for init in (init_queries, per_box_init_queries):
            rows, seen, _ = init(boxes, scene.feature_set(cfg.model), scene.rig, det)
            assert seen.tolist() == [False, False]
            assert rows.dtype == np.float32 and rows.shape == (2, cfg.model.channels)
            assert not np.any(rows.data)
            monkeypatch.setattr(paqg, "init_queries", init)
            batch = self._generate(scene, cfg, _noiseless(), emb, 0)
            # nothing read, so the batch is the float32 default embedding
            assert batch.features.dtype == np.float32
            assert np.array_equal(batch.features.data,
                                  np.tile(emb.data, (cfg.model.num_queries, 1)))
