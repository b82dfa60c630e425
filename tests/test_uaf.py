"""Uncertainty mapping, pooling and weighted fusion."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusiondet import tensor as T
from fusiondet import uaf


def _roi(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64))


def _dist_head(rng, C, out_dim=1, scale=0.5):
    return SimpleNamespace(
        w1=T.Tensor(rng.normal(0, scale, size=(C, C)), dtype=np.float64),
        b1=T.Tensor(np.zeros(C), dtype=np.float64),
        w2=T.Tensor(rng.normal(0, scale, size=(C, out_dim)), dtype=np.float64),
        b2=T.Tensor(np.zeros(out_dim), dtype=np.float64),
    )


def _fuse_head(rng, C, scale=0.4):
    return SimpleNamespace(
        w1=T.Tensor(rng.normal(0, scale, size=(2 * C, 2 * C)), dtype=np.float64),
        b1=T.Tensor(np.zeros(2 * C), dtype=np.float64),
        w2=T.Tensor(rng.normal(0, scale, size=(2 * C, C)), dtype=np.float64),
        b2=T.Tensor(np.zeros(C), dtype=np.float64),
    )


class TestPoolRoi:
    def test_single_row(self):
        a = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(uaf.pool_roi(_roi(a[None])).data, a)

    def test_opposite_rows_cancel(self):
        rows = np.array([[[1.0, 2.0], [-1.0, -2.0]]])
        np.testing.assert_allclose(uaf.pool_roi(_roi(rows)).data, [[0.0, 0.0]])

    def test_random_matches_numpy_mean(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(
            uaf.pool_roi(_roi(arr)).data, arr.mean(axis=1), atol=1e-12
        )


class TestUncertaintyFromDistance:
    def test_zero(self):
        assert uaf.uncertainty_from_distance(0.0) == 0.0

    def test_ln2(self):
        assert uaf.uncertainty_from_distance(math.log(2.0)) == pytest.approx(0.5)

    def test_d10(self):
        assert uaf.uncertainty_from_distance(10.0) == pytest.approx(1 - math.exp(-10), abs=1e-12)

    def test_negative_errors(self):
        with pytest.raises(ValueError):
            uaf.uncertainty_from_distance(-0.1)
        with pytest.raises(ValueError):
            uaf.uncertainty_from_distance(T.Tensor([-1.0]))

    def test_strictly_monotone_into_unit_interval(self):
        # strictness holds wherever exp(-d) stays representable
        d = np.linspace(0, 30, 400)
        u = uaf.uncertainty_from_distance(d)
        assert u[0] == 0.0
        assert np.all(np.diff(u) > 0)
        assert np.all((u >= 0) & (u < 1))
        assert uaf.uncertainty_from_distance(1e6) < 1.0


class TestPredictUncertainty:
    def test_zero_distance_head(self):
        rng = np.random.default_rng(1)
        C = 4
        p = _dist_head(rng, C)
        p.w1.data *= 0.0
        p.w2.data *= 0.0
        p.b2.data = np.array([-40.0])  # softplus(-40) ~ 0
        u = uaf.predict_uncertainty(_roi(rng.normal(size=(2, 3, C))), p)
        np.testing.assert_allclose(u.data, 0.0, atol=1e-12)

    def test_ln4_head(self):
        rng = np.random.default_rng(2)
        C = 4
        p = _dist_head(rng, C)
        p.w1.data *= 0.0
        p.w2.data *= 0.0
        # softplus(b2) = ln 4  =>  b2 = ln(e^{ln4} - 1) = ln 3
        p.b2.data = np.array([math.log(3.0)])
        u = uaf.predict_uncertainty(_roi(rng.normal(size=(1, 2, C))), p)
        np.testing.assert_allclose(u.data, 0.75, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        C = 4
        p = _dist_head(rng, C)
        roi_arr = T.Tensor(rng.normal(size=(2, 3, C)), dtype=np.float64)

        def fn(ins):
            dp = SimpleNamespace(w1=ins[1], b1=ins[2], w2=ins[3], b2=ins[4])
            return uaf.predict_uncertainty(ins[0], dp)

        rep = T.grad_check(fn, [roi_arr, p.w1, p.b1, p.w2, p.b2])
        assert rep.passed

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        C = 6
        p = _dist_head(rng, C, scale=2.0)
        u = uaf.predict_uncertainty(_roi(rng.normal(size=(50, 4, C)) * 5), p)
        assert np.all((u.data >= 0) & (u.data < 1))


class TestFuse:
    def test_zero_uncertainty_is_unweighted_concat(self):
        rng = np.random.default_rng(8)
        C = 5
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(3, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(3, C)), dtype=np.float64)
        got = uaf.fuse(fc, 0.0, fl, 0.0, fp).data
        cat = T.concat([fc, fl], axis=1)
        want = T.linear(T.relu(T.linear(cat, fp.w1, fp.b1)), fp.w2, fp.b2).data
        np.testing.assert_allclose(got, want, atol=0)

    def test_half_uncertainty_scales_one_side(self):
        rng = np.random.default_rng(9)
        C = 4
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        got = uaf.fuse(fc, 0.0, fl, 0.5, fp).data
        halved = T.Tensor(fl.data * 0.5)
        want = uaf.fuse(fc, 0.0, halved, 0.0, fp).data
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        C = 4
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        u_c = T.Tensor(rng.uniform(0.1, 0.8, size=(2,)), dtype=np.float64)
        u_l = T.Tensor(rng.uniform(0.1, 0.8, size=(2,)), dtype=np.float64)

        def fn(ins):
            return uaf.fuse(ins[0], ins[1], ins[2], ins[3],
                            SimpleNamespace(w1=ins[4], b1=ins[5], w2=ins[6], b2=ins[7]))

        rep = T.grad_check(fn, [fc, u_c, fl, u_l, fp.w1, fp.b1, fp.w2, fp.b2])
        assert rep.passed

    def test_sensitivity_vanishes_as_u_approaches_one(self):
        # output difference across camera inputs is bounded by
        # Lipschitz * (1 - u_cam) * |delta f_cam|
        rng = np.random.default_rng(11)
        C = 6
        fp = _fuse_head(rng, C)
        fl = T.Tensor(rng.normal(size=(1, C)), dtype=np.float64)
        f1 = T.Tensor(rng.normal(size=(1, C)), dtype=np.float64)
        f2 = T.Tensor(rng.normal(size=(1, C)), dtype=np.float64)
        diffs = []
        for u in (0.9, 0.99, 0.999):
            a = uaf.fuse(f1, u, fl, 0.2, fp).data
            b = uaf.fuse(f2, u, fl, 0.2, fp).data
            diffs.append(np.linalg.norm(a - b))
        assert diffs[0] > diffs[1] > diffs[2]
        # ~10x decay per step of (1 - u)
        assert diffs[1] / diffs[0] == pytest.approx(0.1, rel=0.5)
        assert diffs[2] / diffs[1] == pytest.approx(0.1, rel=0.5)

    def test_sensitivity_linear_in_weight(self):
        # sup over unit perturbations scales linearly in (1 - u_cam):
        # regression of diff against (1 - u) must fit with R^2 > 0.99
        rng = np.random.default_rng(12)
        C = 6
        fp = _fuse_head(rng, C)
        fl = T.Tensor(rng.normal(size=(1, C)), dtype=np.float64)
        base = rng.normal(size=(1, C))
        pert = rng.normal(size=(1, C))
        pert /= np.linalg.norm(pert)
        u_grid = np.linspace(0.0, 0.95, 12)
        diffs = []
        for u in u_grid:
            a = uaf.fuse(T.Tensor(base), u, fl, 0.3, fp).data
            b = uaf.fuse(T.Tensor(base + pert), u, fl, 0.3, fp).data
            diffs.append(np.linalg.norm(a - b))
        x = 1.0 - u_grid
        y = np.array(diffs)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - resid.var() / y.var()
        assert r2 > 0.99
