"""Uncertainty mapping, pooling and weighted fusion."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondet import tensor as T
from fusiondet import uaf


def _roi(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64))


def _u(d):
    """u of a scalar or a sequence of distances, as a float64 array."""
    return uaf.uncertainty_from_distance(T.Tensor(np.atleast_1d(d), dtype=np.float64)).data


def _predict_u(roi, params):
    """Predicted uncertainty of a RoI, composed as the decoder composes it:
    pool, distance head, u."""
    return uaf.uncertainty_from_distance(uaf.predict_distance(uaf.pool_roi(roi), params))


def _const(n, u):
    """The same uncertainty u for n queries."""
    return T.Tensor(np.full(n, u))


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
        assert _u(0.0) == 0.0

    def test_ln2(self):
        assert _u(math.log(2.0)) == pytest.approx(0.5)

    def test_d10(self):
        assert _u(10.0) == pytest.approx(1 - math.exp(-10), abs=1e-12)

    def test_negative_errors(self):
        with pytest.raises(ValueError):
            _u(-0.1)
        with pytest.raises(ValueError):
            uaf.uncertainty_from_distance(T.Tensor([-1.0]))

    def test_strictly_monotone_into_unit_interval(self):
        # strictness holds wherever exp(-d) stays representable
        d = np.linspace(0, 30, 400)
        u = _u(d)
        assert u[0] == 0.0
        assert np.all(np.diff(u) > 0)
        assert np.all((u >= 0) & (u < 1))
        assert _u(1e6) < 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12))
    def test_elementwise_clamped_formula_bit_for_bit(self, vals):
        # d above ~37 saturates 1 - exp(-d) to 1.0 in float64
        d = np.array(vals, dtype=np.float64)
        want = np.minimum(1.0 - np.exp(-d), np.nextafter(1.0, 0.0))
        got = uaf.uncertainty_from_distance(T.Tensor(d))
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.tobytes()

    def test_element_does_not_depend_on_the_others(self):
        alone = _u([0.1])
        beside_saturated = _u([0.1, 1e6])
        assert beside_saturated[0] == alone[0] == 1.0 - math.exp(-0.1)
        assert beside_saturated[1] == np.nextafter(1.0, 0.0)

    def test_gradient_is_that_of_the_unclamped_map(self):
        d = T.Tensor(np.array([0.1, 2.0, 1e6]), requires_grad=True)
        T.sum_(uaf.uncertainty_from_distance(d)).backward()
        np.testing.assert_array_equal(d.grad, np.exp(-d.data))


class TestPredictUncertainty:
    def test_zero_distance_head(self):
        rng = np.random.default_rng(1)
        C = 4
        p = _dist_head(rng, C)
        p.w1.data *= 0.0
        p.w2.data *= 0.0
        p.b2.data = np.array([-40.0])  # softplus(-40) ~ 0
        u = _predict_u(_roi(rng.normal(size=(2, 3, C))), p)
        np.testing.assert_allclose(u.data, 0.0, atol=1e-12)

    def test_ln4_head(self):
        rng = np.random.default_rng(2)
        C = 4
        p = _dist_head(rng, C)
        p.w1.data *= 0.0
        p.w2.data *= 0.0
        # softplus(b2) = ln 4  =>  b2 = ln(e^{ln4} - 1) = ln 3
        p.b2.data = np.array([math.log(3.0)])
        u = _predict_u(_roi(rng.normal(size=(1, 2, C))), p)
        np.testing.assert_allclose(u.data, 0.75, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        C = 4
        p = _dist_head(rng, C)
        roi_arr = T.Tensor(rng.normal(size=(2, 3, C)), dtype=np.float64)

        def fn(ins):
            dp = SimpleNamespace(w1=ins[1], b1=ins[2], w2=ins[3], b2=ins[4])
            return _predict_u(ins[0], dp)

        rep = T.grad_check(fn, [roi_arr, p.w1, p.b1, p.w2, p.b2])
        assert rep.passed

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        C = 6
        p = _dist_head(rng, C, scale=2.0)
        u = _predict_u(_roi(rng.normal(size=(50, 4, C)) * 5), p)
        assert np.all((u.data >= 0) & (u.data < 1))


class TestFuse:
    def test_zero_uncertainty_is_unweighted_concat(self):
        rng = np.random.default_rng(8)
        C = 5
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(3, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(3, C)), dtype=np.float64)
        got = uaf.fuse(fc, _const(3, 0.0), fl, _const(3, 0.0), fp).data
        cat = T.concat([fc, fl], axis=1)
        want = T.linear(T.relu(T.linear(cat, fp.w1, fp.b1)), fp.w2, fp.b2).data
        np.testing.assert_allclose(got, want, atol=0)

    def test_half_uncertainty_scales_one_side(self):
        rng = np.random.default_rng(9)
        C = 4
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(2, C)), dtype=np.float64)
        got = uaf.fuse(fc, _const(2, 0.0), fl, _const(2, 0.5), fp).data
        halved = T.Tensor(fl.data * 0.5)
        want = uaf.fuse(fc, _const(2, 0.0), halved, _const(2, 0.0), fp).data
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
            a = uaf.fuse(f1, _const(1, u), fl, _const(1, 0.2), fp).data
            b = uaf.fuse(f2, _const(1, u), fl, _const(1, 0.2), fp).data
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
            a = uaf.fuse(T.Tensor(base), _const(1, u), fl, _const(1, 0.3), fp).data
            b = uaf.fuse(T.Tensor(base + pert), _const(1, u), fl, _const(1, 0.3), fp).data
            diffs.append(np.linalg.norm(a - b))
        x = 1.0 - u_grid
        y = np.array(diffs)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - resid.var() / y.var()
        assert r2 > 0.99

    @pytest.mark.parametrize("seed", range(5))
    def test_tensor_weights_equal_the_array_weights(self, seed):
        # the (1 - u) weight as a Tensor expression equals the constant
        # T.Tensor(1.0 - u[:, None]) it replaced, bit for bit
        rng = np.random.default_rng(seed)
        C, n = 5, 7
        fp = _fuse_head(rng, C)
        fc = T.Tensor(rng.normal(size=(n, C)), dtype=np.float64)
        fl = T.Tensor(rng.normal(size=(n, C)), dtype=np.float64)
        u_c = _u(rng.exponential(2.0, size=n))
        u_l = np.append(_u(rng.exponential(2.0, size=n - 1)), _u(1e6))
        got = uaf.fuse(fc, T.Tensor(u_c), fl, T.Tensor(u_l), fp).data
        cat = T.concat([T.mul(fc, T.Tensor(1.0 - u_c[:, None])),
                        T.mul(fl, T.Tensor(1.0 - u_l[:, None]))], axis=1)
        want = T.mlp(cat, fp).data
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
