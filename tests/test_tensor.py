"""Tensor engine: forward oracles, backward examples, gradient checks."""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusiondet import tensor as T
from fusiondet.featuremaps import LidarFeaturePyramid
from fusiondet.geometry import DetectionRange


def _fd_gradient(fn, arrays, index, h=1e-6):
    """Independent central-difference oracle: d(sum fn)/d arrays[index]."""
    grad = np.zeros_like(arrays[index])
    flat = arrays[index].reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = fn(arrays).sum()
        flat[k] = orig - h
        f_minus = fn(arrays).sum()
        flat[k] = orig
        gflat[k] = (f_plus - f_minus) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        out = T.layer_norm(
            T.Tensor([[1.0, 1.0, 1.0]], dtype=np.float64),
            T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
        )
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_two_element_row(self):
        # mean 1, population std 1 -> [-1, 1] up to epsilon
        out = T.layer_norm(
            T.Tensor([[0.0, 2.0]], dtype=np.float64),
            T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_affine_dominates_with_zero_gain(self):
        out = T.layer_norm(
            T.Tensor([[3.0, -7.0]], dtype=np.float64),
            T.Tensor(np.zeros(2)), T.Tensor(np.full(2, 5.0)),
        )
        np.testing.assert_allclose(out.data, [[5.0, 5.0]], atol=1e-12)

    def test_zero_length_row_errors(self):
        with pytest.raises(T.GraphError):
            T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.zeros(0)),
                         T.Tensor(np.zeros(0)))

    def test_row_statistics_pre_affine(self):
        # row variance must dominate the 1e-5 epsilon for the 1e-6 bound
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(scale=30.0, size=(20, 16)), dtype=np.float64)
        out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
        assert np.all(np.abs(out.data.mean(axis=1)) < 1e-10)
        assert np.all(np.abs(out.data.var(axis=1) - 1.0) < 1e-6)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(
            T.softmax(T.Tensor([0.0, 0.0], dtype=np.float64)).data, [0.5, 0.5]
        )

    def test_constant_vector(self):
        np.testing.assert_allclose(
            T.softmax(T.Tensor([2.5, 2.5, 2.5], dtype=np.float64)).data,
            np.full(3, 1 / 3), atol=1e-15,
        )

    def test_exact_ratio(self):
        out = T.softmax(T.Tensor([np.log(1.0), np.log(3.0)], dtype=np.float64))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_empty_errors(self):
        with pytest.raises(T.GraphError):
            T.softmax(T.Tensor(np.zeros(0)))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=8),
        st.floats(-20, 20),
    )
    def test_sums_to_one_and_shift_invariant(self, vals, shift):
        x = np.array(vals, dtype=np.float64)
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + shift)).data
        assert abs(a.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


class TestBackward:
    def test_identity_chain(self):
        x = T.Tensor([2.0, -3.0], dtype=np.float64, requires_grad=True)
        y = T.add(T.mul(x, 1.0), 0.0)
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_relu_subgradient(self):
        for v, g in ((-1.0, 0.0), (1.0, 1.0), (0.0, 0.0)):
            x = T.Tensor([v], dtype=np.float64, requires_grad=True)
            T.relu(x).backward()
            np.testing.assert_allclose(x.grad, [g])

    def test_relu_keeps_a_nan_and_every_finite_value(self):
        x = np.array([-0.0, 0.0, 1.5, -2.0, 1e-45, -1e-45, np.inf, -np.inf, np.nan],
                     dtype=np.float32)
        out = T.relu(T.Tensor(x)).data
        assert np.isnan(out[-1])
        # the same bytes as the masked form for everything else, -0.0 included
        assert out[:-1].tobytes() == np.where(x > 0, x, 0.0)[:-1].tobytes()
        assert out.dtype == np.float32

    def test_diamond_graph_visits_once(self):
        # y = x*x + x*x: gradient 4x only if contributions accumulate correctly
        x = T.Tensor([3.0], dtype=np.float64, requires_grad=True)
        sq = T.mul(x, x)
        y = T.add(sq, sq)
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_linear_layernorm_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 4))

        def compose(arrays):
            xa, wa = arrays
            with T.no_grad():
                out = T.layer_norm(
                    T.matmul(T.Tensor(xa), T.Tensor(wa)),
                    T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)),
                )
            return out.data

        x = T.Tensor(x0, dtype=np.float64, requires_grad=True)
        w = T.Tensor(w0, dtype=np.float64, requires_grad=True)
        out = T.layer_norm(T.matmul(x, w), T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
        T.sum_(out).backward()
        for t, arr_index in ((x, 0), (w, 1)):
            fd = _fd_gradient(compose, [x0.copy(), w0.copy()], arr_index)
            rel = np.abs(t.grad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5

    def test_cycle_detection(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.mul(x, 2.0)
        y.parents = (y,)  # corrupt the graph deliberately
        y.vjps = (lambda g: g,)
        with pytest.raises(T.GraphError):
            T.Tape.trace(y)

    def test_constant_operands_add_no_tape_node(self):
        rng = np.random.default_rng(4)
        x0, c0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=4)
        x = T.Tensor(x0, requires_grad=True)
        out = T.sum_(T.add(T.mul(x, c0), T.Tensor(b0)))
        tape = T.Tape.trace(out)
        assert [n.op for n in tape.nodes] == ["leaf", "mul", "add", "sum"]
        assert all(n.requires_grad for n in tape.nodes)
        out.backward()
        # the same graph with the constants traced as gradient leaves
        xr = T.Tensor(x0, requires_grad=True)
        c, b = T.Tensor(c0, requires_grad=True), T.Tensor(b0, requires_grad=True)
        ref = T.sum_(T.add(T.mul(xr, c), b))
        assert len(T.Tape.trace(ref).nodes) == 6
        ref.backward()
        assert x.grad.tobytes() == xr.grad.tobytes()

    def test_seed_shape_mismatch(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, 3.0)
        with pytest.raises(T.GraphError):
            y.backward(seed=np.ones(3))

    def test_interior_gradients_are_freed_as_backward_goes(self):
        # a chain of 20 ops: holding every gradient to the end would take 21
        # arrays; releasing each once passed on keeps about two alive
        x = T.Tensor(np.ones(100_000), requires_grad=True)
        y = x
        for _ in range(20):
            y = T.mul(y, 1.0)
        out = T.sum_(y)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 3 * x.data.nbytes
        assert np.array_equal(x.grad, np.ones(100_000))


# (source dtype, incoming gradient dtype): a wide gradient into a narrow
# source, and a narrow gradient into a wide one
MIXED_DTYPES = [(np.float32, np.float64), (np.float64, np.float32)]


class TestGradientDtypeRule:
    @pytest.mark.parametrize("source, grad", MIXED_DTYPES)
    def test_no_vjp_narrows_a_gradient(self, source, grad):
        a = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True, dtype=source)
        outs = [T.narrow(a, 0, 1, 2), T.gather_rows(a, [3, 0, 3]),
                T.bilinear_sample_packed(a, [(2, 2)], [0], [0, 0], [[0.7, 1.2], [1.5, 0.2]])]
        for out in outs:
            (vjp,) = out.vjps  # the values VJP alone: plain-array coords are constants
            assert vjp(np.ones(out.shape, grad)).dtype == np.float64
        a.backward(np.ones(a.shape, grad))  # the seed is promoted, not cast
        assert a.grad.dtype == np.float64

    @pytest.mark.parametrize("source, grad", MIXED_DTYPES)
    def test_astype_returns_its_source_dtype(self, source, grad):
        a = T.Tensor(np.arange(3.0), requires_grad=True, dtype=source)
        out = T.astype(a, grad)
        assert out.dtype == grad
        assert out.vjps[0](np.ones(3, grad)).dtype == source


class TestLinear:
    @staticmethod
    def _composite(x, w, b):
        return T.add(T.matmul(x, w), b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
    def test_equals_matmul_add_bit_for_bit(self, dtype, x_shape):
        # one x feeds two linears, so its gradient is a sum of two parts
        rng = np.random.default_rng(len(x_shape))
        arrays = [rng.normal(size=s).astype(dtype)
                  for s in (x_shape, (4, 3), (3,), (4, 2), (2,))]
        seed = rng.normal(size=x_shape[:-1] + (5,)).astype(dtype)
        results = []
        for lin in (T.linear, self._composite):
            x, w1, b1, w2, b2 = (T.Tensor(a, requires_grad=True) for a in arrays)
            out = T.concat([lin(x, w1, b1), lin(x, w2, b2)], axis=-1)
            out.backward(seed)
            results.append([out.data] + [t.grad for t in (x, w1, b1, w2, b2)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_tape_node_after_bias_weight_and_input(self):
        rng = np.random.default_rng(0)
        x, w, b = (T.Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((3, 4), (4, 2), (2,)))
        tape = T.Tape.trace(T.linear(x, w, b))
        # the post-order of add(matmul(x, w), b), less the matmul node
        assert tape.nodes == [b, w, x, tape.root] and tape.root.op == "linear"


# ---------------------------------------------------------------------------
# grad_check as an operation
# ---------------------------------------------------------------------------


class TestGradCheck:
    def test_linear_layer_passes(self):
        rng = np.random.default_rng(0)
        inputs = [
            T.Tensor(rng.normal(size=(2, 4)), dtype=np.float64),
            T.Tensor(rng.normal(size=(4, 3)), dtype=np.float64),
            T.Tensor(rng.normal(size=(3,)), dtype=np.float64),
        ]
        rep = T.grad_check(lambda ins: T.linear(ins[0], ins[1], ins[2]), inputs)
        assert rep.passed and rep.max_rel_error < 1e-4

    def test_bilinear_interior_point_passes(self):
        rng = np.random.default_rng(1)
        grid = T.Tensor(rng.normal(size=(5, 5, 2)), dtype=np.float64)
        coords = T.Tensor([[2.3, 2.7]], dtype=np.float64)
        rep = T.grad_check(lambda ins: T.bilinear_sample(ins[0], ins[1]), [grid, coords])
        assert rep.passed

    def test_wrong_derivative_fails(self):
        # negative control: op whose vjp is deliberately doubled
        def bad_square(x):
            out = T.Tensor(x.data**2)
            out.requires_grad = True
            out.parents = (x,)
            out.vjps = (lambda g: g * 4.0 * x.data,)  # should be 2x
            out.op = "bad_square"
            return out

        x = T.Tensor([1.5, -2.0], dtype=np.float64)
        rep = T.grad_check(lambda ins: bad_square(ins[0]), [x])
        assert not rep.passed

    def test_nonfinite_forward_errors(self):
        x = T.Tensor([-1.0], dtype=np.float64)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                T.grad_check(lambda ins: T.log(ins[0]), [x])

    def test_requires_double(self):
        x = T.Tensor([1.0], dtype=np.float32)
        with pytest.raises(ValueError):
            T.grad_check(lambda ins: ins[0], [x])


# ---------------------------------------------------------------------------
# every primitive against finite differences, many seeds
# ---------------------------------------------------------------------------

PRIMITIVES = {
    "add": (lambda ins: T.add(ins[0], ins[1]), [(3, 4), (3, 4)], None),
    "add_broadcast": (lambda ins: T.add(ins[0], ins[1]), [(3, 4), (4,)], None),
    "sub": (lambda ins: T.sub(ins[0], ins[1]), [(3, 4), (3, 4)], None),
    "mul": (lambda ins: T.mul(ins[0], ins[1]), [(3, 4), (3, 4)], None),
    "div": (lambda ins: T.div(ins[0], ins[1]), [(3, 4), (3, 4)], "denominator"),
    "neg": (lambda ins: T.neg(ins[0]), [(3, 4)], None),
    "matmul": (lambda ins: T.matmul(ins[0], ins[1]), [(3, 4), (4, 2)], None),
    "matmul_batched": (lambda ins: T.matmul(ins[0], ins[1]), [(2, 3, 4), (2, 4, 2)], None),
    "linear": (
        lambda ins: T.linear(ins[0], ins[1], ins[2]), [(2, 3, 4), (4, 2), (2,)], None),
    "relu": (lambda ins: T.relu(ins[0]), [(3, 4)], "kink"),
    "exp": (lambda ins: T.exp(ins[0]), [(3, 4)], None),
    "log": (lambda ins: T.log(ins[0]), [(3, 4)], "positive"),
    "sqrt": (lambda ins: T.sqrt(ins[0]), [(3, 4)], "positive"),
    "abs": (lambda ins: T.absolute(ins[0]), [(3, 4)], "kink"),
    "tanh": (lambda ins: T.tanh(ins[0]), [(3, 4)], None),
    "sigmoid": (lambda ins: T.sigmoid(ins[0]), [(3, 4)], None),
    "softplus": (lambda ins: T.softplus(ins[0]), [(3, 4)], None),
    "softmax": (lambda ins: T.softmax(ins[0]), [(3, 5)], None),
    "layer_norm": (
        lambda ins: T.layer_norm(ins[0], ins[1], ins[2]), [(3, 5), (5,), (5,)], None),
    "sum": (lambda ins: T.sum_(ins[0], axis=1), [(3, 4)], None),
    "mean": (lambda ins: T.mean(ins[0], axis=0), [(3, 4)], None),
    "reshape": (lambda ins: T.reshape(ins[0], (4, 3)), [(3, 4)], None),
    "transpose": (lambda ins: T.transpose(ins[0], (1, 0, 2)), [(2, 3, 4)], None),
    "concat": (lambda ins: T.concat([ins[0], ins[1]], axis=1), [(3, 2), (3, 4)], None),
    "narrow": (lambda ins: T.narrow(ins[0], 1, 1, 2), [(3, 4)], None),
    "gather_rows": (lambda ins: T.gather_rows(ins[0], [2, 0, 2]), [(4, 3)], None),
    "scatter_add_rows": (
        lambda ins: T.scatter_add_rows(ins[0], [2, 0, 2], 4), [(3, 3)], None),
    "bilinear": (lambda ins: T.bilinear_sample(ins[0], ins[1]), [(5, 6, 2), (4, 2)], "coords"),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_100_seeds(name):
    fn, shapes, mode = PRIMITIVES[name]
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([zlib.crc32(name.encode()), seed]))
        inputs = []
        for i, s in enumerate(shapes):
            if mode == "positive" or (mode == "denominator" and i == 1):
                arr = rng.uniform(0.5, 3.0, size=s)
            elif mode == "kink":
                arr = rng.normal(size=s)
                arr = np.where(np.abs(arr) < 1e-3, 0.5, arr)  # reject kink-adjacent
            elif mode == "coords" and i == 1:
                arr = rng.uniform(0.7, 4.2, size=s)
                frac = arr - np.floor(arr)
                arr = np.where(np.abs(frac - 0.5) < 1e-3, arr + 0.01, arr)
            else:
                arr = rng.normal(size=s)
            inputs.append(T.Tensor(arr, dtype=np.float64))
        rep = T.grad_check(fn, inputs)
        worst = max(worst, rep.max_rel_error)
    assert worst < 1e-4, f"{name}: {worst}"


# ---------------------------------------------------------------------------
# determinism and precision defaults
# ---------------------------------------------------------------------------


def test_forward_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)

    def run():
        out = T.layer_norm(
            T.relu(T.matmul(T.Tensor(x), T.Tensor(w))),
            T.Tensor(np.ones(8, dtype=np.float32)),
            T.Tensor(np.zeros(8, dtype=np.float32)),
        )
        return T.softmax(out).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_default_precision_is_single():
    assert T.Tensor([1, 2, 3]).dtype == np.float32
    assert T.Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64


def test_bilinear_coords_kink_note():
    grid = T.Tensor(np.zeros((4, 4, 1)))
    with T.track_kinks() as k:
        T.bilinear_sample(grid, T.Tensor([[1.5 + 1e-5, 2.2]]))
    assert k.min_distance() < 1e-4


def test_kink_distances_only_under_tracking(monkeypatch):
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 3))
    grid = rng.normal(size=(4, 5, 2))
    coords = rng.uniform(-1.0, 6.0, size=(7, 2))
    x, y = coords[:, 0] - 0.5, coords[:, 1] - 0.5
    fx, fy = x - np.floor(x), y - np.floor(y)
    want = {
        "relu": np.min(np.abs(a)),
        "abs": np.min(np.abs(a)),
        "bilinear": min(np.min(np.minimum(fx, 1.0 - fx)), np.min(np.minimum(fy, 1.0 - fy))),
    }
    ops = {
        "relu": lambda: T.relu(a),
        "abs": lambda: T.absolute(a),
        "bilinear": lambda: T.bilinear_sample(grid, T.Tensor(coords, dtype=np.float64)),
    }
    for name, op in ops.items():
        with T.track_kinks() as k:
            op()
        assert k.min_distance() == want[name], name
    # outside the block no distance is even computed
    calls = []
    monkeypatch.setattr(T, "_note_kink", calls.append)
    for op in ops.values():
        op()
    assert calls == []


# ---------------------------------------------------------------------------
# packed bilinear reads: the same numbers as one grid at a time
# ---------------------------------------------------------------------------


class TestBilinearPacked:
    SHAPES = np.array([[4, 5], [3, 7]])  # (H, W) of two grids
    C = 3

    def _setup(self, seed, dtype):
        rng = np.random.default_rng(seed)
        grids = [rng.normal(size=(h, w, self.C)).astype(dtype) for h, w in self.SHAPES]
        map_idx = np.arange(40) % 2
        hw = self.SHAPES[map_idx]
        # in bounds, on the border texels, and outside on every side
        coords = np.concatenate([
            rng.uniform(0.5, hw[:10, ::-1] - 0.5),
            rng.uniform(-0.5, 0.5, size=(10, 2)) + hw[10:20, ::-1] * rng.integers(0, 2, (10, 2)),
            rng.uniform(-3.0, hw[20:, ::-1] + 3.0),
        ])
        return grids, map_idx, coords

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_grid_reads_bit_for_bit(self, dtype):
        for seed in range(5):
            grids, map_idx, coords = self._setup(seed, dtype)
            values = T.Tensor(np.concatenate([g.reshape(-1, self.C) for g in grids]),
                              requires_grad=True)
            c = T.Tensor(coords, requires_grad=True)
            packed = T.bilinear_sample_packed(values, self.SHAPES, [0, 20], map_idx, c)
            seed_grad = np.random.default_rng(seed).normal(size=packed.shape).astype(dtype)
            packed.backward(seed_grad)
            want_dvalues = []
            want_dcoords = np.zeros_like(c.grad)
            for g, grid in enumerate(grids):
                sel = map_idx == g
                gt = T.Tensor(grid, requires_grad=True)
                ct = T.Tensor(coords[sel], requires_grad=True)
                out = T.bilinear_sample(gt, ct)
                assert np.array_equal(packed.data[sel], out.data)
                out.backward(seed_grad[sel])
                want_dvalues.append(gt.grad.reshape(-1, self.C))
                want_dcoords[sel] = ct.grad
            assert np.array_equal(values.grad, np.concatenate(want_dvalues))
            assert np.array_equal(c.grad, want_dcoords)

    def test_no_read_from_the_neighbouring_grid(self):
        grids, map_idx, coords = self._setup(0, np.float64)
        for g in range(2):
            sel = map_idx == g
            poisoned = [np.full_like(x, np.nan) for x in grids]
            poisoned[g] = grids[g]
            values = T.Tensor(np.concatenate([x.reshape(-1, self.C) for x in poisoned]))
            out = T.bilinear_sample_packed(values, self.SHAPES, [0, 20], map_idx[sel],
                                           coords[sel])
            assert np.all(np.isfinite(out.data))
            assert np.array_equal(out.data, T.bilinear_sample(grids[g], coords[sel]).data)

    def test_values_vjp_stays_in_each_grid(self):
        grids, map_idx, coords = self._setup(1, np.float64)
        values = T.Tensor(np.concatenate([g.reshape(-1, self.C) for g in grids]),
                          requires_grad=True)
        sel = map_idx == 0
        out = T.bilinear_sample_packed(values, self.SHAPES, [0, 20], map_idx[sel], coords[sel])
        out.backward()
        assert np.any(values.grad[:20] != 0.0)
        assert np.all(values.grad[20:] == 0.0)


def _rounding_read(values, shapes, starts, map_idx, coords, g):
    """Reference: a float32 read of a float64 buffer, made as a read that
    rounds on the fly: each gathered float64 corner row is rounded to
    float32, then weighted. Returns the (P, C) output and the gradient of
    ``sum(out * g)`` with respect to the (P, 2) coords."""
    c = np.asarray(coords, dtype=np.float32)
    H, W = shapes[map_idx, 0], shapes[map_idx, 1]
    base = np.asarray(starts)[map_idx]
    x = c[:, 0] - 0.5
    y = c[:, 1] - 0.5
    i0 = np.floor(x).astype(np.int64)
    j0 = np.floor(y).astype(np.int64)
    fx = x - i0
    fy = y - j0
    out, gdot = 0, []
    for (di, dj), w in zip(((0, 0), (1, 0), (0, 1), (1, 1)),
                           ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)):
        ii, jj = i0 + di, j0 + dj
        valid = (ii >= 0) & (ii < W) & (jj >= 0) & (jj < H)
        v = values[base + np.clip(jj, 0, H - 1) * W + np.clip(ii, 0, W - 1)].astype(np.float32)
        out = out + (w * valid)[:, None] * v
        gdot.append(np.einsum("pc,pc->p", g, v) * valid)
    dx = -(1 - fy) * gdot[0] + (1 - fy) * gdot[1] - fy * gdot[2] + fy * gdot[3]
    dy = -(1 - fx) * gdot[0] - fx * gdot[1] + (1 - fx) * gdot[2] + fx * gdot[3]
    return out, np.stack([dx, dy], axis=-1)


class TestReadAtDtype:
    SHAPES = np.array([[3, 4], [2, 5]])
    C = 3
    DET = DetectionRange(-10, 10, -10, 10, -2, 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 30),
           spread=st.floats(0.0, 3.0), tensor_coords=st.booleans())
    def test_float32_read_of_float64_buffer_equals_read_of_its_copy(
            self, seed, points, spread, tensor_coords):
        # maps packed at float32 read exactly as the float64 maps read with
        # each corner rounded to float32
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(22, self.C)) * 10.0 ** rng.integers(-3, 4)
        grids = [values[:12].reshape(3, 4, self.C), values[12:].reshape(2, 5, self.C)]
        pyr = LidarFeaturePyramid(grids, self.DET, np.float32)
        map_idx = rng.integers(0, 2, size=points)
        hw = self.SHAPES[map_idx][:, ::-1]
        # in the grid and up to ``spread`` texels outside it on every side
        coords = rng.uniform(-spread, hw + spread)
        g = rng.normal(size=(points, self.C))
        c = T.Tensor(coords, dtype=np.float32, requires_grad=True) if tensor_coords else coords
        out = pyr.sample(map_idx, c)
        want, want_grad = _rounding_read(values, self.SHAPES, [0, 12], map_idx, coords, g)
        assert out.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        if tensor_coords:
            out.backward(g)
            assert c.grad.dtype == want_grad.dtype
            assert c.grad.tobytes() == want_grad.tobytes()

    def test_buffer_with_gradient_is_read_in_its_own_dtype(self):
        grid = T.Tensor(np.ones((3, 4, 2)), requires_grad=True)
        with pytest.raises(T.GraphError):
            LidarFeaturePyramid([grid], self.DET, np.float32)
        out = LidarFeaturePyramid([grid], self.DET, np.float64).sample([0], np.array([[1.0, 1.0]]))
        out.backward()
        assert grid.grad.dtype == np.float64 and grid.grad.sum() == 2.0


# ---------------------------------------------------------------------------
# one corner gather and one weighted sum: the per-corner read's numbers
# ---------------------------------------------------------------------------


def per_corner_bilinear_sample_packed(values, shapes, starts, map_idx, coords):
    """``T.bilinear_sample_packed`` as it was written before the corners were
    gathered in one take: per corner, its own row index, mask, weight and
    gather, summed by ``sum``; the VJPs scatter one ``np.add.at`` per corner
    and form one dot product per corner."""
    values = T._wrap(values)
    coords = T._wrap(coords, like=values)
    C = values.data.shape[1]
    c = coords.data.reshape(-1, 2)
    which = np.asarray(map_idx, dtype=np.int64).reshape(-1)
    shapes = np.asarray(shapes, dtype=np.int64)
    H = shapes[which, 0]
    W = shapes[which, 1]
    base = np.asarray(starts, dtype=np.int64)[which]
    x = c[:, 0] - 0.5
    y = c[:, 1] - 0.5
    i0 = np.floor(x).astype(np.int64)
    j0 = np.floor(y).astype(np.int64)
    fx = x - i0
    fy = y - j0
    if T._KINK_SINK is not None:
        T._note_kink(np.minimum(fx, 1.0 - fx))
        T._note_kink(np.minimum(fy, 1.0 - fy))
    w00 = (1 - fx) * (1 - fy)
    w10 = fx * (1 - fy)
    w01 = (1 - fx) * fy
    w11 = fx * fy
    rows, masks, weights = [], [], []
    for (di, dj), w in zip(((0, 0), (1, 0), (0, 1), (1, 1)), (w00, w10, w01, w11)):
        ii = i0 + di
        jj = j0 + dj
        valid = (ii >= 0) & (ii < W) & (jj >= 0) & (jj < H)
        rows.append(base + np.clip(jj, 0, H - 1) * W + np.clip(ii, 0, W - 1))
        masks.append(valid)
        weights.append(w * valid)
    flat = sum(w[:, None] * values.data[r] for w, r in zip(weights, rows))
    out = flat.reshape(coords.data.shape[:-1] + (C,))

    def d_values(g):
        gf = g.reshape(-1, C)
        dv = np.zeros(values.data.shape, np.result_type(g, values.data))
        for w, r in zip(weights, rows):
            np.add.at(dv, r, gf * w[:, None])
        return dv

    def d_coords(g):
        gf = g.reshape(-1, C)
        gdot = [np.einsum("pc,pc->p", gf, values.data[r]) * m for r, m in zip(rows, masks)]
        dx = -(1 - fy) * gdot[0] + (1 - fy) * gdot[1] - fy * gdot[2] + fy * gdot[3]
        dy = -(1 - fx) * gdot[0] - fx * gdot[1] + (1 - fx) * gdot[2] + fx * gdot[3]
        return np.stack([dx, dy], axis=-1).reshape(coords.data.shape)

    return T._make(out, "bilinear_sample", (values, coords), (d_values, d_coords))


def _read_and_gradients(read, values, shapes, starts, map_idx, coords, g, tensor_coords):
    """Output, both gradients (or None) and the recorded kink distances of one
    packed read, backpropagated from seed ``g``."""
    v = T.Tensor(values, requires_grad=True)
    c = T.Tensor(coords, requires_grad=True) if tensor_coords else coords
    with T.track_kinks() as kinks:
        out = read(v, shapes, starts, map_idx, c)
    out.backward(g)
    return out.data, v.grad, c.grad if tensor_coords else None, kinks.distances


class TestPackedReadMatchesPerCornerReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.sampled_from([0, 1, 2, 7, 40, 300]),
           channels=st.sampled_from([1, 2, 3, 19, 32]), spread=st.floats(0.0, 3.0),
           buffer_dtype=st.sampled_from([np.float32, np.float64]),
           coords_dtype=st.sampled_from([np.float32, np.float64]),
           seed_dtype=st.sampled_from([np.float32, np.float64]),
           tensor_coords=st.booleans(), negative=st.booleans())
    def test_values_dtype_and_both_gradients(self, seed, points, channels, spread, buffer_dtype,
                                             coords_dtype, seed_dtype, tensor_coords, negative):
        rng = np.random.default_rng(seed)
        shapes = rng.integers(1, 7, size=(int(rng.integers(1, 4)), 2))
        sizes = shapes[:, 0] * shapes[:, 1]
        values = rng.normal(size=(sizes.sum(), channels)) * 10.0 ** rng.integers(-3, 4)
        if negative:
            # masked corners read 0 * negative = -0.0, which the sum must not keep
            values = -np.abs(values)
        map_idx = rng.integers(0, len(shapes), size=points)
        hw = shapes[map_idx][:, ::-1]
        # in the grid and up to ``spread`` texels outside it on every side
        coords = rng.uniform(-spread, hw + spread, size=(points, 2))
        if rng.random() < 0.3:
            coords = np.round(coords * 2.0) / 2.0  # on texel centres and lattice lines
        g = rng.normal(size=(points, channels)).astype(seed_dtype)
        args = (values.astype(buffer_dtype), shapes, np.cumsum(sizes) - sizes, map_idx,
                coords.astype(coords_dtype), g, tensor_coords)
        got = _read_and_gradients(T.bilinear_sample_packed, *args)
        want = _read_and_gradients(per_corner_bilinear_sample_packed, *args)
        for a, b in zip(got[:3], want[:3]):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got[3] == want[3]

    def test_all_masked_points_over_negative_values_read_positive_zero(self):
        values = -np.ones((6, 3))
        coords = np.array([[-2.0, -2.0], [9.0, 1.0], [1.0, 9.5]])
        for dtype in (np.float32, np.float64):
            out = T.bilinear_sample_packed(values.astype(dtype), [(2, 3)], [0], [0, 0, 0], coords)
            want = per_corner_bilinear_sample_packed(values.astype(dtype), [(2, 3)], [0],
                                                     [0, 0, 0], coords)
            assert out.data.tobytes() == want.data.tobytes() == np.zeros((3, 3)).tobytes()

    def test_empty_point_set(self):
        values = T.Tensor(np.ones((6, 4)), requires_grad=True)
        coords = T.Tensor(np.zeros((0, 5, 2)), requires_grad=True)
        out = T.bilinear_sample_packed(values, [(2, 3)], [0], np.zeros((0, 5), np.int64), coords)
        assert out.shape == (0, 5, 4) and out.dtype == np.float64
        out.backward()
        assert np.count_nonzero(values.grad) == 0 and coords.grad.shape == (0, 5, 2)

    def test_one_point_one_channel(self):
        # a lone output element is where einsum would sum out of corner order
        rng = np.random.default_rng(3)
        for _ in range(200):
            values, coords = rng.normal(size=(12, 1)), rng.uniform(0.0, 4.0, size=(1, 2))
            out = T.bilinear_sample_packed(values, [(3, 4)], [0], [0], coords)
            want = per_corner_bilinear_sample_packed(values, [(3, 4)], [0], [0], coords)
            assert out.data.tobytes() == want.data.tobytes()


def add_at_rows_2d(out, idx, rows):
    """The row scatter as it was written before it ran on the flat view."""
    np.add.at(out, idx, rows)


class TestFlatRowScatter:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           tail=st.lists(st.integers(1, 4), max_size=2), count=st.integers(0, 60),
           out_dtype=st.sampled_from([np.float32, np.float64]),
           row_dtype=st.sampled_from([np.float32, np.float64]))
    def test_matches_2d_add_at(self, seed, rows, tail, count, out_dtype, row_dtype):
        # repeated, unsorted and negative in-range indices, rows of any rank
        rng = np.random.default_rng(seed)
        shape = (rows, *tail)
        idx = rng.integers(-rows, rows, size=count)
        src = (rng.normal(size=(count, *tail)) * 10.0 ** rng.integers(-3, 4)).astype(row_dtype)
        want, got = np.zeros(shape, out_dtype), np.zeros(shape, out_dtype)
        add_at_rows_2d(want, idx, src)
        T._add_rows_at(got, idx, src)
        assert got.tobytes() == want.tobytes()

    def test_scatter_add_rows_and_gather_rows_vjp(self):
        rng = np.random.default_rng(0)
        idx = np.array([3, -1, 0, 3, 4, -5, 2, 3])
        a = T.Tensor(rng.normal(size=(8, 2, 3)), requires_grad=True)
        out = T.scatter_add_rows(a, idx, 5)
        want = np.zeros((5, 2, 3))
        add_at_rows_2d(want, idx, a.data)
        assert out.data.tobytes() == want.tobytes()
        src = T.Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        picked = T.gather_rows(src, idx)
        g = rng.normal(size=picked.shape)
        picked.backward(g)
        want = np.zeros((5, 2, 3))
        add_at_rows_2d(want, idx, g)
        assert src.grad.tobytes() == want.tobytes()

    def test_empty_input(self):
        out = T.scatter_add_rows(np.zeros((0, 4)), np.zeros(0, np.int64), 3)
        assert out.shape == (3, 4) and np.count_nonzero(out.data) == 0

    @pytest.mark.parametrize("bad", [5, -6])
    def test_out_of_range_index_raises(self, bad):
        with pytest.raises(IndexError):
            add_at_rows_2d(np.zeros((5, 3)), np.array([0, bad]), np.ones((2, 3)))
        with pytest.raises(IndexError):
            T.scatter_add_rows(np.ones((2, 3)), [0, bad], 5)
