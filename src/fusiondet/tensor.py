"""Dense tensors with a minimal reverse-mode differentiation engine.

The op vocabulary is fixed and small: exactly the primitives the detection
decoder needs (linear algebra, a few pointwise nonlinearities, layer norm,
softmax, bilinear sampling, reductions and shape ops). Every primitive
carries an analytic vector-Jacobian product and is validated against
central finite differences by ``grad_check``.

Default precision is single; numerical tests run everything in double. No
VJP narrows the gradient it receives: ``astype`` is the only cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

SINGLE = np.float32
DOUBLE = np.float64

_GRAD_ENABLED = True
_KINK_SINK: list | None = None


class GraphError(ValueError):
    """Malformed computation graph (cycles, bad seeds, shape mismatches)."""


class track_kinks:
    """Records, for every kinked op in the block (relu, abs, bilinear lattice
    lines), the smallest distance of its inputs to the kink. Used by gradient
    checks to reject instances too close to a nondifferentiable point."""

    def __enter__(self):
        global _KINK_SINK
        self._prev = _KINK_SINK
        _KINK_SINK = []
        self.distances = _KINK_SINK
        return self

    def __exit__(self, *exc):
        global _KINK_SINK
        _KINK_SINK = self._prev
        return False

    def min_distance(self) -> float:
        return min(self.distances) if self.distances else float("inf")


def _note_kink(dist_array):
    """Record a kink distance; callers compute it only under ``track_kinks``
    (when ``_KINK_SINK`` is set)."""
    if dist_array.size:
        _KINK_SINK.append(float(np.min(dist_array)))


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


_FLOAT_DTYPES = (np.dtype(SINGLE), np.dtype(DOUBLE))


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is None:
        # non-float input (ints, lists) defaults to single precision
        dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else SINGLE
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    if arr.ndim and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """Dense row-major array plus an optional record of how it was computed.

    ``parents``/``vjps`` link the tensor into the tape of the forward pass
    that produced it; leaf tensors have neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "vjps", "op")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents: tuple = ()
        self.vjps: tuple = ()
        self.op = "leaf"

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, op={self.op})"

    # -- autograd ------------------------------------------------------------

    def backward(self, seed=None):
        tape = Tape.trace(self)
        backward(tape, seed)


def _wrap(x, like: Tensor | np.ndarray | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, op: str, parents, vjps) -> Tensor:
    """The op's output; it records only the parents that require a gradient
    (with their VJPs), so constant operands never enter the tape."""
    out = Tensor(data)
    if _GRAD_ENABLED:
        tracked = [(p, f) for p, f in zip(parents, vjps) if p.requires_grad]
        if tracked:
            out.requires_grad = True
            out.parents, out.vjps = zip(*tracked)
    out.op = op
    return out


class Tape:
    """Topologically ordered record of the ops that produced one output."""

    def __init__(self, nodes: list):
        self.nodes = nodes  # parents always precede children

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        WHITE, GRAY, BLACK = 0, 1, 2
        state: dict[int, int] = {}
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            nid = id(node)
            if processed:
                state[nid] = BLACK
                order.append(node)
                continue
            st = state.get(nid, WHITE)
            if st == BLACK:
                continue
            if st == GRAY:
                raise GraphError("cycle detected in computation graph")
            state[nid] = GRAY
            stack.append((node, True))
            for p in node.parents:
                pst = state.get(id(p), WHITE)
                if pst == GRAY:
                    raise GraphError("cycle detected in computation graph")
                if pst == WHITE:
                    stack.append((p, False))
        return cls(order)

    @property
    def root(self) -> Tensor:
        return self.nodes[-1]


def backward(tape: Tape, seed=None) -> None:
    """Reverse traversal of ``tape``; accumulates ``.grad`` on leaf tensors.

    Each node is visited exactly once. An interior node's gradient is
    released as soon as it has been passed to the node's parents, so only
    the gradients still waiting for their node, and the leaves', are held.
    """
    root = tape.root
    if seed is None:
        seed = np.ones_like(root.data)
    else:
        seed = np.asarray(seed)
        seed = seed.astype(np.result_type(seed, root.data), copy=False)
        if seed.shape != root.data.shape:
            raise GraphError(
                f"seed shape {seed.shape} does not match output shape {root.data.shape}"
            )
    grads: dict[int, np.ndarray] = {id(root): seed}
    for node in reversed(tape.nodes):
        if not node.parents:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    for node in tape.nodes:
        if node.requires_grad and not node.parents and id(node) in grads:
            if node.grad is None:
                node.grad = grads[id(node)]
            else:
                node.grad = node.grad + grads[id(node)]


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast to reach g.shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out = a.data + b.data
    return _make(
        out,
        "add",
        (a, b),
        (
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(g, b.data.shape),
        ),
    )


def sub(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out = a.data - b.data
    return _make(
        out,
        "sub",
        (a, b),
        (
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(-g, b.data.shape),
        ),
    )


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out = a.data * b.data
    return _make(
        out,
        "mul",
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out = a.data / b.data
    return _make(
        out,
        "div",
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make(-a.data, "neg", (a,), (lambda g: -g,))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacking semantics (ndim >= 2 on both sides)."""
    a = _wrap(a)
    b = _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise GraphError("matmul requires ndim >= 2 on both operands")
    return _make(a.data @ b.data, "matmul", (a, b), _matmul_vjps(a, b))


def _matmul_vjps(a: Tensor, b: Tensor) -> tuple:
    """The VJPs of ``a @ b`` with respect to a and to b."""

    def d_a(g):
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)

    def d_b(g):
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)

    return d_a, d_b


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)
    if _KINK_SINK is not None:
        _note_kink(np.abs(a.data))
    mask = a.data > 0  # gradient at exactly 0 is 0 by convention
    # np.maximum keeps a NaN, so the finite checks downstream see it
    return _make(np.maximum(a.data, 0.0), "relu", (a,), (lambda g: g * mask,))


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _make(out, "exp", (a,), (lambda g: g * out,))


def log(a) -> Tensor:
    a = _wrap(a)
    return _make(np.log(a.data), "log", (a,), (lambda g: g / a.data,))


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return _make(out, "sqrt", (a,), (lambda g: g * (0.5 / out),))


def absolute(a) -> Tensor:
    a = _wrap(a)
    if _KINK_SINK is not None:
        _note_kink(np.abs(a.data))
    sign = np.sign(a.data)  # subgradient 0 at 0, same convention as relu
    return _make(np.abs(a.data), "abs", (a,), (lambda g: g * sign,))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return _make(out, "tanh", (a,), (lambda g: g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = expit(a.data)
    return _make(out, "sigmoid", (a,), (lambda g: g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic function."""
    a = _wrap(a)
    out = np.logaddexp(0.0, a.data)
    return _make(out, "softplus", (a,), (lambda g: g * expit(a.data),))


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    if a.size == 0 or a.data.shape[axis] == 0:
        raise GraphError("softmax on empty vector")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def d_a(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _make(out, "softmax", (a,), (d_a,))


LAYER_NORM_EPS = 1e-5


def layer_norm(a, gain, shift) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps LAYER_NORM_EPS), then affine."""
    a = _wrap(a)
    gain = _wrap(gain, like=a)
    shift = _wrap(shift, like=a)
    n = a.data.shape[-1] if a.ndim > 0 else 0
    if n < 1:
        raise GraphError("layer_norm on zero-length row")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gain.data + shift.data

    def d_a(g):
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    def d_gain(g):
        return _unbroadcast(g * xhat, gain.data.shape)

    def d_shift(g):
        return _unbroadcast(g, shift.data.shape)

    return _make(out, "layer_norm", (a, gain, shift), (d_a, d_gain, d_shift))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis)

    def d_a(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy()

    return _make(out, "sum", (a,), (d_a,))


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis)
    n = a.data.size if axis is None else a.data.shape[axis]

    def d_a(g):
        if axis is None:
            return np.broadcast_to(g / n, a.data.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy()

    return _make(out, "mean", (a,), (d_a,))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    return _make(
        a.data.reshape(shape), "reshape", (a,), (lambda g: g.reshape(a.data.shape),)
    )


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inverse = tuple(np.argsort(axes))
    return _make(
        a.data.transpose(axes), "transpose", (a,), (lambda g: g.transpose(inverse),)
    )


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        def d_t(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(sl)]

        return d_t

    return _make(out, "concat", tuple(ts), tuple(make_vjp(i) for i in range(len(ts))))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _wrap(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def d_a(g):
        full = np.zeros(a.data.shape, np.result_type(g, a.data))
        full[sl] = g
        return full

    return _make(a.data[sl].copy(), "narrow", (a,), (d_a,))


def gather_rows(a, index) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into the source."""
    a = _wrap(a)
    idx = np.asarray(index, dtype=np.int64)

    def d_a(g):
        full = np.zeros(a.data.shape, np.result_type(g, a.data))
        _add_rows_at(full, idx, g)
        return full

    return _make(a.data[idx], "gather_rows", (a,), (d_a,))


def _add_rows_at(out, idx, rows) -> None:
    """``np.add.at(out, idx, rows)`` along axis 0, run on the flat view of
    ``out`` at element indices ``idx * width + arange(width)``: the same
    adds in the same order (row by row, each row's elements in turn), on
    numpy's fast 1-D path. ``rows`` has shape ``idx.shape + out.shape[1:]``."""
    width = math.prod(out.shape[1:])
    flat = idx.reshape(-1, 1) * width + np.arange(width)
    np.add.at(out.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def scatter_add_rows(a, index, num_rows: int) -> Tensor:
    """Add row i of ``a`` into row ``index[i]`` of a zero (num_rows, ...)
    array; rows are added in row order, each row's elements in turn, by one
    flat ``np.add.at``. Backward gathers the rows back."""
    a = _wrap(a)
    idx = np.asarray(index, dtype=np.int64)
    out = np.zeros((num_rows,) + a.data.shape[1:], dtype=a.data.dtype)
    _add_rows_at(out, idx, a.data)
    return _make(out, "scatter_add_rows", (a,), (lambda g: g[idx],))


def astype(a, dtype) -> Tensor:
    """``a`` converted to ``dtype``; its gradient comes back in ``a``'s dtype."""
    a = _wrap(a)
    return _make(a.data.astype(dtype, copy=False), "astype", (a,),
                 (lambda g: g.astype(a.data.dtype, copy=False),))


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------


def bilinear_sample_packed(values, shapes, starts, map_idx, coords) -> Tensor:
    """Sample many (H, W, C) grids stored row-major in one (S, C) buffer.

    Grid g occupies rows ``starts[g]`` to ``starts[g] + H*W`` of ``values``,
    with ``shapes[g] = (H, W)``; point p reads grid ``map_idx[p]`` at
    ``coords[p] = (u, v)``. Texel centers sit at (i + 0.5, j + 0.5); u runs
    along width, v along height. Corners outside a point's own grid
    contribute zero (zero padding), never a neighbouring grid's texel.
    Differentiable w.r.t. both the buffer values and the coordinates;
    plain-array coords are read in the buffer's dtype.

    The four corners' rows are gathered in one take; each output element
    adds its weighted corners to zero in the corner order (0, 0), (1, 0),
    (0, 1), (1, 1). The values gradient is one flat ``np.add.at`` that adds
    corner by corner in that order, point by point within a corner.
    """
    values = _wrap(values)
    coords = _wrap(coords, like=values)
    if values.ndim != 2:
        raise GraphError("bilinear_sample_packed expects an (S, C) buffer")
    if coords.data.shape[-1] != 2:
        raise GraphError("coords must have a trailing axis of size 2")
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
    if _KINK_SINK is not None:
        _note_kink(np.minimum(fx, 1.0 - fx))
        _note_kink(np.minimum(fy, 1.0 - fy))

    # each axis once: the two texel columns (rows), their in-grid tests and
    # weights; corner k = 2 * dj + di, in the order (0, 0), (1, 0), (0, 1), (1, 1)
    ii = np.stack([i0, i0 + 1])
    jj = np.stack([j0, j0 + 1])
    masks = (((jj >= 0) & (jj < H))[:, None] & ((ii >= 0) & (ii < W))[None]).reshape(4, -1)
    # masking the (P,) corner weights gives the same sums as masking the
    # (P, C) corner values, at a fraction of the work
    weights = (np.stack([1 - fx, fx])[None] * np.stack([1 - fy, fy])[:, None]).reshape(4, -1)
    weights *= masks
    rows = (base + np.clip(jj, 0, H - 1)[:, None] * W + np.clip(ii, 0, W - 1)[None]).reshape(-1)
    corners = np.take(values.data, rows, axis=0).reshape(4, -1, C)
    # einsum adds the four weighted corners into each output element in corner
    # order, but sums a lone element's four as a dot product, in another order
    flat = (np.einsum("kp,kpc->pc", weights, corners) if corners[0].size != 1
            else sum(weights[:, :, None] * corners))
    out = flat.reshape(coords.data.shape[:-1] + (C,))

    def d_values(g):
        dv = np.zeros(values.data.shape, np.result_type(g, values.data))
        _add_rows_at(dv, rows, g.reshape(1, -1, C) * weights[:, :, None])
        return dv

    def d_coords(g):
        # the (4, P, C) corners are gathered again rather than kept from forward
        corners = np.take(values.data, rows, axis=0).reshape(4, -1, C)
        gdot = np.einsum("pc,kpc->kp", g.reshape(-1, C), corners) * masks
        dx = (
            -(1 - fy) * gdot[0] + (1 - fy) * gdot[1] - fy * gdot[2] + fy * gdot[3]
        )
        dy = (
            -(1 - fx) * gdot[0] - fx * gdot[1] + (1 - fx) * gdot[2] + fx * gdot[3]
        )
        dc = np.stack([dx, dy], axis=-1)
        return dc.reshape(coords.data.shape)

    return _make(out, "bilinear_sample", (values, coords), (d_values, d_coords))


def bilinear_sample(grid, coords) -> Tensor:
    """Sample one (H, W, C) grid at continuous (u, v) locations; the
    one-grid case of :func:`bilinear_sample_packed`."""
    grid = _wrap(grid)
    coords = _wrap(coords, like=grid)
    if grid.ndim != 3:
        raise GraphError("bilinear_sample expects a (H, W, C) grid")
    H, W, C = grid.data.shape
    points = coords.data.shape[:-1]
    return bilinear_sample_packed(reshape(grid, (H * W, C)), [(H, W)], [0],
                                  np.zeros(points, dtype=np.int64), coords)


# ---------------------------------------------------------------------------
# composites used throughout the decoder
# ---------------------------------------------------------------------------


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias, with x (..., in), weight (in, out) and bias (out,).

    One tape node, so the pre-bias product is not kept; its values and
    gradients are those of ``add(matmul(x, weight), bias)``.
    """
    x = _wrap(x)
    weight = _wrap(weight)
    if x.ndim < 2 or weight.ndim < 2:
        raise GraphError("linear requires ndim >= 2 on x and weight")
    prod = x.data @ weight.data
    bias = _wrap(bias, like=prod)
    return _make(prod + bias.data, "linear", (x, weight, bias),
                 (*_matmul_vjps(x, weight), lambda g: _unbroadcast(g, bias.data.shape)))


def mlp(x, p) -> Tensor:
    """Two-layer ReLU head relu(x @ p.w1 + p.b1) @ p.w2 + p.b2; ``p`` is any
    object carrying those four tensors, such as a ParamStore group."""
    return linear(relu(linear(x, p.w1, p.b1)), p.w2, p.b2)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) via relu; gradient is 0 where a < floor."""
    return add(relu(sub(a, floor)), floor)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    checked_elements: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def grad_check(
    fn,
    inputs,
    tolerance: float = 1e-4,
    step: float = 1e-6,
    max_elements_per_input: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``fn`` against central finite differences.

    ``fn`` maps a list of Tensors to a Tensor; a sum reduction is applied to
    make the output scalar. All inputs must be double precision. When
    ``max_elements_per_input`` is set, a random subset of coordinates per
    input is probed instead of every element (used for large composites).
    """
    inputs = list(inputs)
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires double-precision inputs")
        t.requires_grad = True
        t.grad = None

    out = fn(inputs)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite forward value in grad_check")
    scalar = sum_(out) if out.data.ndim > 0 else out
    scalar.backward()
    analytic = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    def forward_value() -> float:
        with no_grad():
            v = fn(inputs)
        return float(v.data.sum())

    max_rel = 0.0
    checked = 0
    for t, an in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        n = flat.size
        if max_elements_per_input is not None and n > max_elements_per_input:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_elements_per_input, replace=False)
        else:
            coords = range(n)
        an_flat = an.reshape(-1)
        for k in coords:
            orig = flat[k]
            flat[k] = orig + step
            f_plus = forward_value()
            flat[k] = orig - step
            f_minus = forward_value()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = abs(an_flat[k] - numeric) / max(1.0, abs(numeric))
            if rel > max_rel:
                max_rel = rel
            checked += 1
    return GradCheckReport(max_rel_error=max_rel, tolerance=tolerance, checked_elements=checked)
