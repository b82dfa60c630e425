"""Model parameters: construction, initialization and checkpoint files.

Parameters live in a flat name -> Tensor map with deterministic ordering.
Initialization conventions that the decoder relies on:

* offset predictors start at zero weights with biases spread on a ring, so
  sampling begins near the box center;
* mixer generators start as identity mixing with a zero aggregation layer,
  so a fresh layer is a pure residual;
* box-refinement and regression output layers start at zero, so refinement
  is the identity until trained.

Checkpoint layout: magic ``FDCP`` + uint32 format version + uint64 header
length + JSON header (names, shapes, dtypes, offsets, step, config hash)
+ raw little-endian tensor bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .config import ModelSection
from .fileio import atomic_open

CHECKPOINT_MAGIC = b"FDCP"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


class ParamStore:
    """Ordered name -> Tensor map of trainable parameters."""

    def __init__(self):
        self._params: dict[str, T.Tensor] = {}
        self._groups: dict | None = None

    def add(self, name: str, data: np.ndarray) -> T.Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        t = T.Tensor(data, requires_grad=True)
        self._params[name] = t
        self._groups = None
        return t

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def group(self, prefix: str) -> SimpleNamespace:
        """The store's own tensors named ``prefix.<name>``, as attributes
        ``<name>``; direct children only (``layer0.lidar`` has ``offset_w``,
        not ``mix.chan_w``). Built once per store; KeyError if none exist."""
        if self._groups is None:
            groups: dict = {}
            for name, t in self._params.items():
                head, _, leaf = name.rpartition(".")
                setattr(groups.setdefault(head, SimpleNamespace()), leaf, t)
            self._groups = groups
        return self._groups[prefix]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list:
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None


def _he(rng, fan_in, shape):
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


def _ring_bias(K: int, rest: int, radius_raw: float, dims: int) -> np.ndarray:
    """Offset-predictor bias: K points on a ring (in pre-tanh units), tiled."""
    angles = 2.0 * math.pi * np.arange(K) / K
    ring = np.zeros((K, dims))
    ring[:, 0] = radius_raw * np.cos(angles)
    ring[:, 1] = radius_raw * np.sin(angles)
    return np.tile(ring, (rest, 1)).reshape(-1)


def init_model_params(cfg: ModelSection, seed: int) -> ParamStore:
    dtype = cfg.dtype
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9A17]))
    C = cfg.channels
    K = cfg.num_points
    M = cfg.num_cam_scales
    R = cfg.num_lidar_scales
    Tt = cfg.num_frames
    n_cls = cfg.num_classes
    store = ParamStore()

    def p(name, arr):
        return store.add(name, np.asarray(arr, dtype=dtype))

    def head(prefix, n_in, n_hidden, n_out, zero_out):
        """Two-layer head: He-initialized hidden layer, output layer He or zero."""
        p(f"{prefix}.w1", _he(rng, n_in, (n_in, n_hidden)))
        p(f"{prefix}.b1", np.zeros(n_hidden))
        p(f"{prefix}.w2", np.zeros((n_hidden, n_out)) if zero_out
          else _he(rng, n_hidden, (n_hidden, n_out)))
        p(f"{prefix}.b2", np.zeros(n_out))

    # effective ring radius 0.5 of the box half-extent after tanh squashing
    radius_raw = math.atanh(min(0.5 / cfg.max_offset_factor, 0.99))

    p("query.default_embedding", rng.normal(0.0, 0.02, size=(C,)))

    for layer in range(cfg.num_layers):
        for branch, S, off_dims, w_count in (
            ("lidar", K, 2, R * K),
            ("camera", Tt * K, 3, M * Tt * K),
        ):
            base = f"layer{layer}.{branch}"
            n_off = (R * K if branch == "lidar" else Tt * K) * off_dims
            p(f"{base}.offset_w", np.zeros((C, n_off)))
            p(
                f"{base}.offset_b",
                _ring_bias(K, R if branch == "lidar" else Tt, radius_raw, off_dims),
            )
            p(f"{base}.weight_w", np.zeros((C, w_count)))
            p(f"{base}.weight_b", np.zeros(w_count))
            # adaptive mixing: identity start, zero aggregation
            p(f"{base}.mix.chan_w", np.zeros((C, C * C)))
            p(f"{base}.mix.chan_b", np.eye(C).reshape(-1))
            p(f"{base}.mix.spat_w", np.zeros((C, S * S)))
            p(f"{base}.mix.spat_b", np.eye(S).reshape(-1))
            p(f"{base}.mix.ln_chan_gain", np.ones(C))
            p(f"{base}.mix.ln_chan_shift", np.zeros(C))
            p(f"{base}.mix.ln_spat_gain", np.ones(S))
            p(f"{base}.mix.ln_spat_shift", np.zeros(S))
            p(f"{base}.mix.agg_w", np.zeros((S * C, C)))
            p(f"{base}.mix.agg_b", np.zeros(C))
            p(f"{base}.mix.ln_out_gain", np.ones(C))
            p(f"{base}.mix.ln_out_shift", np.zeros(C))
            # uncertainty: distance predictor and auxiliary BEV regressor
            head(f"{base}.dist", C, C, 1, zero_out=False)
            head(f"{base}.reg", C, C, 2, zero_out=True)

        base = f"layer{layer}"
        head(f"{base}.fuse", 2 * C, 2 * C, C, zero_out=False)
        p(f"{base}.fuse.ln_gain", np.ones(C))
        p(f"{base}.fuse.ln_shift", np.zeros(C))
        p(f"{base}.cls.w", np.zeros((C, n_cls)))
        p(f"{base}.cls.b", np.full(n_cls, -2.0))  # sigmoid ~ 0.12 prior
        head(f"{base}.refine", C, C, 10, zero_out=True)
    return store


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, store: ParamStore, step: int, model_hash: str,
                    optimizer: dict | None = None):
    """Write params (plus optional optimizer state) as a flat named-tensor
    list; ``model_hash`` is the hash of the model section they belong to."""
    entries = []
    blobs = []
    offset = 0

    def emit(name, arr, kind):
        nonlocal offset
        raw = np.ascontiguousarray(arr)
        b = raw.tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(raw.shape),
                "dtype": raw.dtype.name,
                "offset": offset,
                "nbytes": len(b),
                "kind": kind,
            }
        )
        blobs.append(b)
        offset += len(b)

    for name, t in store.items():
        emit(name, t.data, "param")
    for name, arr in (optimizer or {}).items():
        emit(name, arr, "optimizer")
    header = json.dumps(
        {
            "format_version": CHECKPOINT_VERSION,
            "step": int(step),
            "model_hash": model_hash,
            "tensors": entries,
        },
        sort_keys=True,
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for b in blobs:
            fh.write(b)


def _read_exact(fh, n: int, what: str) -> bytes:
    b = fh.read(n)
    if len(b) != n:
        raise CheckpointError(f"checkpoint is truncated in its {what}")
    return b


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(path: str):
    """Returns (param map, step, model_hash, optimizer-state map).

    Any truncated or malformed file raises CheckpointError. The header holds
    a ``tensors`` list, a non-negative int ``step`` and a str ``model_hash``;
    each entry a float32 or float64 dtype (the two that save_checkpoint
    writes) and non-negative int offset, nbytes and shape."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        if hlen > os.fstat(fh.fileno()).st_size:  # a damaged length must not size a read
            raise CheckpointError("checkpoint is truncated in its header")
        raw_header = fh.read(hlen)
        data = fh.read()
    try:
        header = json.loads(raw_header.decode("utf-8"))
        entries, step, model_hash = header["tensors"], header["step"], header["model_hash"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header has no {exc} key") from exc
    except (ValueError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint header is not valid: {exc}") from exc
    if not (isinstance(entries, list) and _is_count(step) and isinstance(model_hash, str)):
        raise CheckpointError("checkpoint header needs a tensors list, a non-negative int "
                              "step and a str model_hash")
    tensors = {}
    optimizer = {}
    for e in entries:
        try:
            name, start, nbytes = str(e["name"]), e["offset"], e["nbytes"]
            dtype, shape = e["dtype"], e["shape"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"checkpoint entry is not valid: {exc!r}") from exc
        if dtype not in ("float32", "float64"):
            raise CheckpointError(f"checkpoint data for {name} is {dtype!r}, "
                                  "not float32 or float64")
        counts = [start, nbytes, *shape] if isinstance(shape, list) else [None]
        if not all(_is_count(n) for n in counts):
            raise CheckpointError(f"checkpoint entry for {name} needs non-negative int "
                                  "offset, nbytes and shape")
        if start + nbytes > len(data):
            raise CheckpointError(f"checkpoint data for {name} runs past the end of the file")
        dtype = np.dtype(dtype)
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise CheckpointError(f"checkpoint data for {name} does not fill "
                                  f"shape {shape} of {dtype}")
        arr = np.frombuffer(data[start : start + nbytes], dtype=dtype).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint data for {name} is not finite")
        if e.get("kind") == "optimizer":
            optimizer[name] = arr
        else:
            tensors[name] = arr
    return tensors, step, model_hash, optimizer


def restore_into(store: ParamStore, tensors: dict):
    missing = [n for n in store.names() if n not in tensors]
    extra = [n for n in tensors if n not in store]
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match model (missing={missing[:3]}, extra={extra[:3]})"
        )
    for name, t in store.items():
        arr = tensors[name]
        if tuple(arr.shape) != tuple(t.data.shape):
            raise CheckpointError(f"shape mismatch for {name}")
        t.data = arr.astype(t.data.dtype)
