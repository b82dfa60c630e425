"""Query state: per-candidate feature vector plus a differentiable 3D box.

The decoder keeps all queries batched. Box parameters are stored as a
(N, 10) tensor with columns [x, y, z, log l, log w, log h, sin yaw, cos yaw,
vx, vy]; sizes live in log space so multiplicative refinement is additive,
and yaw lives as a (sin, cos) pair to avoid wrap discontinuities.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .geometry import BoxArray, GeometryError, wrap_angles

STATE_DIM = 10


def boxes_to_state(boxes: BoxArray) -> np.ndarray:
    """Float64 state rows of a BoxArray, one per box.

    Logs, sines and cosines are taken with ``math`` one element at a time:
    numpy's vectorised ``log`` rounds some inputs differently.
    """
    state = np.empty((len(boxes), STATE_DIM))
    state[:, 0:3] = boxes.center
    state[:, 3:6] = np.reshape([math.log(x) for x in boxes.size.ravel().tolist()], (-1, 3))
    yaw = boxes.yaw.tolist()
    state[:, 6] = [math.sin(a) for a in yaw]
    state[:, 7] = [math.cos(a) for a in yaw]
    state[:, 8:10] = boxes.velocity
    return state


def state_to_boxes(state: np.ndarray, scores=None, class_ids=None) -> BoxArray:
    """Decode state rows to boxes (scores/classes optional).

    Sizes are one ``np.exp`` over the (N, 3) block; yaws are ``math.atan2``
    per row, wrapped as Box3D wraps them. GeometryError if a size is not
    positive (a log size so negative that its ``exp`` is 0).
    """
    state = np.asarray(state, dtype=float)
    n = len(state)
    size = np.exp(state[:, 3:6])
    if np.any(size <= 0):
        raise GeometryError("box sizes must be positive")
    yaw = wrap_angles([math.atan2(s, c) for s, c in state[:, 6:8].tolist()])
    return BoxArray(
        state[:, 0:3].copy(), size, yaw, state[:, 8:10].copy(),
        np.zeros(n, dtype=np.int64) if class_ids is None else np.asarray(class_ids, np.int64),
        np.ones(n) if scores is None else np.asarray(scores, dtype=float),
    )


class QueryBatch:
    """All queries of one decode pass, batched."""

    def __init__(self, features: T.Tensor, box_state: T.Tensor):
        if features.data.shape[0] != box_state.data.shape[0]:
            raise ValueError("feature/box count mismatch")
        if box_state.data.shape[1] != STATE_DIM:
            raise ValueError(f"box state must have {STATE_DIM} columns")
        self.features = features
        self.box_state = box_state

    @property
    def count(self) -> int:
        return self.features.data.shape[0]

    def centers(self) -> T.Tensor:
        return T.narrow(self.box_state, 1, 0, 3)

    def centers_xy(self) -> T.Tensor:
        return T.narrow(self.box_state, 1, 0, 2)

    def half_extents(self) -> T.Tensor:
        return T.mul(T.exp(T.narrow(self.box_state, 1, 3, 3)), 0.5)

    def yaw_sincos(self) -> T.Tensor:
        return T.narrow(self.box_state, 1, 6, 2)
