"""Object class catalogue shared by the simulator and query generation."""

from __future__ import annotations

import numpy as np

CLASS_NAMES = ("car", "pedestrian", "barrier")

# mean (l, w, h) in meters per class
SIZE_PRIORS = np.array(
    [
        [4.5, 1.9, 1.7],
        [0.7, 0.7, 1.7],
        [2.0, 0.6, 1.0],
    ]
)

# log-normal jitter applied around the size prior when sampling
SIZE_JITTER = 0.08

# mixture used when placing objects and drawing random-query sizes
CLASS_MIX = np.array([0.5, 0.3, 0.2])

# CLASS_MIX's cdf, built as rng.choice builds it: cumsum, then divide by the last entry
_CLASS_CDF = np.cumsum(CLASS_MIX)
_CLASS_CDF /= _CLASS_CDF[-1]

# constant LiDAR return intensity per class (ground clutter uses 0.1)
CLASS_INTENSITY = np.array([0.9, 0.6, 0.35])
CLUTTER_INTENSITY = 0.1

# speed scale (m/s) per class for sampled velocities
SPEED_SCALE = np.array([2.5, 0.8, 0.0])

NUM_CLASSES = len(CLASS_NAMES)

# the simulator's camera feature channels: content, then a positional encoding
CONTENT_CHANNELS = NUM_CLASSES + 8  # one-hot + invdepth + size(3) + sincos + vel(2)
POSENC_CHANNELS = 8


def draw_class(rng: np.random.Generator) -> int:
    """One class index drawn from CLASS_MIX.

    Gives the draw of ``rng.choice(NUM_CLASSES, p=CLASS_MIX)`` and leaves
    ``rng`` where that call leaves it (one ``random()`` and a cdf search),
    without that call's checks of ``p``.
    """
    return int(_CLASS_CDF.searchsorted(rng.random(), side="right"))
