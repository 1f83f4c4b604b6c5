"""Reference synthetic generator: one image at a time, as the engine first
built it. `randomout.data.synth_craters` must reproduce its images and
labels byte for byte."""

import numpy as np

from randomout.data import (
    BLOB_SIGMA,
    CENTER_JITTER,
    FEATURE_AMP,
    IMAGE_SIZE,
    NOISE_HIGH,
    RING_RADIUS,
    RING_SHARPNESS,
)
from randomout.rng import derive_stream


def loop_synth_craters(n_pos, n_neg, seed):
    """Return (images [N,1,15,15] float64, labels [N] int64)."""
    rng = derive_stream(seed, "data_synth")
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    mid = (IMAGE_SIZE - 1) / 2.0
    images = np.empty((n_pos + n_neg, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    for i in range(n_pos + n_neg):
        img = rng.uniform(0.0, NOISE_HIGH, size=(IMAGE_SIZE, IMAGE_SIZE))
        if i < n_pos:
            cy, cx = mid + rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=2)
            radius = rng.uniform(*RING_RADIUS)
            amp = rng.uniform(*FEATURE_AMP)
            d = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
            img += amp * np.exp(-((d - radius) ** 2) / (2 * RING_SHARPNESS**2))
        else:
            for _ in range(int(rng.integers(1, 4))):
                cy, cx = rng.uniform(2.0, IMAGE_SIZE - 3.0, size=2)
                sigma = rng.uniform(*BLOB_SIGMA)
                amp = rng.uniform(*FEATURE_AMP)
                d2 = (yy - cy) ** 2 + (xx - cx) ** 2
                img += amp * np.exp(-d2 / (2 * sigma**2))
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels
