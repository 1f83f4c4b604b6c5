"""Datasets: IDX and CIFAR-10 binary loaders, a synthetic crater-like
generator, stratified 50/50 splits, and seeded per-epoch batch plans.

The synthetic task is ring-vs-blob discrimination on 15x15 grayscale
images: positives carry a bright annulus on a noise background, negatives
carry filled blobs with matched intensity, so mean brightness alone does
not separate the classes. It stands in for real crater imagery at the
same scale; it is calibrated to be learnable, not claimed equivalent.
`synth_craters` states the order in which it draws from its random
stream; that order, not the rendering code, fixes every pixel.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .rng import derive_stream
from .tensor import DTYPE

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixel bytes


@dataclass
class Dataset:
    """Images as [N,C,H,W] pixels as stored, plus integer labels.

    File datasets (IDX, CIFAR-10) keep their uint8 bytes: pixel value v
    stands for v / 255, so no range check is needed. Any other input is
    converted to float64 and must be finite and in [0, 1] (the synthetic
    set). ``batch(sel)`` returns the float64 pixels a model takes, made
    only for the examples selected, so a uint8 pool never exists as
    float64 whole.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N,C,H,W], got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images")
        if self.images.dtype != np.uint8:
            self.images = self.images.astype(DTYPE, copy=False)
            if not np.isfinite(self.images).all():
                raise ValueError("images contain non-finite values")
            if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
                raise ValueError("images must be scaled to [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels out of range [0, {self.num_classes})")

    def __len__(self):
        return self.images.shape[0]

    @property
    def sample_shape(self):
        return self.images.shape[1:]

    def batch(self, sel):
        """Float64 pixels in [0,1] of the examples ``sel`` selects (uint8 ones divided by 255)."""
        if self.images.dtype == np.uint8:
            return self.images[sel] / 255.0
        return self.images[sel]


def _read_be_u32(data, offset, path):
    if offset + 4 > len(data):
        raise ValueError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def read_idx(path):
    """Read one IDX file (big-endian magic, dims, raw ubyte payload)."""
    with open(path, "rb") as f:
        data = f.read()
    magic = _read_be_u32(data, 0, path)
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x} at byte 0")
    dims = [_read_be_u32(data, 4 + 4 * i, path) for i in range(ndim)]
    header = 4 + 4 * ndim
    expected = int(np.prod(dims))
    actual = len(data) - header
    if actual != expected:
        raise ValueError(f"{path}: payload at byte {header} has {actual} bytes, expected {expected}")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair; pixels stay uint8 (see Dataset)."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: expected an image file, got {images.ndim} dims")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: expected a label file, got {labels.ndim} dims")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} ({images_path}) != label count {labels.shape[0]} ({labels_path})"
        )
    n, h, w = images.shape
    num_classes = int(labels.max()) + 1 if labels.size else 2
    return Dataset(images.reshape(n, 1, h, w), labels, max(num_classes, 2))


def write_idx_images(path, images_u8):
    """Write [N,H,W] uint8 images in IDX format."""
    images_u8 = np.ascontiguousarray(images_u8, dtype=np.uint8)
    n, h, w = images_u8.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(images_u8.tobytes())


def write_idx_labels(path, labels):
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def load_cifar10_binary(path, max_per_class=None):
    """Load CIFAR-10 binary records (1 label byte + 3072 RGB-plane bytes).

    max_per_class caps each class for desk-scale subsets; records are
    taken in file order. Pixels stay uint8 (see Dataset).
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) == 0 or len(data) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(f"{path}: size {len(data)} is not a positive multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise ValueError(f"{path}: label {labels[bad]} out of range at record {bad} (byte {bad * CIFAR_RECORD_BYTES})")
    if max_per_class is not None:
        # rank of each record within its class, in file order
        order = np.argsort(labels, kind="stable")
        by_class = labels[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - np.searchsorted(by_class, by_class)
        keep = rank < max_per_class
        records = records[keep]
        labels = labels[keep]
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return Dataset(images, labels, 10)


def write_cifar10_binary(path, images_u8, labels):
    """Write [N,3,32,32] uint8 images and labels as CIFAR-10 binary records."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n = images_u8.shape[0]
    if images_u8.shape[1:] != (3, 32, 32) or labels.shape != (n,):
        raise ValueError(f"need [N,3,32,32] images and N labels, got {images_u8.shape} and {labels.shape}")
    records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images_u8.reshape(n, -1)
    records.tofile(path)


# Synthetic generator geometry; tuned so a small two-conv net can learn the
# task within ~100 epochs while leaving room for bad seeds to underperform.
IMAGE_SIZE = 15
NOISE_HIGH = 0.22
RING_RADIUS = (3.0, 4.6)
RING_SHARPNESS = 0.55
BLOB_SIGMA = (1.0, 2.2)
FEATURE_AMP = (0.55, 1.0)
CENTER_JITTER = 1.5
MAX_BLOBS = 3
# Images rendered per broadcast block; keeps temporaries small beside the output.
SYNTH_CHUNK = 64


def _uniform(u, lo, hi):
    """Map raw `Generator.random` draws the way `Generator.uniform(lo, hi)` does."""
    return lo + (hi - lo) * u


def synth_craters(n_pos, n_neg, seed):
    """Deterministic ring (positive) vs blob (negative) 15x15 dataset.

    Draw-order contract: images are made in order, positives first, from
    the (seed, "data_synth") stream. Each image takes its 225 noise values;
    then a positive takes 4 ring parameters (centre y, centre x, radius,
    amplitude), and a negative takes one `integers(1, 4)` blob count k and
    then 4 parameters per blob (centre y, centre x, sigma, amplitude).
    Every value is `lo + (hi - lo) * u` of a uniform draw u. The Python loop
    only draws; rings and blobs are rendered afterwards in blocks of
    SYNTH_CHUNK images with the same float operations as a one-image-at-a-
    time generator, so the pixels are the same bit for bit.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError(f"counts must be >= 1, got n_pos={n_pos}, n_neg={n_neg}")
    rng = derive_stream(seed, "data_synth")
    n = n_pos + n_neg
    images = np.empty((n, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=DTYPE)
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    noise = images.reshape(n, IMAGE_SIZE * IMAGE_SIZE)
    ring_u = np.empty((n_pos, 4))
    blob_u = np.zeros((n_neg, MAX_BLOBS, 4))
    blob_count = np.empty(n_neg, dtype=np.int64)
    for i in range(n_pos):
        rng.random(out=noise[i])
        rng.random(out=ring_u[i])
    for j in range(n_neg):
        rng.random(out=noise[n_pos + j])
        k = int(rng.integers(1, MAX_BLOBS + 1))
        blob_count[j] = k
        rng.random(out=blob_u[j, :k])
    # uniform(0, NOISE_HIGH) is 0.0 + NOISE_HIGH * u; adding 0.0 to u >= 0 changes no bit
    images *= NOISE_HIGH

    # (yy - cy) ** 2 + (xx - cx) ** 2 over the grid is the sum of a squared
    # row offset and a squared column offset, so square 15 of each, not 225
    grid = np.arange(IMAGE_SIZE, dtype=DTYPE)
    mid = (IMAGE_SIZE - 1) / 2.0

    def dist2(cy, cx):
        return ((grid - cy[:, None]) ** 2)[:, :, None] + ((grid - cx[:, None]) ** 2)[:, None, :]

    cy, cx = (mid + _uniform(ring_u[:, :2], -CENTER_JITTER, CENTER_JITTER)).T
    radius = _uniform(ring_u[:, 2], *RING_RADIUS)[:, None, None]
    amp = _uniform(ring_u[:, 3], *FEATURE_AMP)[:, None, None]
    for s in range(0, n_pos, SYNTH_CHUNK):
        c = slice(s, min(s + SYNTH_CHUNK, n_pos))
        # amp * exp(-((d - radius) ** 2) / (2 * RING_SHARPNESS**2)), in place;
        # -a / b and a / -b are the same float
        t = np.sqrt(dist2(cy[c], cx[c]))
        t -= radius[c]
        np.square(t, out=t)
        t /= -(2 * RING_SHARPNESS**2)
        np.exp(t, out=t)
        t *= amp[c]
        images[c, 0] += t

    by, bx = _uniform(blob_u[..., :2], 2.0, IMAGE_SIZE - 3.0).transpose(2, 0, 1)
    sigma = _uniform(blob_u[..., 2], *BLOB_SIGMA)
    # 2 * sigma**2 in Python floats: Python's pow and numpy's square differ in the last bit
    neg_denom = np.array([-2 * v**2 for v in sigma.ravel().tolist()]).reshape(sigma.shape)[..., None, None]
    amp = _uniform(blob_u[..., 3], *FEATURE_AMP)[..., None, None]
    neg = images[n_pos:, 0]
    for s in range(0, n_neg, SYNTH_CHUNK):
        rows = np.arange(s, min(s + SYNTH_CHUNK, n_neg))
        for b in range(MAX_BLOBS):
            rows = rows[blob_count[rows] > b]  # blobs are added in draw order
            # amp * exp(-d2 / (2 * sigma**2)), in place
            t = dist2(by[rows, b], bx[rows, b])
            t /= neg_denom[rows, b]
            np.exp(t, out=t)
            t *= amp[rows, b]
            neg[rows] += t
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels, 2)


def train_half(count):
    """How many of a class's ``count`` examples ``split_50_50`` puts in the train half."""
    return (count + 1) // 2


def split_50_50(dataset, seed):
    """Stratified disjoint halves after a seeded shuffle.

    Per-class counts differ by at most 1 between halves (the train half
    takes an odd class's extra example, ``train_half``); an empty test
    half raises ValueError. Both halves keep the pool's pixel dtype.
    """
    rng = derive_stream(seed, "data_split")
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        idx = idx[rng.permutation(idx.size)]
        half = train_half(idx.size)
        train_idx.append(idx[:half])
        test_idx.append(idx[half:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    if test_idx.size == 0:
        raise ValueError(f"the test half of {len(dataset)} examples is empty: no class has at least 2 examples")

    def subset(idx):
        return Dataset(dataset.images[idx], dataset.labels[idx], dataset.num_classes)

    return subset(train_idx), subset(test_idx)


@dataclass
class BatchPlan:
    """Seeded batch schedule: epoch e's permutation is a pure function of
    (seed, e), so consuming one epoch never shifts another."""

    n: int
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError(f"invalid batch plan: n={self.n}, epochs={self.epochs}, batch_size={self.batch_size}")

    @property
    def batches_per_epoch(self):
        return (self.n + self.batch_size - 1) // self.batch_size

    @property
    def total_batches(self):
        return self.epochs * self.batches_per_epoch

    def permutation(self, epoch):
        return derive_stream(self.seed, "data_order", epoch).permutation(self.n)

    def batches(self, epoch):
        perm = self.permutation(epoch)
        for start in range(0, self.n, self.batch_size):
            yield perm[start : start + self.batch_size]
