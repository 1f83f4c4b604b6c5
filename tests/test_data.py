"""Dataset loaders, synthetic generator, splits, and batch plans."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomout.data import (
    CIFAR_RECORD_BYTES,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    BatchPlan,
    Dataset,
    load_cifar10_binary,
    load_idx,
    read_idx,
    split_50_50,
    synth_craters,
    train_half,
    write_cifar10_binary,
    write_idx_images,
    write_idx_labels,
)
from synth_oracle import loop_synth_craters


# --- Dataset container ---


def test_dataset_validation():
    good = Dataset(np.zeros((2, 1, 3, 3)), np.array([0, 1]), 2)
    assert len(good) == 2 and good.sample_shape == (1, 3, 3)
    with pytest.raises(ValueError, match="N,C,H,W"):
        Dataset(np.zeros((2, 3, 3)), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="labels shape"):
        Dataset(np.zeros((2, 1, 3, 3)), np.array([0]), 2)
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.full((1, 1, 2, 2), np.nan), np.array([0]), 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.full((1, 1, 2, 2), 1.5), np.array([0]), 2)
    with pytest.raises(ValueError, match="labels out of range"):
        Dataset(np.zeros((1, 1, 2, 2)), np.array([2]), 2)


def test_dataset_keeps_uint8_pixels_and_scales_each_batch():
    u8 = np.array([[[[0, 1], [128, 255]]], [[[7, 7], [7, 7]]]], dtype=np.uint8)
    ds = Dataset(u8, np.array([0, 1]), 2)
    assert ds.images.dtype == np.uint8 and ds.sample_shape == (1, 2, 2)
    x = ds.batch([0])
    assert x.dtype == np.float64 and x.shape == (1, 1, 2, 2)
    assert x.ravel().tolist() == [0.0, 1 / 255.0, 128 / 255.0, 1.0]
    # any other dtype is stored as float64 and checked, and its batches are its own values
    floats = Dataset(np.full((2, 1, 2, 2), 0.5, dtype=np.float32), np.array([0, 1]), 2)
    assert floats.images.dtype == np.float64 and floats.batch(slice(1, 2)).tolist() == [[[[0.5, 0.5], [0.5, 0.5]]]]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.full((1, 1, 2, 2), 3, dtype=np.int64), np.array([0]), 2)


# --- IDX round trip and rejection ---


def hand_built_idx_pair(tmp_path):
    """Tiny 2x3x3 image file plus labels, assembled byte by byte."""
    pixels = bytes(range(18))  # 0..17
    img_path = tmp_path / "imgs.idx"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 3, 3) + pixels)
    lab_path = tmp_path / "labs.idx"
    lab_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes([1, 0]))
    return img_path, lab_path


def test_read_idx_hand_built_bytes(tmp_path):
    img_path, lab_path = hand_built_idx_pair(tmp_path)
    raw = read_idx(img_path)
    assert raw.shape == (2, 3, 3) and raw.dtype == np.uint8
    assert raw[0, 0, 0] == 0 and raw[1, 2, 2] == 17
    assert read_idx(lab_path).tolist() == [1, 0]


def test_load_idx_scales_and_shapes(tmp_path):
    img_path, lab_path = hand_built_idx_pair(tmp_path)
    ds = load_idx(img_path, lab_path)
    assert ds.images.shape == (2, 1, 3, 3)
    assert ds.images.dtype == np.uint8
    assert ds.batch(slice(None))[1, 0, 2, 2] == pytest.approx(17 / 255.0)
    assert ds.labels.tolist() == [1, 0]


def test_idx_255_maps_to_one(tmp_path):
    p = tmp_path / "white.idx"
    p.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 1, 2, 2) + bytes([255] * 4))
    lp = tmp_path / "l.idx"
    lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 1) + bytes([0]))
    ds = load_idx(p, lp)
    assert ds.batch(slice(None)).max() == 1.0


def test_idx_writer_reader_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 6), dtype=np.uint8)
    labels = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    write_idx_images(tmp_path / "i.idx", images)
    write_idx_labels(tmp_path / "l.idx", labels)
    np.testing.assert_array_equal(read_idx(tmp_path / "i.idx"), images)
    np.testing.assert_array_equal(read_idx(tmp_path / "l.idx"), labels)


def test_idx_bad_magic_reports_position(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    with pytest.raises(ValueError, match=r"bad IDX magic 0xdeadbeef at byte 0"):
        read_idx(p)


def test_idx_truncated_payload_reports_position(tmp_path):
    p = tmp_path / "short.idx"
    p.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 3, 3) + bytes(10))
    with pytest.raises(ValueError, match=r"payload at byte 16 has 10 bytes, expected 18"):
        read_idx(p)


def test_idx_truncated_header_reports_position(tmp_path):
    p = tmp_path / "stub.idx"
    p.write_bytes(struct.pack(">I", IDX_IMAGES_MAGIC) + bytes(3))
    with pytest.raises(ValueError, match="truncated header"):
        read_idx(p)


def test_load_idx_count_mismatch(tmp_path):
    img_path, _ = hand_built_idx_pair(tmp_path)
    lp = tmp_path / "three.idx"
    lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 3) + bytes([0, 1, 0]))
    with pytest.raises(ValueError, match="image count 2 .* != label count 3"):
        load_idx(img_path, lp)


# --- CIFAR-10 binary ---


def test_cifar_single_record(tmp_path):
    record = bytes([7]) + bytes(range(256)) * 12  # label 7 + 3072 pixel bytes
    p = tmp_path / "one.bin"
    p.write_bytes(record)
    ds = load_cifar10_binary(p)
    assert len(ds) == 1 and ds.labels[0] == 7 and ds.num_classes == 10
    assert ds.images.shape == (1, 3, 32, 32)
    # plane order: first 1024 payload bytes are the red plane
    assert ds.batch(slice(None))[0, 0, 0, 1] == pytest.approx(1 / 255.0)


def test_cifar_writer_reader_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
    labels = np.array([3, 9, 0, 3], dtype=np.uint8)
    p = tmp_path / "four.bin"
    write_cifar10_binary(p, images, labels)
    ds = load_cifar10_binary(p)
    np.testing.assert_array_equal(np.round(ds.batch(slice(None)) * 255).astype(np.uint8), images)
    assert ds.labels.tolist() == [3, 9, 0, 3]


def write_cifar10_per_record(path, images_u8, labels):
    """Reference writer: one label byte, then the image's bytes, per record."""
    with open(path, "wb") as f:
        for image, label in zip(np.asarray(images_u8, dtype=np.uint8), np.asarray(labels, dtype=np.uint8)):
            f.write(bytes([label]))
            f.write(image.tobytes())


def max_per_class_loop(labels, max_per_class):
    """Reference selection: walk the file, keep a record while its class is under the cap."""
    keep, counts = [], {}
    for i, lab in enumerate(labels):
        if counts.get(lab, 0) < max_per_class:
            counts[lab] = counts.get(lab, 0) + 1
            keep.append(i)
    return keep


def test_cifar_writer_matches_per_record_writer(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(7, 3, 32, 32), dtype=np.uint8)
    labels = np.array([9, 0, 3, 3, 1, 0, 9])
    write_cifar10_binary(tmp_path / "bulk.bin", images, labels)
    write_cifar10_per_record(tmp_path / "loop.bin", images, labels)
    assert (tmp_path / "bulk.bin").read_bytes() == (tmp_path / "loop.bin").read_bytes()


def test_cifar_writer_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError, match=r"\[N,3,32,32\] images and N labels"):
        write_cifar10_binary(tmp_path / "x.bin", np.zeros((2, 3, 32, 32)), np.zeros(3))
    with pytest.raises(ValueError, match=r"\[N,3,32,32\] images and N labels"):
        write_cifar10_binary(tmp_path / "x.bin", np.zeros((2, 1, 15, 15)), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60),
    max_per_class=st.integers(min_value=1, max_value=8),
)
def test_cifar_max_per_class_matches_loop(tmp_path_factory, labels, max_per_class):
    n = len(labels)
    images = np.zeros((n, 3, 32, 32), dtype=np.uint8)
    images[:, 0, 0, 0] = np.arange(n)  # tag each record with its file position
    path = tmp_path_factory.mktemp("cifar") / "records.bin"
    write_cifar10_binary(path, images, np.array(labels))
    ds = load_cifar10_binary(path, max_per_class=max_per_class)
    keep = max_per_class_loop(labels, max_per_class)
    assert np.round(ds.batch(slice(None))[:, 0, 0, 0] * 255).astype(int).tolist() == keep
    assert ds.labels.tolist() == [labels[i] for i in keep]


def test_cifar_max_per_class_takes_file_order(tmp_path):
    images = np.zeros((6, 3, 32, 32), dtype=np.uint8)
    images[:, 0, 0, 0] = [10, 20, 30, 40, 50, 60]  # tag each record
    labels = np.array([1, 1, 1, 2, 2, 2], dtype=np.uint8)
    p = tmp_path / "six.bin"
    write_cifar10_binary(p, images, labels)
    ds = load_cifar10_binary(p, max_per_class=2)
    assert len(ds) == 4
    tags = np.round(ds.batch(slice(None))[:, 0, 0, 0] * 255).astype(int).tolist()
    assert tags == [10, 20, 40, 50]


def test_cifar_rejects_bad_size(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(bytes(CIFAR_RECORD_BYTES + 1))
    with pytest.raises(ValueError, match=f"not a positive multiple of {CIFAR_RECORD_BYTES}"):
        load_cifar10_binary(p)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="not a positive multiple"):
        load_cifar10_binary(empty)


def test_cifar_rejects_bad_label_with_position(tmp_path):
    good = bytes([1]) + bytes(3072)
    bad = bytes([11]) + bytes(3072)
    p = tmp_path / "bad_label.bin"
    p.write_bytes(good + bad)
    with pytest.raises(ValueError, match=rf"label 11 out of range at record 1 \(byte {CIFAR_RECORD_BYTES}\)"):
        load_cifar10_binary(p)


# --- uint8 storage is the float64 pool, bit for bit ---


def test_file_batches_are_the_old_float64_pixels(tmp_path):
    rng = np.random.default_rng(4)
    u8 = rng.integers(0, 256, size=(30, 5, 7), dtype=np.uint8)
    labels = np.arange(30) % 3
    write_idx_images(tmp_path / "i.idx", u8)
    write_idx_labels(tmp_path / "l.idx", labels)
    cifar_u8 = rng.integers(0, 256, size=(30, 3, 32, 32), dtype=np.uint8)
    write_cifar10_binary(tmp_path / "c.bin", cifar_u8, np.arange(30) % 10)
    loaded = [
        (load_idx(tmp_path / "i.idx", tmp_path / "l.idx"), u8.reshape(30, 1, 5, 7) / 255.0),
        (load_cifar10_binary(tmp_path / "c.bin"), cifar_u8 / 255.0),
    ]
    for ds, old in loaded:  # old: the whole float64 pool, divided up front
        assert ds.images.dtype == np.uint8 and ds.images.nbytes * 8 == old.nbytes
        assert ds.batch(slice(None)).tobytes() == old.tobytes()
        sel = rng.permutation(30)[:16]
        assert ds.batch(sel).tobytes() == old[sel].tobytes()
        # the split of the uint8 pool scales to the split of the float64 pool
        old_halves = split_50_50(Dataset(old, ds.labels, ds.num_classes), seed=3)
        for half, old_half in zip(split_50_50(ds, seed=3), old_halves):
            assert half.images.dtype == np.uint8 and len(half) == len(old_half)
            assert half.batch(slice(None)).tobytes() == old_half.images.tobytes()
            np.testing.assert_array_equal(half.labels, old_half.labels)


# --- synthetic generator ---


def test_synth_deterministic_and_counted():
    a = synth_craters(10, 6, seed=4)
    b = synth_craters(10, 6, seed=4)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert (a.labels == 1).sum() == 10 and (a.labels == 0).sum() == 6
    assert a.images.shape == (16, 1, 15, 15)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_synth_seeds_differ():
    a = synth_craters(4, 4, seed=0)
    b = synth_craters(4, 4, seed=1)
    assert not np.array_equal(a.images, b.images)


def test_synth_odd_counts():
    ds = synth_craters(458, 765, seed=2)
    assert len(ds) == 458 + 765
    assert (ds.labels == 1).sum() == 458


def test_synth_classes_not_separable_by_brightness():
    ds = synth_craters(200, 200, seed=8)
    pos = ds.images[ds.labels == 1].mean()
    neg = ds.images[ds.labels == 0].mean()
    assert abs(pos - neg) < 0.08


# sha256 of synth_craters(500, 500, 0).images.tobytes(), from the one-image-at-a-time generator
SYNTH_500_500_SEED0_SHA256 = "f6b7cea873f8fbc0f46e3cd02c6cade8fb2a0b414494c4c32bd103f6bbfb555b"


@pytest.mark.parametrize(
    "n_pos, n_neg, seed",
    [(500, 500, s) for s in range(20)] + [(1, 1, 0), (458, 765, 2), (3, 70, 2**63 + 11)],
)
def test_synth_matches_loop_oracle_bytes(n_pos, n_neg, seed):
    ds = synth_craters(n_pos, n_neg, seed)
    images, labels = loop_synth_craters(n_pos, n_neg, seed)
    assert ds.images.dtype == images.dtype and ds.images.shape == images.shape
    assert ds.images.tobytes() == images.tobytes()
    np.testing.assert_array_equal(ds.labels, labels)


def test_synth_golden_digest():
    images = synth_craters(500, 500, 0).images
    assert hashlib.sha256(images.tobytes()).hexdigest() == SYNTH_500_500_SEED0_SHA256


@pytest.mark.parametrize("seed", [0, 13])
def test_synth_peak_memory_is_near_the_output(seed):
    synth_craters(2, 2, seed)  # warm imports and caches outside the measurement
    tracemalloc.start()
    try:
        ds = synth_craters(500, 500, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.images.nbytes, (peak, ds.images.nbytes)


def test_synth_count_validation():
    with pytest.raises(ValueError, match="counts must be >= 1"):
        synth_craters(0, 4, seed=0)


# --- split ---


def test_split_is_disjoint_and_stratified():
    ds = synth_craters(20, 20, seed=3)
    train, test = split_50_50(ds, seed=3)
    assert len(train) == 20 and len(test) == 20
    assert (train.labels == 1).sum() == 10 and (test.labels == 1).sum() == 10
    # disjointness: images are a partition of the pool
    pool = {img.tobytes() for img in ds.images}
    halves = [img.tobytes() for img in train.images] + [img.tobytes() for img in test.images]
    assert len(halves) == len(pool) and set(halves) == pool


def test_split_odd_class_gives_extra_to_train():
    ds = synth_craters(5, 4, seed=1)
    train, test = split_50_50(ds, seed=1)
    assert (train.labels == 1).sum() == 3 and (test.labels == 1).sum() == 2
    assert (train.labels == 0).sum() == 2 and (test.labels == 0).sum() == 2


def test_split_deterministic_in_seed():
    ds = synth_craters(12, 12, seed=6)
    t1, _ = split_50_50(ds, seed=9)
    t2, _ = split_50_50(ds, seed=9)
    t3, _ = split_50_50(ds, seed=10)
    np.testing.assert_array_equal(t1.images, t2.images)
    assert not np.array_equal(t1.images, t3.images)


def test_split_rejects_an_empty_test_half():
    # one example per class: each goes to the train half
    ds = Dataset(np.zeros((3, 1, 2, 2)), np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError, match="test half of 3 examples is empty"):
        split_50_50(ds, seed=0)
    train, test = split_50_50(Dataset(np.zeros((3, 1, 2, 2)), np.array([0, 1, 1]), 2), seed=0)
    assert len(train) == 2 and len(test) == 1


def test_split_needs_two_examples():
    ds = Dataset(np.zeros((1, 1, 2, 2)), np.array([0]), 2)
    with pytest.raises(ValueError, match="at least 2"):
        split_50_50(ds, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    n_pos=st.integers(min_value=2, max_value=25),
    n_neg=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_halves_partition_any_pool(n_pos, n_neg, seed):
    ds = Dataset(
        np.random.default_rng(seed % 1000).uniform(size=(n_pos + n_neg, 1, 2, 2)),
        np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)]),
        2,
    )
    train, test = split_50_50(ds, seed)
    assert len(train) + len(test) == len(ds)
    for c, count in ((0, n_neg), (1, n_pos)):
        tr = int((train.labels == c).sum())
        te = int((test.labels == c).sum())
        assert tr + te == count
        assert tr == train_half(count) and tr - te in (0, 1)


# --- batch plan ---


def test_batch_plan_epoch_is_a_permutation():
    plan = BatchPlan(n=23, epochs=3, batch_size=5, seed=7)
    for epoch in range(3):
        seen = np.concatenate(list(plan.batches(epoch)))
        assert sorted(seen.tolist()) == list(range(23))
    assert plan.batches_per_epoch == 5
    assert plan.total_batches == 15


def test_batch_plan_epochs_independent_and_pure():
    plan = BatchPlan(n=16, epochs=2, batch_size=4, seed=5)
    e1_first = plan.permutation(1).tolist()
    # consuming epoch 0 must not shift epoch 1
    list(plan.batches(0))
    assert plan.permutation(1).tolist() == e1_first
    assert plan.permutation(0).tolist() != e1_first


def test_batch_plan_matches_fresh_instance():
    a = BatchPlan(n=10, epochs=1, batch_size=3, seed=2)
    b = BatchPlan(n=10, epochs=1, batch_size=3, seed=2)
    for ba, bb in zip(a.batches(0), b.batches(0)):
        np.testing.assert_array_equal(ba, bb)


def test_batch_plan_last_batch_short():
    plan = BatchPlan(n=7, epochs=1, batch_size=3, seed=0)
    sizes = [len(b) for b in plan.batches(0)]
    assert sizes == [3, 3, 1]


def test_batch_plan_validation():
    with pytest.raises(ValueError, match="invalid batch plan"):
        BatchPlan(n=0, epochs=1, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="invalid batch plan"):
        BatchPlan(n=1, epochs=1, batch_size=0, seed=0)
