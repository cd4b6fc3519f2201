import os
import struct

import numpy as np
import pytest

from qkattn.data import (FeatureScaler, Split, load_idx, make_split,
                         pca_fit_transform, prepare_image_features,
                         scale_features, synthetic_dataset)


def write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                   label_count=None):
    ip = os.path.join(tmp_path, "images.idx")
    lp = os.path.join(tmp_path, "labels.idx")
    count = images.shape[0]
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, count, 28, 28))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", label_magic,
                             count if label_count is None else label_count))
        fh.write(labels.astype(np.uint8).tobytes())
    return ip, lp


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(30, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=30, dtype=np.uint8)
    ip, lp = write_idx_pair(str(tmp_path), images, labels)
    im, lb = load_idx(ip, lp)
    assert np.array_equal(im, images)
    assert np.array_equal(lb, labels)


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 784), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = write_idx_pair(str(tmp_path), images, labels, image_magic=2052)
    with pytest.raises(ValueError, match="2052"):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 784), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = write_idx_pair(str(tmp_path), images, labels, label_count=4)
    with pytest.raises(ValueError):
        load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip = os.path.join(str(tmp_path), "short.idx")
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, 5, 28, 28))
        fh.write(b"\x00" * 100)
    lp = os.path.join(str(tmp_path), "labels.idx")
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", 2049, 5))
        fh.write(b"\x00" * 5)
    with pytest.raises(ValueError):
        load_idx(ip, lp)


def test_make_split_arithmetic_and_mapping():
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(1400, 784), dtype=np.uint8)
    labels = np.concatenate([np.zeros(700, np.uint8), np.ones(700, np.uint8)])
    split = make_split(images, labels, (0, 1), 550, 500, seed=7)
    assert split.train_y.size == 1000 and split.test_y.size == 100
    assert np.sum(split.train_y == -1) == 500
    assert np.sum(split.test_y == 1) == 50
    assert split.label_map == {0: -1, 1: 1}


def test_make_split_deterministic_and_disjoint():
    rng = np.random.default_rng(2)
    images = np.arange(1200)[:, None] * np.ones((1, 4))
    labels = np.tile([0, 1], 600).astype(np.uint8)
    a = make_split(images, labels, (0, 1), 550, 500, seed=3)
    b = make_split(images, labels, (0, 1), 550, 500, seed=3)
    assert np.array_equal(a.train_x, b.train_x)
    # the feature value identifies the source row, so disjointness is checkable
    assert not set(a.train_x[:, 0]) & set(a.test_x[:, 0])


def test_make_split_insufficient_class():
    images = np.zeros((500, 784), dtype=np.uint8)
    labels = np.zeros(500, dtype=np.uint8)
    with pytest.raises(ValueError):
        make_split(images, labels, (0, 1), 550, 500, seed=0)


def test_make_split_rejects_equal_classes():
    images = np.zeros((1200, 784), dtype=np.uint8)
    labels = np.tile([0, 1], 600).astype(np.uint8)
    with pytest.raises(ValueError, match="classes must differ"):
        make_split(images, labels, (1, 1), 550, 500, seed=0)


def test_pca_exact_subspace_recovery():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 20))
    x = rng.normal(size=(50, 3)) @ base + rng.normal(size=20)
    model, xt, _ = pca_fit_transform(x, x[:4], 3)
    recon = xt @ model.components + model.mean
    assert np.max(np.abs(recon - x)) < 1e-8
    assert np.allclose(model.components @ model.components.T, np.eye(3), atol=1e-8)


def test_pca_sign_convention_and_centering():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 6))
    model, _, _ = pca_fit_transform(x, x, 4)
    for comp in model.components:
        assert comp[np.argmax(np.abs(comp))] > 0
    assert np.max(np.abs(model.transform(model.mean))) < 1e-10


def test_pca_separates_clusters_d1():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 0.1, size=(30, 5))
    a[:, 2] += 4.0
    b = rng.normal(0, 0.1, size=(30, 5))
    _, xt, _ = pca_fit_transform(np.vstack([a, b]), a[:1], 1)
    assert min(xt[:30, 0]) > max(xt[30:, 0]) or max(xt[:30, 0]) < min(xt[30:, 0])


def test_pca_degenerate_input_rejected():
    x = np.ones((10, 5))
    with pytest.raises(ValueError):
        pca_fit_transform(x, x, 2)
    with pytest.raises(ValueError):
        pca_fit_transform(np.random.default_rng(0).normal(size=(5, 3)),
                          np.zeros((1, 3)), 4)


def test_scaler_examples():
    scaler = FeatureScaler.fit(np.array([[0.0], [10.0]]))
    assert np.isclose(scaler.transform([[5.0]])[0, 0], np.pi / 2)
    assert np.isclose(scaler.transform([[12.0]])[0, 0], np.pi)
    assert np.isclose(scaler.transform([[-3.0]])[0, 0], 0.0)


def test_scaler_constant_dimension():
    scaler = FeatureScaler.fit(np.array([[2.0, 1.0], [2.0, 3.0]]))
    out = scaler.transform([[2.0, 1.0]])
    assert np.isclose(out[0, 0], np.pi / 2)
    assert np.isclose(out[0, 1], 0.0)


def test_scale_features_range():
    rng = np.random.default_rng(6)
    train = rng.normal(size=(20, 3)) * 10
    test = rng.normal(size=(8, 3)) * 20
    tr, te = scale_features(train, test)
    assert tr.min() >= 0.0 and tr.max() <= np.pi
    assert te.min() >= 0.0 and te.max() <= np.pi


def test_two_gaussians_linearly_separable():
    split = synthetic_dataset("two-gaussians", 400, 4, 1)
    w = np.zeros(4)
    w[0], w[2] = -1.0, 1.0
    preds = np.where(split.train_x @ w < 0, -1, 1)
    assert np.mean(preds == split.train_y) >= 0.99


def test_two_gaussians_balanced_and_deterministic():
    a = synthetic_dataset("two-gaussians", 100, 4, 9)
    b = synthetic_dataset("two-gaussians", 100, 4, 9)
    assert np.array_equal(a.train_x, b.train_x)
    total = np.concatenate([a.train_y, a.test_y])
    assert np.sum(total == 1) == 50


def test_xor_defeats_unbiased_linear_classifiers():
    split = synthetic_dataset("xor", 400, 2, 2)
    x, y = split.train_x, split.train_y
    best = 0.0
    for ang in np.linspace(0, np.pi, 90, endpoint=False):
        proj = x @ np.array([np.cos(ang), np.sin(ang)])
        pred = np.where(proj < 0, -1, 1)
        best = max(best, np.mean(pred == y), np.mean(-pred == y))
    assert best < 0.62
    # even with a bias the four-cluster layout caps linear accuracy near 0.75
    for ang in np.linspace(0, np.pi, 45, endpoint=False):
        proj = x @ np.array([np.cos(ang), np.sin(ang)])
        for b in np.quantile(proj, np.linspace(0.02, 0.98, 25)):
            pred = np.where(proj - b < 0, -1, 1)
            best = max(best, np.mean(pred == y), np.mean(-pred == y))
    assert best < 0.80


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_dataset("moons", 100, 4, 0)
    with pytest.raises(ValueError):
        synthetic_dataset("xor", 101, 4, 0)
    with pytest.raises(ValueError):
        synthetic_dataset("xor", 100, 1, 0)


def test_prepare_image_features_pipeline():
    rng = np.random.default_rng(7)
    # two fake classes differing in mean intensity of a pixel block
    xa = rng.integers(0, 40, size=(60, 784))
    xa[:, :100] += 180
    xb = rng.integers(0, 40, size=(60, 784))
    xb[:, 400:500] += 180
    split = Split(np.vstack([xa, xb]).astype(float),
                  np.concatenate([np.full(60, -1.0), np.full(60, 1.0)]),
                  np.vstack([xa[:5], xb[:5]]).astype(float),
                  np.concatenate([np.full(5, -1.0), np.full(5, 1.0)]))
    out = prepare_image_features(split, 4, "angle")
    assert out.train_x.shape == (120, 4)
    assert out.train_x.min() >= 0.0 and out.train_x.max() <= np.pi
    out_amp = prepare_image_features(split, 4, "amplitude")
    assert out_amp.train_x.shape == (120, 4)
    # amplitude path skips angle scaling, so projections keep their sign
    assert out_amp.train_x.min() < 0.0
