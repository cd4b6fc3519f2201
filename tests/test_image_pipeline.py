"""The image-criteria pipeline at full size, offline.

Criteria 5 and 6 need the MNIST and Fashion-MNIST IDX files.  This test
runs the same steps on a synthetic IDX pair of drawn shapes: ``load_idx``,
``make_split`` with 550 per class and 500 of them for training,
``prepare_image_features`` to d=4, and a 1000 + 100 sample n=2 AmHE
``train_loop`` with a test set for seeds 0–2.  The data is fake, so it
checks only shapes, determinism, finiteness and time, never accuracy;
it is never written where ``QKATTN_MNIST_DIR`` or ``QKATTN_FASHION_DIR``
would find it.
"""
import time

import numpy as np

from qkattn.data import load_idx, make_split, prepare_image_features
from qkattn.model import ModelConfig
from qkattn.train import TrainConfig, train_loop
from test_data import write_idx_pair

PER_CLASS = 600


def drawn_shapes(per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """28 × 28 uint8 images, ``per_class`` of each label: 0 is a ring and
    1 a cross, each with a jittered centre and size and faint noise."""
    rng = np.random.default_rng(seed)
    rows, cols = np.mgrid[:28, :28]
    images, labels = [], []
    for label in (0, 1):
        for _ in range(per_class):
            cy, cx = 14 + rng.uniform(-3, 3, size=2)
            size = rng.uniform(5, 9)
            if label == 0:
                ink = np.abs(np.hypot(rows - cy, cols - cx) - size) < 1.5
            else:
                ink = ((np.abs(rows - cy) < 1.5) | (np.abs(cols - cx) < 1.5)) & (
                    np.maximum(np.abs(rows - cy), np.abs(cols - cx)) < size)
            pixels = 220.0 * ink + rng.uniform(0, 30, size=ink.shape)
            images.append(pixels.astype(np.uint8).ravel())
            labels.append(label)
    return np.array(images), np.array(labels, dtype=np.uint8)


def run_seed(images, labels, seed: int):
    split = make_split(images, labels, (0, 1), 550, 500, seed=seed)
    split = prepare_image_features(split, 4, "amplitude")
    record = train_loop(ModelConfig(n=2, encoder="amplitude", ansatz="hea"),
                        split.train_x, split.train_y,
                        TrainConfig(learning_rate=0.09, momentum=0.9, batch_size=30,
                                    steps=120, seed=seed),
                        test_x=split.test_x, test_y=split.test_y)
    return split, record


def test_image_pipeline_at_full_size_on_synthetic_idx(tmp_path):
    start = time.perf_counter()
    ip, lp = write_idx_pair(str(tmp_path), *drawn_shapes(PER_CLASS, seed=5))
    images, labels = load_idx(ip, lp)
    assert images.shape == (2 * PER_CLASS, 784)
    for seed in (0, 1, 2):
        split, record = run_seed(images, labels, seed)
        assert split.train_x.shape == (1000, 4) and split.test_x.shape == (100, 4)
        assert split.train_y.shape == (1000,) and split.test_y.shape == (100,)
        assert record.steps == 120
        assert np.all(np.isfinite(record.loss))
        accs = np.array([record.train_acc, record.test_acc])
        assert np.all((accs >= 0.0) & (accs <= 1.0))
        rerun = run_seed(images, labels, seed)[1]
        assert (rerun.loss, rerun.train_acc, rerun.test_acc) == (
            record.loss, record.train_acc, record.test_acc)
        assert np.array_equal(rerun.params.to_vector(), record.params.to_vector())
    assert time.perf_counter() - start < 30.0
