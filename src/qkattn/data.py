"""Dataset handling: IDX image files, PCA compression, feature scaling,
and small synthetic datasets for training sanity checks.

Binary labels are always mapped to {-1, +1}: the first class of a pair
becomes -1, the second +1.
"""
from __future__ import annotations

import dataclasses
import struct

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

SYNTHETIC_KINDS = ("two-gaussians", "xor")


def load_idx(image_path, label_path) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image/label file pair.

    Returns (images, labels) with images as a (count, rows*cols) uint8
    array.  Headers are big-endian; the magic numbers, image/label count
    agreement, and payload sizes are all verified.
    """
    with open(image_path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{image_path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"{image_path}: bad image magic {magic} (expected {IDX_IMAGE_MAGIC})")
        payload = fh.read()
    if len(payload) != count * rows * cols:
        raise ValueError(f"{image_path}: expected {count * rows * cols} pixel bytes, "
                         f"found {len(payload)}")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    with open(label_path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError(f"{label_path}: truncated IDX header")
        magic, label_count = struct.unpack(">II", head)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"{label_path}: bad label magic {magic} (expected {IDX_LABEL_MAGIC})")
        label_payload = fh.read()
    if len(label_payload) != label_count:
        raise ValueError(f"{label_path}: expected {label_count} label bytes, "
                         f"found {len(label_payload)}")
    if label_count != count:
        raise ValueError(f"image count {count} and label count {label_count} disagree")
    labels = np.frombuffer(label_payload, dtype=np.uint8)
    return images, labels


@dataclasses.dataclass
class Split:
    """A finished train/test split with ±1 labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    label_map: dict = dataclasses.field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]


def make_split(images, labels, classes: tuple[int, int] = (0, 1),
               per_class_total: int = 550, per_class_train: int = 500,
               seed: int = 0) -> Split:
    """Pick a balanced two-class subset and split it.

    ``per_class_total`` images are drawn per class; the first
    ``per_class_train`` of each go to the train set and the rest to the
    test set.  Class ``classes[0]`` maps to -1, ``classes[1]`` to +1.
    """
    if classes[0] == classes[1]:
        raise ValueError(f"the two classes must differ, got {classes[0]!r} twice")
    if not 1 <= per_class_train < per_class_total:
        raise ValueError(f"'per_class_train' must be at least 1 and below 'per_class_total' "
                         f"({per_class_total}), got {per_class_train}")
    images = np.asarray(images)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    tr_x, tr_y, te_x, te_y = [], [], [], []
    for cls, target in zip(classes, (-1.0, 1.0)):
        idx = np.flatnonzero(labels == cls)
        if idx.size < per_class_total:
            raise ValueError(f"class {cls} has only {idx.size} images, "
                             f"need {per_class_total}")
        picked = rng.choice(idx, size=per_class_total, replace=False)
        tr_x.append(images[picked[:per_class_train]])
        te_x.append(images[picked[per_class_train:]])
        tr_y.append(np.full(per_class_train, target))
        te_y.append(np.full(per_class_total - per_class_train, target))
    split = Split(np.concatenate(tr_x).astype(float), np.concatenate(tr_y),
                  np.concatenate(te_x).astype(float), np.concatenate(te_y),
                  {classes[0]: -1, classes[1]: 1})
    perm = rng.permutation(split.train_y.size)
    split.train_x, split.train_y = split.train_x[perm], split.train_y[perm]
    return split


@dataclasses.dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (d, original_dim), orthonormal rows

    @property
    def d(self) -> int:
        return self.components.shape[0]

    def transform(self, features) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        return (x - self.mean) @ self.components.T


def pca_fit_transform(train, test, d: int) -> tuple[PcaModel, np.ndarray, np.ndarray]:
    """Fit PCA on the train features only and project both sets.

    Components come from the SVD of the centered train matrix; each
    component is flipped so its largest-magnitude entry is positive,
    which makes the projection reproducible across SVD implementations.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    test = np.atleast_2d(np.asarray(test, dtype=float))
    if d > train.shape[1]:
        raise ValueError(f"cannot extract {d} components from "
                         f"{train.shape[1]}-dimensional data")
    if d < 1:
        raise ValueError("need at least one component")
    mean = train.mean(axis=0)
    centered = train - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s.size < d or s[d - 1] <= 1e-12 * max(s[0], 1.0):
        raise ValueError("train data has fewer than d directions of variance")
    comp = vt[:d]
    flips = np.sign(comp[np.arange(d), np.argmax(np.abs(comp), axis=1)])
    comp = comp * flips[:, None]
    model = PcaModel(mean, comp)
    return model, model.transform(train), model.transform(test)


@dataclasses.dataclass
class FeatureScaler:
    """Per-dimension affine map of the train min/max range onto [0, π].

    Constant dimensions map to the midpoint π/2; transformed values are
    clamped into [0, π], so test points outside the train range saturate.
    """

    low: np.ndarray
    span: np.ndarray

    @classmethod
    def fit(cls, train) -> "FeatureScaler":
        x = np.atleast_2d(np.asarray(train, dtype=float))
        if x.size == 0:
            raise ValueError("cannot fit a scaler on empty data")
        low = x.min(axis=0)
        span = x.max(axis=0) - low
        return cls(low, span)

    def transform(self, features) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        const = self.span <= 0
        safe_span = np.where(const, 1.0, self.span)
        out = (x - self.low) / safe_span * np.pi
        out[:, const] = np.pi / 2
        return np.clip(out, 0.0, np.pi)


def scale_features(train, test) -> tuple[np.ndarray, np.ndarray]:
    scaler = FeatureScaler.fit(train)
    return scaler.transform(train), scaler.transform(test)


def synthetic_dataset(kind: str, count: int, d: int, seed: int) -> Split:
    """Deterministic synthetic data.

    two-gaussians: unit-variance clusters whose means sit 6σ apart along
    two different feature axes, so the classes are trivially separable
    but not mere sign-flips of each other (a sign flip is invisible to
    amplitude encoding); it is balanced, ``count / 2`` samples per class.
    xor: four clusters at (±1, ±1) in the first two dimensions with the
    product-of-signs label, which no linear classifier beats.  Each
    sample's corner is drawn at random, so xor is balanced only in
    expectation: at seed 0 with ``count`` 80 its labels split 44/36 (+1/−1),
    35/25 in the train set.  Three quarters of the samples, shuffled, go
    to the train set.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if count < 8 or count % 2:
        raise ValueError("count must be even and at least 8")
    if d < 2:
        raise ValueError("synthetic data needs at least 2 dimensions")
    rng = np.random.default_rng(seed)
    half = count // 2
    if kind == "two-gaussians":
        sep = 3.0 * np.sqrt(2.0)  # per-axis offset giving 6σ mean separation
        xa = rng.normal(0.0, 1.0, size=(half, d))
        xa[:, 0] += sep
        xb = rng.normal(0.0, 1.0, size=(half, d))
        xb[:, min(2, d - 1)] += sep
        x = np.vstack([xa, xb])
        y = np.concatenate([np.full(half, -1.0), np.full(half, 1.0)])
    else:
        corners = rng.integers(0, 2, size=(count, 2)) * 2.0 - 1.0
        x = rng.normal(0.0, 0.2, size=(count, d))
        x[:, :2] += corners
        y = corners[:, 0] * corners[:, 1]
    perm = rng.permutation(count)
    x, y = x[perm], y[perm]
    cut = (3 * count // 4) & ~1  # even train count keeps the split near-balanced
    return Split(x[:cut], y[:cut], x[cut:], y[cut:], {-1: -1, 1: 1})


def prepare_image_features(split: Split, d: int, encoder: str) -> Split:
    """The image pipeline: pixels to [0,1], PCA to d dims, and angle
    scaling when the encoder needs bounded rotation angles."""
    train = split.train_x / 255.0
    test = split.test_x / 255.0
    _, train, test = pca_fit_transform(train, test, d)
    if encoder == "angle":
        train, test = scale_features(train, test)
    return Split(train, split.train_y, test, split.test_y, split.label_map)
