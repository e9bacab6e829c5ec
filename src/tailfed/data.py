"""Device shards, synthetic populations, and on-disk interchange.

A population is a list of device shards with strictly positive sampling
weights that sum to 1. Every generator derives per-device randomness from a
single root seed so populations are bit-reproducible; device k draws from a
stream keyed by (root seed, k) and is therefore unaffected by how many other
devices exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .superquantile import EPS


@dataclass
class DeviceShard:
    device_id: str
    features: np.ndarray  # (n, p)
    labels: np.ndarray  # (n,)
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(f"device {self.device_id!r}: features must be a non-empty (n, p) array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(f"device {self.device_id!r}: labels must match the number of rows")
        if not (self.weight > 0.0):
            raise ValueError(f"device {self.device_id!r}: weight must be positive")

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True, eq=False)
class PackedShards:
    """Device shards stacked into one feature matrix and one label vector.

    Device k owns rows ``offsets[k] : offsets[k] + sizes[k]``, in shard order,
    so a per-row result reduces to per-device values with
    ``np.add.reduceat(rows, offsets)``. Every size is at least 1.
    """

    features: np.ndarray  # (N, p)
    labels: np.ndarray  # (N,)
    offsets: np.ndarray  # (K,) int64
    sizes: np.ndarray  # (K,) int64

    @classmethod
    def from_shards(cls, shards: list[DeviceShard]) -> "PackedShards":
        sizes = np.array([len(s) for s in shards], dtype=np.int64)
        return cls(
            features=np.concatenate([s.features for s in shards]),
            labels=np.concatenate([s.labels for s in shards]),
            offsets=np.cumsum(sizes) - sizes,
            sizes=sizes,
        )

    def __len__(self) -> int:
        return int(self.sizes.size)

    def select(self, devices) -> "PackedShards":
        """The packed view of the given devices (indices into this view), in that order."""
        idx = np.asarray(devices, dtype=np.int64)
        sizes = self.sizes[idx]
        offsets = np.cumsum(sizes) - sizes
        rows = np.repeat(self.offsets[idx] - offsets, sizes) + np.arange(int(sizes.sum()))
        return PackedShards(np.take(self.features, rows, axis=0), np.take(self.labels, rows), offsets, sizes)


@dataclass
class Population:
    """Device shards with sampling weights: the shards' weights, normalized.

    The shards are held as a tuple and their weights and ids read once, on
    construction; the population never writes its shards or follows edits.
    """

    shards: tuple[DeviceShard, ...]
    feature_dim: int = 0

    def __post_init__(self) -> None:
        self.shards = tuple(self.shards)
        if not self.shards:
            raise ValueError("population needs at least one device")
        dims = {s.features.shape[1] for s in self.shards}
        if len(dims) != 1:
            raise ValueError(f"inconsistent feature dimensions across devices: {sorted(dims)}")
        dim = dims.pop()
        if self.feature_dim == 0:
            self.feature_dim = dim
        elif self.feature_dim != dim:
            raise ValueError(f"feature_dim {self.feature_dim} does not match shard dimension {dim}")
        total = sum(s.weight for s in self.shards)
        if total <= 0.0:
            raise ValueError("device weights must have positive total mass")
        weights = np.array([s.weight for s in self.shards], dtype=np.float64)
        if abs(total - 1.0) > EPS:
            weights = weights / total
        weights.setflags(write=False)
        self._weights = weights
        self._device_ids = [s.device_id for s in self.shards]

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def weights(self) -> np.ndarray:
        """The sampling weights in shard order, as one read-only array."""
        return self._weights

    @property
    def device_ids(self) -> list[str]:
        return list(self._device_ids)

    @cached_property
    def packed(self) -> PackedShards:
        """Every shard in one packed view, built on first use and kept.

        The view copies the shards' rows, so it does not follow later edits
        to the shard list or to shard arrays.
        """
        return PackedShards.from_shards(self.shards)


def weights_by_count(shards: list[DeviceShard]) -> Population:
    """Population whose device weights are proportional to shard sizes."""
    total = sum(len(s) for s in shards)
    return Population([DeviceShard(s.device_id, s.features, s.labels, len(s) / total) for s in shards])


def stream(seed: int, *tags: int) -> np.random.Generator:
    """The random stream named by a seed and nonnegative integer tags.

    Equal to ``default_rng(SeedSequence(entropy=(seed mod 2**63, *tags)))``:
    the seed is masked to 63 bits, since entropy must be nonnegative, so any
    int64 seed works, negative ones included. The tags keep the streams of
    one seed apart (see the README's Reproducibility section), except that
    SeedSequence pads short entropy with zero words: tags that differ only
    by trailing zeros, such as ``()``, ``(0,)`` and ``(0, 0)``, name one stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed) & ((1 << 63) - 1), *tags)))


def gen_gaussian_mixture(means, n_per_device: int, seed: int) -> Population:
    """One device per mean, each holding n draws from an identity-covariance Gaussian.

    Device weights are uniform. Labels are zeros (unused placeholders for the
    squared_distance loss).
    """
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError("means must be a non-empty (N, p) array")
    if n_per_device < 1:
        raise ValueError("n_per_device must be >= 1")
    shards = []
    for k in range(means.shape[0]):
        rng = stream(seed, 0, k)
        X = means[k][None, :] + rng.standard_normal((n_per_device, means.shape[1]))
        shards.append(
            DeviceShard(f"dev{k:03d}", X, np.zeros(n_per_device, dtype=np.int64), 1.0 / means.shape[0])
        )
    return Population(shards)


def gen_hetero_logistic(
    num_devices: int,
    n_range: tuple[int, int],
    feature_dim: int,
    num_classes: int,
    heterogeneity: float,
    seed: int,
) -> Population:
    """Synthetic non-iid classification population.

    A shared base model w_bar is drawn once per seed; device k labels its
    examples with the logistic model w_k = w_bar + heterogeneity * delta_k
    where delta_k has standard normal entries. Device feature clouds are
    also shifted: x ~ N(heterogeneity * c_k, I) with c_k standard normal
    scaled by 1/2, so at heterogeneity 0 every device sees the same
    distribution and the same labeling model. Shard sizes are uniform on
    n_range inclusive; weights are proportional to size.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    lo, hi = int(n_range[0]), int(n_range[1])
    if not (1 <= lo <= hi):
        raise ValueError(f"n_range must satisfy 1 <= lo <= hi, got {n_range!r}")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if heterogeneity < 0.0:
        raise ValueError("heterogeneity must be nonnegative")
    root = stream(seed, 1)
    if num_classes == 2:
        w_bar = root.standard_normal(feature_dim) * (2.0 / np.sqrt(feature_dim))
    else:
        w_bar = root.standard_normal((num_classes, feature_dim)) * (2.0 / np.sqrt(feature_dim))
    shards = []
    for k in range(num_devices):
        rng = stream(seed, 0, k)
        n = int(rng.integers(lo, hi + 1))
        delta = rng.standard_normal(w_bar.shape)
        center = 0.5 * heterogeneity * rng.standard_normal(feature_dim)
        w_k = w_bar + heterogeneity * delta
        X = center[None, :] + rng.standard_normal((n, feature_dim))
        if num_classes == 2:
            prob_pos = 1.0 / (1.0 + np.exp(-(X @ w_k)))
            y = np.where(rng.random(n) < prob_pos, 1, -1).astype(np.int64)
        else:
            scores = X @ w_k.T
            scores -= scores.max(axis=1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=1, keepdims=True)
            u = rng.random(n)
            y = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1).astype(np.int64)
        shards.append(DeviceShard(f"dev{k:03d}", X, y))
    return weights_by_count(shards)


def split_devices(pop: Population, fraction: float, seed: int) -> tuple[Population, Population]:
    """Disjoint covering split of devices; both sides renormalize their weights."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction!r}")
    n = len(pop)
    n_first = int(round(fraction * n))
    if n_first == 0 or n_first == n:
        raise ValueError(f"degenerate split: fraction {fraction} of {n} devices leaves one side empty")
    order = stream(seed, 0x5D17).permutation(n)
    first = sorted(order[:n_first].tolist())
    second = sorted(order[n_first:].tolist())

    def _side(idx: list[int]) -> Population:
        shards = []
        for i in idx:
            s = pop.shards[i]
            shards.append(DeviceShard(s.device_id, s.features, s.labels, float(pop.weights[i])))
        return Population(shards)

    return _side(first), _side(second)


def save_devices_jsonl(pop: Population, path) -> None:
    """One JSON object per line: {"id": ..., "x": [[...]], "y": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in pop.shards:
            y = s.labels.tolist()
            rec = {"id": s.device_id, "x": s.features.tolist(), "y": y}
            fh.write(json.dumps(rec) + "\n")


def load_devices_jsonl(path) -> Population:
    """Read a device file written by save_devices_jsonl.

    Device weights are set proportional to shard sizes. Malformed lines
    raise ValueError naming the line number and, when known, the device id.
    """
    shards: list[DeviceShard] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or not {"id", "x", "y"} <= set(rec):
                raise ValueError(f"line {lineno}: expected keys id, x, y")
            dev = str(rec["id"])
            try:
                X = np.asarray(rec["x"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno} (device {dev!r}): x is not a numeric matrix") from exc
            if X.ndim != 2 or X.shape[0] == 0:
                raise ValueError(f"line {lineno} (device {dev!r}): x must be a non-empty matrix")
            y_raw = rec["y"]
            if not isinstance(y_raw, list) or len(y_raw) != X.shape[0]:
                raise ValueError(f"line {lineno} (device {dev!r}): y must list one label per row of x")
            try:
                y = np.asarray(y_raw, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno} (device {dev!r}): y is not numeric") from exc
            if y.ndim != 1:
                raise ValueError(f"line {lineno} (device {dev!r}): y must be one-dimensional")
            if np.all(y == np.floor(y)):
                y = y.astype(np.int64)
            if dim is None:
                dim = X.shape[1]
            elif X.shape[1] != dim:
                raise ValueError(
                    f"line {lineno} (device {dev!r}): feature dimension {X.shape[1]} != {dim}"
                )
            shards.append(DeviceShard(dev, X, y))
    if not shards:
        raise ValueError(f"{path}: no devices found")
    return weights_by_count(shards)
