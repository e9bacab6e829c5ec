"""Populations of devices, synthetic generators, and on-disk interchange.

A population holds every device's rows once, packed, with strictly positive
sampling weights that sum to 1; ``Population.shards`` views each device as a
one-device population. The generators and the device-file parser build each
population with one constructor call on the packed rows, weighting devices by
their row counts. Every generator derives per-device randomness from a single
root seed so populations are bit-reproducible; device k draws from a stream
keyed by (root seed, k) and is therefore unaffected by how many other devices
exist.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import stat
import warnings
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .superquantile import EPS


@dataclass(frozen=True, eq=False)
class Population:
    """Every device's rows, packed, with the devices' ids and sampling weights.

    Device k owns rows ``offsets[k] : offsets[k] + sizes[k]``, in device
    order, so a per-row result reduces to per-device values with
    ``np.add.reduceat(rows, offsets)``. The arrays are read-only views of
    those given (after any dtype conversion), so construction copies no rows;
    the weights are normalized to sum to 1.
    """

    features: np.ndarray  # (N, p)
    labels: np.ndarray  # (N,)
    sizes: np.ndarray  # (K,) int64
    device_ids: tuple[str, ...]
    weights: np.ndarray  # (K,)
    offsets: np.ndarray = field(init=False)  # (K,) each device's first row, from the sizes

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        sizes = np.asarray(self.sizes)
        weights = np.asarray(self.weights, dtype=np.float64)
        ids = tuple(self.device_ids)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("population needs at least one device")
        if features.ndim != 2 or features.shape[1] == 0 or labels.shape != features.shape[:1]:
            raise ValueError(f"features {features.shape} and labels {labels.shape} must be (N, p) and (N,), p >= 1")
        if sizes.dtype.kind not in "iu" or sizes.min() < 1 or sizes.sum() != features.shape[0]:
            raise ValueError(f"device sizes must be integers of at least 1 that sum to the {features.shape[0]} rows")
        sizes = sizes.astype(np.int64, copy=False)
        if len(ids) != sizes.size:
            raise ValueError(f"need one device id per device ({sizes.size}), got {len(ids)}")
        if weights.shape != sizes.shape or not (np.isfinite(weights).all() and weights.min() > 0.0):
            raise ValueError(f"need one finite, positive weight per device ({sizes.size})")
        total = sum(weights.tolist())
        if abs(total - 1.0) > EPS:
            weights = weights / total
        arrays = dict(features=features, labels=labels, sizes=sizes, weights=weights, offsets=np.cumsum(sizes) - sizes)
        for name, value in arrays.items():
            view = value.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        object.__setattr__(self, "device_ids", ids)

    def __len__(self) -> int:
        return int(self.sizes.size)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def shards(self) -> tuple[Population, ...]:
        """Every device as a one-device Population of weight 1 that views its rows, built on first use."""
        cuts = self.offsets[1:]
        rows = zip(np.split(self.features, cuts), np.split(self.labels, cuts), np.split(self.sizes, len(self)))
        return tuple(Population(X, y, n, (d,), (1.0,)) for d, (X, y, n) in zip(self.device_ids, rows))

    def _rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The packed rows of devices idx, in that order, with those devices'
        # sizes and their offsets into the gathered rows.
        sizes = self.sizes[idx]
        offsets = sizes.cumsum() - sizes
        return (self.offsets[idx] - offsets).repeat(sizes) + np.arange(int(sizes.sum())), sizes, offsets

    def select(self, devices) -> "Population":
        """The given devices (indices into this population), in that order, weights renormalized."""
        idx = np.asarray(devices, dtype=np.int64)
        rows, sizes, _ = self._rows(idx)
        return Population(
            np.take(self.features, rows, axis=0),
            np.take(self.labels, rows),
            sizes,
            [self.device_ids[k] for k in idx.tolist()],
            self.weights[idx],
        )


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
    if means.ndim != 2 or means.size == 0 or not np.isfinite(means).all():
        raise ValueError("means must be a non-empty (N, p) array of finite numbers")
    if n_per_device < 1:
        raise ValueError("n_per_device must be >= 1")
    num, dim = means.shape
    X = np.concatenate([means[k] + stream(seed, 0, k).standard_normal((n_per_device, dim)) for k in range(num)])
    labels = np.zeros(num * n_per_device, dtype=np.int64)
    return Population(X, labels, np.full(num, n_per_device), [f"dev{k:03d}" for k in range(num)], np.full(num, 1 / num))


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
    distribution and the same labeling model. Device sizes are uniform on
    n_range inclusive; weights are proportional to size.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    lo, hi = int(n_range[0]), int(n_range[1])
    if not (1 <= lo <= hi):
        raise ValueError(f"n_range must satisfy 1 <= lo <= hi, got {n_range!r}")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if not (0.0 <= heterogeneity < np.inf):
        raise ValueError("heterogeneity must be finite and nonnegative")
    root = stream(seed, 1)
    if num_classes == 2:
        w_bar = root.standard_normal(feature_dim) * (2.0 / np.sqrt(feature_dim))
    else:
        w_bar = root.standard_normal((num_classes, feature_dim)) * (2.0 / np.sqrt(feature_dim))
    Xs, ys = [], []
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
        Xs.append(X)
        ys.append(y)
    sizes = np.array([y.size for y in ys])
    ids = [f"dev{k:03d}" for k in range(num_devices)]
    return Population(np.concatenate(Xs), np.concatenate(ys), sizes, ids, sizes / sizes.sum())


def split_devices(pop: Population, fraction: float, seed: int) -> tuple[Population, Population]:
    """Disjoint covering split of devices; both sides renormalize their weights."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction!r}")
    n = len(pop)
    n_first = int(round(fraction * n))
    if n_first == 0 or n_first == n:
        raise ValueError(f"degenerate split: fraction {fraction} of {n} devices leaves one side empty")
    order = stream(seed, 0x5D17).permutation(n)
    return pop.select(np.sort(order[:n_first])), pop.select(np.sort(order[n_first:]))


def save_devices_jsonl(pop: Population, path) -> None:
    """One JSON object per line: {"id": ..., "x": [[...]], "y": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for dev, a, b in zip(pop.device_ids, pop.offsets.tolist(), (pop.offsets + pop.sizes).tolist()):
            y = pop.labels[a:b]
            # Packing makes every label float64 once one device's is real;
            # write a device of whole-number labels as integers, as it was read.
            if y.dtype.kind == "f" and _whole(y):
                y = y.astype(np.int64)
            # One device's rows as Python floats at a time, not the whole population's.
            fh.write(json.dumps({"id": dev, "x": pop.features[a:b].tolist(), "y": y.tolist()}) + "\n")


def _whole(y: np.ndarray) -> bool:
    # Whole numbers that int64 holds: labels a device file reads as integers.
    return bool(((np.abs(y) < 2.0**63) & (y == np.floor(y))).all())


def load_devices_jsonl(path) -> Population:
    """Read a device file written by save_devices_jsonl.

    Device weights are proportional to device sizes. Malformed lines
    raise ValueError naming the line number and, when known, the device id;
    so do a repeated device id and an id that is neither a string nor an
    integer (an integer id reads as its decimal text).

    Loading a regular file leaves a binary copy of the parsed population
    beside it, at ``<path>.cache.npz``, keyed by a cache-format version and
    the file's byte length and CRC-32. A load whose file still matches that
    key reads the copy instead of decoding JSON; any other load parses the
    file and replaces the copy. A copy that cannot be read or written is
    reported with a RuntimeWarning and the parse is used; deleting the copy
    is always safe. Length plus CRC-32 catches every single-byte edit and
    misses an accidental larger one with probability about 2**-32; it does
    not guard against someone who can write to the directory.
    """
    with open(path, "rb", buffering=0) as raw:
        copy = f"{os.fsdecode(path)}.cache.npz" if stat.S_ISREG(os.fstat(raw.fileno()).st_mode) else None
        if copy is not None:
            pop = _read_copy(copy, raw)
            if pop is not None:
                return pop
            raw.seek(0)
        reader = _Checksummed(raw)
        pop = _parse_devices(io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8"), path)
    if copy is not None:
        _write_copy(copy, pop, (_COPY_VERSION, reader.size, reader.crc))
    return pop


# The binary copy's format; bump it whenever the parse rules or the layout change.
_COPY_VERSION = 1
_CHUNK = 1 << 16


class _Checksummed(io.RawIOBase):
    """A binary file's bytes, passed through unchanged, counting their length and CRC-32."""

    def __init__(self, raw) -> None:
        self.raw, self.size, self.crc = raw, 0, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self.raw.readinto(buf)
        self.size += n
        self.crc = zlib.crc32(memoryview(buf)[:n], self.crc)
        return n


def _read_copy(copy: str, raw) -> Population | None:
    # The population in the copy if its key matches the bytes left in raw,
    # else None (warning first if the copy exists but cannot be read).
    try:
        with np.load(copy, allow_pickle=False) as z:
            key = z["key"]
            if key.dtype != np.int64 or key.shape != (3,):
                raise ValueError(f"key is {key.dtype} {key.shape}, not int64 (3,)")
            reader = _Checksummed(raw)
            while reader.read(_CHUNK):
                pass
            if key.tolist() != [_COPY_VERSION, reader.size, reader.crc]:
                return None
            features, labels, sizes, ids = (z[name] for name in ("features", "labels", "sizes", "ids"))
            if features.dtype != np.float64 or labels.dtype not in (np.int64, np.float64) or sizes.dtype != np.int64:
                raise ValueError(f"arrays are {features.dtype}, {labels.dtype}, {sizes.dtype}")
            if ids.dtype.kind != "U" or ids.ndim != 0:
                raise ValueError(f"ids are {ids.dtype} {ids.shape}, not one string")
            device_ids = json.JSONDecoder().decode(ids.item())
            if not (isinstance(device_ids, list) and all(type(d) is str for d in device_ids)):
                raise ValueError("ids are not a list of strings")
            return Population(features, labels, sizes, device_ids, sizes / sizes.sum())
    except FileNotFoundError:
        return None
    except Exception as exc:  # noqa: BLE001 - any unreadable copy falls back to parsing the file
        message = f"ignoring unreadable device-file copy {copy}: {type(exc).__name__}: {exc}"
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        return None


def _write_copy(copy: str, pop: Population, key: tuple[int, int, int]) -> None:
    # Written to a temporary file and renamed into place, so a reader sees
    # the old copy or the new one, never part of one.
    tmp = f"{copy}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                key=np.array(key, dtype=np.int64),
                features=pop.features,
                labels=pop.labels,
                sizes=pop.sizes,
                ids=np.array(json.dumps(pop.device_ids)),
            )
        os.replace(tmp, copy)
    except OSError as exc:
        warnings.warn(f"could not write device-file copy {copy}: {exc}", RuntimeWarning, stacklevel=3)
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _numbers(values) -> bool:
    # JSON numbers only: np.asarray would also read "1.5" and true as floats.
    return {int, float}.issuperset(map(type, values))


def _parse_devices(lines, path) -> Population:
    Xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    first_line: dict[str, int] = {}  # device id -> its line, in file order
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict) or not {"id", "x", "y"} <= set(rec):
            raise ValueError(f"line {lineno}: expected keys id, x, y")
        if type(rec["id"]) not in (str, int):
            raise ValueError(f"line {lineno}: device id {json.dumps(rec['id'])} is not a string or an integer")
        dev = str(rec["id"])
        if dev in first_line:
            raise ValueError(f"line {lineno}: device id {dev!r} repeats line {first_line[dev]}")
        first_line[dev] = lineno
        x_raw = rec["x"]
        try:
            X = np.asarray(x_raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno} (device {dev!r}): x is not a numeric matrix") from exc
        if X.ndim == 2 and not _numbers(itertools.chain.from_iterable(x_raw)):
            raise ValueError(f"line {lineno} (device {dev!r}): x is not a numeric matrix")
        if not np.isfinite(X).all():
            raise ValueError(f"line {lineno} (device {dev!r}): x has a non-finite value")
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"line {lineno} (device {dev!r}): x must be a non-empty matrix")
        y_raw = rec["y"]
        if not isinstance(y_raw, list) or len(y_raw) != X.shape[0]:
            raise ValueError(f"line {lineno} (device {dev!r}): y must list one label per row of x")
        try:
            y = np.asarray(y_raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno} (device {dev!r}): y is not numeric") from exc
        if y.ndim != 1:
            raise ValueError(f"line {lineno} (device {dev!r}): y must be one-dimensional")
        if not _numbers(y_raw):
            raise ValueError(f"line {lineno} (device {dev!r}): y is not numeric")
        if _whole(y):
            y = y.astype(np.int64)
        elif not np.isfinite(y).all():
            raise ValueError(f"line {lineno} (device {dev!r}): y has a non-finite value")
        if Xs and X.shape[1] != Xs[0].shape[1]:
            raise ValueError(f"line {lineno} (device {dev!r}): feature dimension {X.shape[1]} != {Xs[0].shape[1]}")
        Xs.append(X)
        ys.append(y)
    if not Xs:
        raise ValueError(f"{path}: no devices found")
    sizes = np.array([y.size for y in ys])
    return Population(np.concatenate(Xs), np.concatenate(ys), sizes, list(first_line), sizes / sizes.sum())
