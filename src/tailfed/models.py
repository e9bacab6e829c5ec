"""Loss models evaluated per example, per batch, and per device shard.

Three families are supported, each with analytic gradients and an optional
ridge term (reg/2)*||w||^2 folded into every loss value:

* ``squared_distance``: f(w; x) = ||x - w||^2, labels ignored.
* ``binary_logistic``: log(1 + exp(-y <w, x>)) with labels y in {-1, +1}.
* ``multinomial_logistic``: cross entropy of a C-way linear softmax; the
  parameter vector is the row-major flattening of the (C, p) weight matrix.

Every gradient, from one example to every device of a round, is one
formula: ``_row_grads``, a row-weighted sum of per-example gradients; every
loss is ``batch_losses``. Both read the parameters through ``_margins``.
The ``packed_*`` kernels evaluate every device of a
``tailfed.data.Population`` in one vectorized pass: one matmul over its
packed rows, then ``np.add.reduceat`` over the device segments.
``_packed_point`` evaluates the values once per parameter vector and hands
their margins to every gradient taken there, and ``_local_sgd`` trains
every device with visits in lockstep. The per-point and per-device
functions (``point_loss``, ``point_grad``, ``device_loss``, ``device_error``)
are the same formulas on one example or on the rows of one device, such as
a one-device population from ``Population.shards``; the independent
references live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

LOSS_KINDS = ("squared_distance", "binary_logistic", "multinomial_logistic")


class LossSpec:
    """A loss family, its ridge weight and (multinomial) class count; read-only once built."""

    def __init__(self, kind: str, l2_reg: float = 0.0, num_classes: int = 2) -> None:
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
        if not (0.0 <= l2_reg < np.inf):
            raise ValueError(f"l2_reg must be finite and nonnegative, got {l2_reg!r}")
        if kind == "multinomial_logistic" and num_classes < 2:
            raise ValueError("multinomial_logistic needs num_classes >= 2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "l2_reg", l2_reg)
        object.__setattr__(self, "num_classes", num_classes)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: LossSpec is read-only")

    def param_dim(self, feature_dim: int) -> int:
        if self.kind == "multinomial_logistic":
            return self.num_classes * feature_dim
        return feature_dim


def init_params(spec: LossSpec, feature_dim: int) -> np.ndarray:
    return np.zeros(spec.param_dim(feature_dim), dtype=np.float64)


def _check_params(spec: LossSpec, w: np.ndarray, feature_dim: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    expected = spec.param_dim(feature_dim)
    if w.shape != (expected,):
        raise ValueError(f"parameter vector must have shape ({expected},), got {w.shape}")
    return w


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    # Max subtraction keeps the exponentials in range.
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow for large |z|.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def batch_losses(spec: LossSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses, ridge term included, as a length-n vector."""
    X = np.asarray(X, dtype=np.float64)
    w = _check_params(spec, w, X.shape[1])
    y = _labels_for(spec, y)
    return _row_losses(spec, w, X, y, _margins(spec, w, X, y))


def _row_losses(spec: LossSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray, margins) -> np.ndarray:
    # batch_losses on checked parameters, converted labels and their margins.
    reg = 0.5 * spec.l2_reg * float(np.dot(w, w))
    if spec.kind == "squared_distance":
        diff = X - w[None, :]
        return np.einsum("ij,ij->i", diff, diff) + reg
    if spec.kind == "binary_logistic":
        return _softplus(-margins) + reg
    return -margins[np.arange(X.shape[0]), y] + reg


def point_loss(spec: LossSpec, w: np.ndarray, x: np.ndarray, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(batch_losses(spec, w, x[None, :], np.asarray([y]))[0])


def point_grad(spec: LossSpec, w: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    w = _check_params(spec, w, x.size)
    y, c = _labels_for(spec, np.asarray([y])), np.ones(1)
    return _row_grads(spec, w, x[None, :], y, c, _grad_factor(spec, y, c)) + spec.l2_reg * w


def device_loss(spec: LossSpec, w: np.ndarray, shard) -> float:
    """Mean per-example loss over a device's rows (``shard.features``, ``shard.labels``)."""
    return float(batch_losses(spec, w, shard.features, shard.labels).mean())


def predict(spec: LossSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Hard class predictions. Ties resolve to the lowest class index."""
    X = np.asarray(X, dtype=np.float64)
    w = _check_params(spec, w, X.shape[1])
    if spec.kind == "squared_distance":
        raise ValueError("squared_distance has no classification rule")
    if spec.kind == "binary_logistic":
        # Zero margin counts as the negative class.
        return np.where(X @ w > 0.0, 1, -1)
    W = w.reshape(spec.num_classes, X.shape[1])
    return np.argmax(X @ W.T, axis=1)


def device_error(spec: LossSpec, w: np.ndarray, shard) -> float:
    """Fraction of a device's examples the hard prediction gets wrong."""
    preds = predict(spec, w, shard.features)
    return float(np.mean(preds != _labels_for(spec, shard.labels)))


# ---------------------------------------------------------------------------
# Packed kernels: every device of a Population in one pass.


# The label rule, per loss: (rule, labels y, num_classes C -> the labels that
# break it), checked in order. _labels_for enforces it on every kernel's
# labels, and the CLI names the device that breaks it.
_LABEL_RULES = {
    "squared_distance": (),
    "binary_logistic": (("kind binary_logistic needs labels -1/+1", lambda y, C: np.abs(y) != 1),),
    "multinomial_logistic": (
        ("kind multinomial_logistic needs class labels 0..C-1", lambda y, C: (y < 0) | (y != np.floor(y))),
        ("num_classes {C} needs class labels below it", lambda y, C: y >= C),
    ),
}


def _label_fault(spec: LossSpec, labels: np.ndarray) -> tuple[str, np.ndarray] | None:
    # The first rule the labels break, with the mask of those that break it, or None.
    for rule, breaks in _LABEL_RULES[spec.kind]:
        bad = breaks(labels, spec.num_classes)
        if bad.any():
            return rule.format(C=spec.num_classes), bad
    return None


def _labels_for(spec: LossSpec, labels: np.ndarray) -> np.ndarray:
    # The labels, once they keep the rule (checked before the cast, which would
    # truncate class 1.5 to 1): class indices for the softmax, real values otherwise.
    labels = np.asarray(labels)
    if (fault := _label_fault(spec, labels)) is not None:
        raise ValueError(f"{fault[0]}, got label {float(labels[fault[1]][0]):g}")
    return labels.astype(np.int64 if spec.kind == "multinomial_logistic" else np.float64, copy=False)


def _margins(spec: LossSpec, W: np.ndarray, X: np.ndarray, y: np.ndarray):
    # What a loss and its gradient both read of W: y * <w, x> per row
    # (binary), each row's class log-probabilities (multinomial), None for
    # squared distance. Shapes broadcast as in _row_grads.
    if spec.kind == "binary_logistic":
        return y * (X @ W[..., None])[..., 0]
    if spec.kind == "multinomial_logistic":
        Wm = W.reshape(W.shape[:-1] + (spec.num_classes, X.shape[-1]))
        return _log_softmax(X @ np.swapaxes(Wm, -1, -2))
    return None


def _grad_factor(spec: LossSpec, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    # What _row_grads reads of row weights c and converted labels y but not of
    # W: sum_i c_i, -c_i * y_i, or each row's one-hot class mask.
    if spec.kind == "squared_distance":
        return c.sum(axis=-1)[..., None]
    if spec.kind == "binary_logistic":
        return -c * y
    return y[..., None] == np.arange(spec.num_classes)


def _row_grads(
    spec: LossSpec, W: np.ndarray, X: np.ndarray, y: np.ndarray, c: np.ndarray, factor: np.ndarray, margins=None
) -> np.ndarray:
    """Row-weighted gradient sum_i c_i * grad f(W; x_i, y_i), ridge term excluded.

    Shapes broadcast over leading axes: X is (..., n, p), W is (..., d), and
    y (converted by _labels_for) and c are (..., n). With X (n, p) this is
    one parameter vector over n rows; with X (k, b, p) it is k independent
    batches, each with its own row of W. ``factor`` is _grad_factor(spec,
    y, c), and ``margins`` are _margins at W, if the caller has them.
    """
    def weighted_sum(r: np.ndarray) -> np.ndarray:
        # sum_i r_i x_i over the row axis: (..., n) -> (..., p)
        return (r[..., None, :] @ X)[..., 0, :]

    if spec.kind == "squared_distance":
        # grad ||x - w||^2 = 2 (w - x)
        return 2.0 * (factor * W - weighted_sum(c))
    if margins is None:
        margins = _margins(spec, W, X, y)
    if spec.kind == "binary_logistic":
        # d/dm log(1+exp(-m)) = -sigmoid(-m); margins below -500 give 1 either way
        return weighted_sum(factor / (1.0 + np.exp(np.minimum(margins, 500.0))))
    probs = np.exp(margins)
    probs -= factor
    return (np.swapaxes(probs * c[..., None], -1, -2) @ X).reshape(W.shape)


def packed_losses(spec: LossSpec, w: np.ndarray, packed) -> np.ndarray:
    """Every device's mean loss (ridge term included), in device order."""
    w = _check_params(spec, w, packed.features.shape[1])
    return _device_losses(spec, w, packed.features, _labels_for(spec, packed.labels), packed.offsets, packed.sizes)


def _device_losses(spec: LossSpec, w: np.ndarray, X, y, offsets, sizes, margins=None) -> np.ndarray:
    # packed_losses on checked parameters and the packed rows X, y (labels
    # converted) of devices with the given offsets and sizes; margins are
    # _margins at w, if the caller has them.
    if margins is None:
        margins = _margins(spec, w, X, y)
    return np.add.reduceat(_row_losses(spec, w, X, y, margins), offsets) / sizes


def packed_errors(spec: LossSpec, w: np.ndarray, packed) -> np.ndarray:
    """Every device's fraction of misclassified examples, in device order."""
    wrong = predict(spec, w, packed.features) != _labels_for(spec, packed.labels)
    return np.add.reduceat(wrong.astype(np.int64), packed.offsets) / packed.sizes


def _packed_point(spec: LossSpec, packed):
    """One evaluation per parameter vector of every device's mean loss F_k.

    Returns point(w) -> (every F_k(w) in device order, coeff -> sum_k
    coeff[k] * grad F_k(w)). The gradient reads the margins of the value
    pass instead of recomputing them, and its own copy of w; the labels are
    converted once, here, for every point. The values' bytes equal
    packed_losses, and the gradient's equal a pass that computes the margins
    afresh.
    """
    X, sizes = packed.features, packed.sizes
    y = _labels_for(spec, packed.labels)

    def point(w: np.ndarray):
        w = _check_params(spec, w, X.shape[1]).copy()
        margins = _margins(spec, w, X, y)
        values = _device_losses(spec, w, X, y, packed.offsets, sizes, margins)

        def weighted_grad(coeff) -> np.ndarray:
            coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != sizes.shape:
                raise ValueError(f"need one coefficient per device ({sizes.size}), got shape {coeff.shape}")
            c = np.repeat(coeff / sizes, sizes)
            grad = _row_grads(spec, w, X, y, c, _grad_factor(spec, y, c), margins)
            return grad + float(coeff.sum()) * spec.l2_reg * w

        return values, weighted_grad

    return point


def _local_sgd(spec: LossSpec, w: np.ndarray, X, y, order, counts, lr: float, batch_size: int) -> np.ndarray:
    """Mini-batch SGD on every device of packed rows X, y at once, all starting from w.

    ``order`` holds the rows to visit, grouped by device in device order,
    ``counts[k]`` of them device k's. Device k walks its rows in consecutive
    batches of batch_size and takes one step of size lr on each batch's mean
    loss; a partial last batch averages over its rows. Devices run in
    lockstep: batches are padded to batch_size and step counts to the longest
    device's, and padded rows and steps are masked, so a device stops once
    its own rows are spent. Returns one row of final parameters per device
    with visits, in device order. The caller checks w, converts the labels
    y with _labels_for and draws the orders.
    """
    active = counts.nonzero()[0]
    steps = -(-counts[active] // batch_size)
    # Longest walks first, so the devices still walking at step s are a prefix.
    by_steps = (-steps).argsort(kind="stable")
    dev = active[by_steps]
    n, start = counts[dev], (counts.cumsum() - counts)[dev]
    num_steps = int(steps.max(initial=0))
    # Step-major table: slot (s, j, b) holds the (s * batch_size + b)-th row
    # walking device j visits, weighted 1/m in its batch of m rows, and the
    # gradient factor of that weight. Padding points at row 0 and weighs 0;
    # "clip" keeps its index in range.
    pos = np.arange(num_steps * batch_size).reshape(num_steps, 1, batch_size)
    filled = pos < n[:, None]
    rows = np.where(filled, order.take(start[:, None] + pos, mode="clip"), 0)
    left = n[:, None] - pos[..., :1]  # visits each device has left at step s
    coeff = filled / np.maximum(np.minimum(left, batch_size), 1)
    X, y = X.take(rows, axis=0), y.take(rows)
    factor = _grad_factor(spec, y, coeff)
    walking = filled[:, :, 0].sum(axis=1).tolist()
    W = np.full((n.size, w.size), w)
    for s, a in enumerate(walking):
        Wa = W[:a]
        Wa -= lr * (_row_grads(spec, Wa, X[s, :a], y[s, :a], coeff[s, :a], factor[s, :a]) + spec.l2_reg * Wa)
    out = np.empty_like(W)
    out[by_steps] = W
    return out
