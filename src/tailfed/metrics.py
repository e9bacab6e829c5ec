"""Per-device metric profiles, their summaries, and the CSV summary writer.

Percentiles follow the lower-value convention with no interpolation: the
tau-th percentile of a profile is its weighted (1 - tau/100)-quantile, i.e.
the smallest value whose cumulative weight reaches tau/100. Training losses
are summarized under the device sampling weights; test errors are summarized
uniformly across devices.
"""

from __future__ import annotations

import csv

import numpy as np

from .superquantile import WeightedValues, weighted_quantile

METRIC_KINDS = ("train_loss", "test_error")
PERCENTILES = (20, 50, 60, 80, 90, 95)


def table_from_population(pop, kind: str, values) -> WeightedValues:
    """The profile a summary reads over every device of a population.

    values is either one value per device in device order (as the packed
    kernels in tailfed.models return them) or a function of each pop.shards[k].
    Training losses carry the device sampling weights; test errors, each in
    [0, 1], carry uniform weights.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"kind must be one of {METRIC_KINDS}, got {kind!r}")
    if callable(values):
        values = [values(s) for s in pop.shards]
    n = len(pop)
    profile = WeightedValues(values, pop.weights if kind == "train_loss" else np.full(n, 1.0 / n))
    if kind == "test_error":
        outside = profile.values[(profile.values < 0.0) | (profile.values > 1.0)]
        if outside.size:
            raise ValueError(f"test_error values must lie in [0, 1], got {outside[:3].tolist()}")
    return profile


def percentile(profile: WeightedValues, tau: float) -> float:
    """tau-th percentile of the profile: its weighted (1 - tau/100)-quantile."""
    if not (0.0 <= tau < 100.0):
        raise ValueError(f"percentile level must lie in [0, 100), got {tau!r}")
    return weighted_quantile(profile, 1.0 - tau / 100.0)


def summarize(profile: WeightedValues) -> dict[str, float]:
    """Mean and the PERCENTILES as a flat dict: {"mean", "p20", ...}.

    All of them read the one profile, so its values are sorted once.
    """
    out = {"mean": profile.mean()}
    for tau in PERCENTILES:
        out[f"p{int(tau)}"] = percentile(profile, float(tau))
    return out


class SummaryWriter:
    """CSV of summary records written one row at a time, each flushed as written.

    The header is the first record's keys, and the file is created only when
    that record arrives, so a run that dies before its first row leaves no
    file. Every later record must have the same key order. Use as a context
    manager; leaving it closes the file.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._fh = None
        self._writer = None
        self._header: list | None = None

    def write(self, record: dict) -> None:
        if self._fh is None:
            self._header = list(record.keys())
            self._fh = open(self.path, "w", encoding="utf-8", newline="")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(self._header)
        elif list(record.keys()) != self._header:
            raise ValueError("summary records must share one key order")
        self._writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in record.values()])
        self._fh.flush()

    def __enter__(self) -> "SummaryWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.close()

