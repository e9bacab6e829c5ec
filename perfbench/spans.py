"""Span tracing from outside the program.

A Tracer wraps the public functions of the ``tailfed`` modules, records one
span per call (name, start, end, parent, operation id) plus a few counts
taken from arguments and return values, and puts every module attribute
back when it is closed. Nothing inside ``src/`` is changed: the spans are
recorded at the boundary of each wrapped call.

Spans live in compact arrays so that a traced run of a few million calls
stays within about a hundred megabytes; they are written out once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("models", "federation", "superquantile", "secure_agg", "data", "metrics", "cli")
# Operation id of the spans recorded during set-up.
SETUP_OP = -2

# Parent span -> label for a device loss evaluation. Inside a round the
# first evaluations are the loss reports; those made after local training
# has started only fill the round log (pre/post objective).
ROUND_SPANS = ("federation.deltafl_round", "federation.fedavg_round")
LOSS_PARENTS = {
    "federation.run_federated": "snapshot",
    "metrics.table_from_population": "metrics",
    "federation.solve": "am",
    "federation.am_meta": "am",
}
LOSS_KINDS = ("report", "log", "snapshot", "metrics", "am", "other")


def self_times(durations, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root. Calls
    are sequential in one thread, so children never overlap and their
    durations add.
    """
    dur = np.asarray(durations, dtype=np.float64)
    par = np.asarray(parents, dtype=np.int64)
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def public_functions(module) -> list[str]:
    """Names of the plain functions a module defines and does not mark private."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    )


class Tracer:
    """Records spans around every public ``tailfed`` function while installed.

    Use as a context manager: entering wraps the functions (and every alias
    of them in other ``tailfed`` modules), leaving restores the originals.
    ``op`` is the operation id stamped on new spans: an operation's index,
    SETUP_OP during set-up, -1 otherwise.
    """

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._trained_rounds: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.op][key] += amount

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    # -- per-function probes ----------------------------------------------

    def _loss_label(self) -> str:
        if not self._stack:
            return "other"
        parent = self._stack[-1]
        pname = self.span_name(parent)
        if pname in ROUND_SPANS:
            return "log" if parent in self._trained_rounds else "report"
        return LOSS_PARENTS.get(pname, "other")

    def _wrap(self, qualname: str, fn):
        tracer = self

        if qualname == "models.device_loss":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(f"models.device_loss[{tracer._loss_label()}]")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.finish(idx)

            return wrapper

        if qualname == "federation.local_update":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer._stack:
                    tracer._trained_rounds.add(tracer._stack[-1])
                idx = tracer.begin(qualname)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.finish(idx)

            return wrapper

        if qualname == "federation.solve":

            @functools.wraps(fn)
            def wrapper(self_, value_grad, *args, **kwargs):
                def counted(w):
                    tracer.count("federation.solve.value_grad_evals")
                    return value_grad(w)

                idx = tracer.begin(qualname)
                try:
                    return fn(self_, counted, *args, **kwargs)
                finally:
                    tracer.finish(idx)

            return wrapper

        def probe(args, kwargs, result) -> None:
            if qualname in ROUND_SPANS:
                log = result[1]
                tracer.count("federation.sampled", len(log.sampled_ids))
                tracer.count("federation.survivors", len(log.filtered_ids))
            elif qualname == "secure_agg.masked_weighted_sum":
                contributions = args[0] if args else kwargs["contributions"]
                n = len(contributions)
                dim = np.atleast_1d(np.asarray(contributions[0][0])).size
                # Client i derives a mask for every j != i; each payload
                # carries the weighted vector and its weight.
                tracer.count("secure_agg.pair_masks", n * (n - 1) if n > 1 else 0)
                tracer.count("secure_agg.payload_bytes", n * (dim + 1) * 8)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            probe(args, kwargs, result)
            return result

        return wrapper

    # -- install / restore ------------------------------------------------

    def _targets(self) -> list[tuple[str, object, object]]:
        """(qualified name, owner, original) for every traced function."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            out.extend((f"{short}.{name}", mod, getattr(mod, name)) for name in public_functions(mod))
        solver = sys.modules[f"{self.package.__name__}.federation"].CertifiedGradientDescent
        out.append(("federation.solve", solver, solver.__dict__["solve"]))
        return out

    def __enter__(self) -> "Tracer":
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]
        try:
            for qualname, owner, original in self._targets():
                wrapper = self._wrap(qualname, original)
                # Every alias of the function in any tailfed module is
                # replaced, so calls through `from .x import f` are seen too.
                for mod in [owner] if isinstance(owner, type) else modules:
                    for name, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, name, original))
                            setattr(mod, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextlib.contextmanager
    def operation(self, op: int, root: str = "op"):
        """Install the wrappers and record everything inside under one root span."""
        with self:
            self.op = op
            idx = self.begin(root)
            try:
                yield
            finally:
                self.finish(idx)
                self.op = -1

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        return {
            "name": np.asarray(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op_id, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Spans as a compressed numpy archive: the name table, one array per span
        field, and the counts per operation as a JSON string."""
        counts = json.dumps({op: dict(c) for op, c in self.counts.items()})
        np.savez_compressed(path, names=np.array(self.names), counts=np.array(counts), **self.spans())


# -- per-layer metrics --------------------------------------------------------

# Functions reported as <name>.calls and <name>.self_s per traced operation.
LAYER_FUNCTIONS = (
    "models.batch_grad",
    "models.batch_losses",
    "models.device_grad",
    "models.device_error",
    "federation.local_update",
    "federation.run_federated",
    "federation.solve",
    "federation.am_meta",
    "secure_agg.masked_weighted_sum",
    "secure_agg.plain_weighted_sum",
    "superquantile.weighted_quantile",
    "superquantile.superquantile",
    "superquantile.smoothed_eta_star",
    "superquantile.smoothed_eta_minimizers",
    "superquantile.smoothed_objective",
    "superquantile.smoothed_objective_slope",
    "superquantile.smoothed_device_coefficients",
    "data.load_devices_jsonl",
    "data.split_devices",
    "metrics.table_from_population",
    "metrics.summarize",
    "metrics.summary_export",
)
# Functions that run in set-up, reported per set-up repetition.
SETUP_FUNCTIONS = ("data.gen_hetero_logistic", "data.save_devices_jsonl")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units["models.device_loss.calls"] = "count"
    units["models.device_loss.self_s"] = "s"
    for kind in LOSS_KINDS[:-1]:
        units[f"models.device_loss.{kind}.calls"] = "count"
        units[f"models.device_loss.{kind}.total_s"] = "s"
    units.update(
        {
            "federation.round.calls": "count",
            "federation.round.self_s": "s",
            "federation.round_ms.p50": "ms",
            "federation.round_ms.p95": "ms",
            "federation.survivor_ratio": "ratio",
            "federation.loss_reports_per_round": "count",
            "federation.solve.value_grad_evals": "count",
            "secure_agg.pair_masks": "count",
            "secure_agg.payload_bytes": "bytes",
        }
    )
    for fn in SETUP_FUNCTIONS:
        units[f"setup.{fn}.calls"] = "count"
        units[f"setup.{fn}.self_s"] = "s"
    units["cli.self_s"] = "s"
    units["unattributed_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.share"] = "ratio"
    units["trace.spans_per_op"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_reps: int, overhead_s: float) -> dict[str, float]:
    """Per-layer values: per traced operation, or per set-up repetition for set-up functions.

    Times are self times unless the name says total_s; counts labelled
    pair_masks and payload_bytes are computed from contributor counts.
    """
    s = tracer.spans()
    dur = s["end"] - s["start"]
    own = self_times(dur, s["parent"])
    in_op = s["op"] >= 0
    ops = sorted(set(s["op"][in_op].tolist()))
    n_ops = max(len(ops), 1)
    calls: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    setup_calls: dict[str, float] = defaultdict(float)
    setup_self: dict[str, float] = defaultdict(float)
    round_ms: list[float] = []
    for nid, name in enumerate(tracer.names):
        is_name = s["name"] == nid
        sel = is_name & in_op
        calls[name] = float(sel.sum())
        self_s[name] = float(own[sel].sum())
        total_s[name] = float(dur[sel].sum())
        setup_sel = is_name & (s["op"] == SETUP_OP)
        setup_calls[name] = float(setup_sel.sum())
        setup_self[name] = float(own[setup_sel].sum())
        if name in ROUND_SPANS:
            round_ms.extend((dur[sel] * 1e3).tolist())
    counts: dict[str, float] = defaultdict(float)
    for op in ops:
        for key, val in tracer.counts[op].items():
            counts[key] += val

    out: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        out[f"{fn}.calls"] = calls[fn] / n_ops
        out[f"{fn}.self_s"] = self_s[fn] / n_ops
    loss_names = [f"models.device_loss[{kind}]" for kind in LOSS_KINDS]
    out["models.device_loss.calls"] = sum(calls[n] for n in loss_names) / n_ops
    out["models.device_loss.self_s"] = sum(self_s[n] for n in loss_names) / n_ops
    for kind in LOSS_KINDS[:-1]:
        out[f"models.device_loss.{kind}.calls"] = calls[f"models.device_loss[{kind}]"] / n_ops
        out[f"models.device_loss.{kind}.total_s"] = total_s[f"models.device_loss[{kind}]"] / n_ops
    rounds = sum(calls[n] for n in ROUND_SPANS)
    round_losses = calls["models.device_loss[report]"] + calls["models.device_loss[log]"]
    out.update(
        {
            "federation.round.calls": rounds / n_ops,
            "federation.round.self_s": sum(self_s[n] for n in ROUND_SPANS) / n_ops,
            "federation.round_ms.p50": float(np.percentile(round_ms, 50)) if round_ms else 0.0,
            "federation.round_ms.p95": float(np.percentile(round_ms, 95)) if round_ms else 0.0,
            "federation.survivor_ratio": _ratio(counts["federation.survivors"], counts["federation.sampled"]),
            "federation.loss_reports_per_round": _ratio(round_losses, rounds),
            "federation.solve.value_grad_evals": counts["federation.solve.value_grad_evals"] / n_ops,
            "secure_agg.pair_masks": counts["secure_agg.pair_masks"] / n_ops,
            "secure_agg.payload_bytes": counts["secure_agg.payload_bytes"] / n_ops,
        }
    )
    for fn in SETUP_FUNCTIONS:
        out[f"setup.{fn}.calls"] = setup_calls[fn] / max(setup_reps, 1)
        out[f"setup.{fn}.self_s"] = setup_self[fn] / max(setup_reps, 1)
    module_self = defaultdict(float)
    for name, val in self_s.items():
        module_self[name.split(".", 1)[0]] += val
    op_time = total_s["op"]
    out["cli.self_s"] = module_self["cli"] / n_ops
    out["unattributed_s"] = self_s["op"] / n_ops
    for mod in MODULES:
        out[f"{mod}.share"] = _ratio(module_self[mod], op_time)
    out["trace.spans_per_op"] = float(in_op.sum()) / n_ops
    out["trace.overhead_s"] = overhead_s
    return out
