"""Outside-in tracing of the cesaro package for the benchmark's traced run.

Every public function of the layer modules is replaced, in every cesaro
namespace that bound it, by a wrapper that records a span (name, start,
end, parent span, op id).  Spans stay in memory in flat arrays and are
written out once, at the end.  Per-layer self time, inclusive time per
function and the exact work counters are accumulated as spans close, so
the report needs no second pass over the spans.

Work counters are read from outside, from arguments and results only:
suffix-scan passes and terms from ``(horizon, targets)``, weight terms
from array sizes, grid nodes per cascade rule from the returned rows, and
coordinate updates as M * N of each trace.  Nothing inside the package
is edited.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: the package modules, one layer each, in dependency order
LAYERS = ("weights", "criteria", "sections", "spectral", "ergodic", "cli")

#: methods wrapped on the class, named as layer functions
_METHODS = (("weights", "WeightSpec", "log_eval"),
            ("weights", "WeightSpec", "log_tail"))


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _count_suffix(counters, bind, args, kwargs, result, dur):
    a = bind(args, kwargs)
    targets = np.asarray(a["targets"], dtype=np.int64)
    horizon = int(a["horizon"])
    if targets.size == 0 or horizon < 1:
        return
    first = max(1, int(targets[0]))
    if horizon >= first:
        counters["criteria.suffix.passes"] += 1
        counters["criteria.suffix.terms"] += horizon - first + 1


def _count_log_eval(counters, bind, args, kwargs, result, dur):
    n = args[1] if len(args) > 1 else kwargs["n"]
    counters["weights.log_eval.calls"] += 1
    counters["weights.log_eval.terms"] += (
        int(n.size) if isinstance(n, np.ndarray) else 1)


def _count_calls(key):
    def count(counters, bind, args, kwargs, result, dur):
        counters[key] += 1
    return count


def _count_region_scan(counters, bind, args, kwargs, result, dur):
    counters["spectral.nodes"] += len(result)
    for row in result:
        counters["spectral.rule." + row.rule_id] += 1


def _count_updates(steps_arg):
    def count(counters, bind, args, kwargs, result, dur):
        a = bind(args, kwargs)
        work = int(a[steps_arg]) * int(a["N"])
        mode = a["mode"]
        counters["ergodic.updates"] += work
        counters["ergodic.updates." + mode] += work
        counters["ergodic.time_ns." + mode] += int(dur * 1e9)
    return count


#: counters hooked to wrapped functions, by (layer, function name)
_COUNTERS = {
    ("criteria", "suffix_log_sums"): _count_suffix,
    ("criteria", "rw_membership"): _count_calls("criteria.rw_membership.calls"),
    ("weights", "log_eval"): _count_log_eval,
    ("weights", "log_tail"): _count_calls("weights.log_tail.calls"),
    ("spectral", "region_scan"): _count_region_scan,
    ("sections", "distance_to_limit_set"):
        _count_calls("sections.distance_to_limit_set.calls"),
    ("ergodic", "iterate_trace"): _count_updates("M"),
    ("ergodic", "cesaro_averages_trace"): _count_updates("n_max"),
}

#: every cascade rule of spectral.classify_point, reported even when unused
RULES = ("sigma0-membership", "point-spectrum", "s1-disk", "compact-resolvent",
         "resolvent-criterion", "conflicting-certificates", "unclassified")

#: counters that must repeat exactly across two traced runs of one input
COUNT_KEYS = (
    "criteria.suffix.passes", "criteria.suffix.terms",
    "criteria.rw_membership.calls", "weights.log_eval.calls",
    "weights.log_eval.terms", "weights.log_tail.calls", "spectral.nodes",
    "sections.distance_to_limit_set.calls", "ergodic.updates",
    "ergodic.updates.float", "ergodic.updates.rational",
) + tuple("spectral.rule." + r for r in RULES)


class Tracer:
    """Span recorder installed over the imported cesaro modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._active: Counter = Counter()  # open spans per name
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        #: wrapped functions that other layer modules imported by name
        self.bindings: dict[str, list[str]] = {}
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(layer)
        return self._name_ids[name]

    def span(self, name: str, layer: str, fn, args=(), kwargs=None,
             count=None, bind=None):
        """Run ``fn`` inside a span; the benchmark's own ops use this too."""
        kwargs = kwargs or {}
        nid = self._name_id(name, layer)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._active[nid] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        frame = [idx, start, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_end[idx] = end
            dur = end - start
            self._active[nid] -= 1
            if self._active[nid] == 0:
                self.inclusive_s[name] += dur
            self.self_s[layer] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
        if count is not None:
            count(self.counters, bind, args, kwargs, result, dur)
        return result

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        count = _COUNTERS.get((layer, name))
        bind = _bound_args(fn) if count is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(key, layer, fn, args, kwargs, count, bind)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of each layer module, in every
        namespace of the package that bound it, plus the named methods."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for ns in modules:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, bound_name, fn))
                            setattr(ns, bound_name, wrapped)
                            if ns not in (package, mod):
                                self.bindings.setdefault(
                                    f"{layer}.{name}", []).append(ns.__name__)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            fn = vars(cls)[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(layer, meth, fn))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._undo):
            setattr(ns, name, fn)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def save(self, path) -> None:
        """Write every recorded span, with the name table, as one .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self._layer_of),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

    def report(self) -> dict:
        """Per-layer metrics of everything traced so far (seconds, counts)."""
        inc = self.inclusive_s
        c = self.counters
        out = {key: int(c[key]) for key in COUNT_KEYS
               if not key.startswith("ergodic.updates.")}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        timed = {
            "criteria.suffix.s": "criteria.suffix_log_sums",
            "criteria.rw_membership.s": "criteria.rw_membership",
            "criteria.continuity.s": "criteria.continuity_criterion",
            "criteria.compactness.s": "criteria.compactness_criterion",
            "criteria.uw.s": "criteria.uw_quantity",
            "criteria.ratio.s": "criteria.ratio_limsup_test",
            "criteria.t0.s": "criteria.t0_estimate",
            "criteria.s1.s": "criteria.s1_estimate",
            "weights.log_eval.s": "weights.log_eval",
            "weights.log_tail.s": "weights.log_tail",
            "weights.parse.s": "weights.parse_weight",
            "spectral.build_context.s": "spectral.build_context",
            "spectral.point_spectrum.s": "spectral.point_spectrum",
            "spectral.region_scan.s": "spectral.region_scan",
            "spectral.scan_to_csv.s": "spectral.scan_to_csv",
            "ergodic.iterate_trace.s": "ergodic.iterate_trace",
            "ergodic.averages_trace.s": "ergodic.cesaro_averages_trace",
            "sections.resolvent_section.s": "sections.resolvent_section",
            "sections.kernel_power_entry.s": "sections.kernel_power_entry",
        }
        for metric, fn_key in timed.items():
            out[metric] = inc[fn_key]
        nodes = c["spectral.nodes"]
        out["spectral.us_per_node"] = (
            inc["spectral.region_scan"] / nodes * 1e6 if nodes else 0.0)
        for mode in ("float", "rational"):
            work = c["ergodic.updates." + mode]
            out["ergodic.ns_per_update." + mode] = (
                c["ergodic.time_ns." + mode] / work if work else 0.0)
        return out

    def counts(self) -> dict:
        return {key: int(self.counters[key]) for key in COUNT_KEYS}
