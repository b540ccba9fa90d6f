"""Outside-in layer trace for kronkit, installed by patching from outside.

Nothing under ``src/`` knows about this module. ``Tracer.installed()``
replaces every binding of each public function of the package's modules
with a wrapper that records a span (name, start, end, parent), and restores
the originals on exit. A function imported by name into another module, such
as ``cli.character_table`` or ``kron.fs_indicators``, is one more binding of
the same object and is patched too, so no call escapes the trace.

``cyclo`` is counted, not timed: ``Cyclotomic`` ring operations and
``euler_phi`` run millions of times per pass, and a span each would cost more
than the work. Their time shows in the self time of the calling layer.

The layer of a span is the module that defines the function; the orbit
kernel's layer is ``kernels``, because metric names may not start with ``_``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter

LAYERS = ("zoo", "groupcore", "chartab", "kron", "orbits", "_kernels", "cli")

# Methods that get spans like the public functions; name -> (class path, attr).
_METHODS = {"groupcore.generating_set": ("kronkit.groupcore.GroupTable", "generating_set")}

# Per-layer metrics in report order. Times are self times in seconds.
METRICS = (
    "zoo.build_s", "zoo.elements",
    "groupcore.self_s", "groupcore.conjugacy_s", "groupcore.generating_set_s",
    "groupcore.classes",
    "chartab.self_s", "chartab.character_table_s", "chartab.tables",
    "chartab.dump_table_s", "chartab.load_table_s", "chartab.fs_indicators_s",
    "chartab.dim_fixed_space_s",
    "cyclo.parse", "cyclo.mul", "cyclo.add",
    "kron.self_s", "kron.kappa_tensor3_s", "kron.kappa_tensor4_s",
    "kron.kappa_entries", "kron.other_s",
    "orbits.self_s", "orbits.simultaneous_classes_s", "orbits.double_cosets_s",
    "orbits.frame_pair_count_s", "orbits.tuples",
    "kernels.orbit_roots_s", "kernels.tuples_per_s",
    "cli.self_s", "cli.render_s", "trace.spans",
)
COUNTS = ("zoo.elements", "groupcore.classes", "chartab.tables", "cyclo.parse",
          "cyclo.mul", "cyclo.add", "kron.kappa_entries", "orbits.tuples",
          "trace.spans")


def _resolve(path: str):
    mod, _, attr = path.rpartition(".")
    return getattr(sys.modules[mod], attr)


def _span_name(module: str, fn: str) -> str:
    layer = module.split(".")[1]
    return ("kernels" if layer == "_kernels" else layer) + "." + fn


class Tracer:
    """Spans and exact counters of the calls made while installed."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []     # (namespace, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][1:3] = start, clock()
                stack.pop()
            if count is not None:
                count(result, args)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name, measure):
        def count(result, args):
            self.counts[name] += measure(result, args)
        return count

    def _built_entries(self, key, fn):
        """Count a kappa tensor's entries when ``fn`` builds it, not on a cache hit."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(T, *args, **kwargs):
            built = key not in T._cache
            result = fn(T, *args, **kwargs)
            if built:
                counts["kron.kappa_entries"] += int(result.size)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def _wrappers(self) -> dict:
        """Map id(original) -> (original, wrapper) for every traced function."""
        special = {
            "zoo.zoo_build": self._count("zoo.elements", lambda r, a: r.order),
            "groupcore.conjugacy_data": self._count("groupcore.classes",
                                                    lambda r, a: r.num_classes),
            "chartab.character_table": self._count("chartab.tables", lambda r, a: 1),
            "kernels.conjugation_orbit_roots": self._count(
                "orbits.tuples", lambda r, a: a[3] ** a[4]),
        }
        built = {"kron.kappa_tensor3": "kappa3", "kron.kappa_tensor4": "kappa4"}
        out = {}
        for layer in LAYERS:
            mod = sys.modules["kronkit." + layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if not (getattr(obj, "__module__", None) or "").startswith(mod.__name__):
                    continue
                name = _span_name(mod.__name__, attr)
                inner = self._built_entries(built[name], obj) if name in built else obj
                out[id(obj)] = (obj, self._span(name, inner, special.get(name)))
        for name, (path, attr) in _METHODS.items():
            fn = vars(_resolve(path))[attr]
            out[id(fn)] = (fn, self._span(name, fn))
        return out

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function, for one block."""
        wrappers = self._wrappers()
        try:
            for mod in [m for n, m in sys.modules.items() if n.startswith("kronkit")]:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._patch(mod, attr, wrappers[id(obj)][1])
            for path, attr in _METHODS.values():
                cls = _resolve(path)
                self._patch(cls, attr, wrappers[id(vars(cls)[attr])][1])
            cyc = _resolve("kronkit.cyclo.Cyclotomic")
            for attr, name in (("__mul__", "cyclo.mul"), ("__rmul__", "cyclo.mul"),
                               ("__add__", "cyclo.add"), ("__radd__", "cyclo.add")):
                self._patch(cyc, attr, self._counter(name, vars(cyc)[attr]))
            self._patch(cyc, "parse", staticmethod(self._counter("cyclo.parse", cyc.parse)))
            yield self
        finally:
            while self._patches:
                namespace, attr, original = self._patches.pop()
                setattr(namespace, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the direct children's."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    def metrics(self) -> dict:
        """Every name in ``METRICS``: exact counts, and self times in seconds."""
        own = self.self_times()
        layer = Counter()
        for name, t in own.items():
            layer[name.split(".")[0]] += t
        out = {name: self.counts[name] for name in COUNTS}
        out["trace.spans"] = len(self.spans)
        out.update({
            "zoo.build_s": layer["zoo"],
            "groupcore.self_s": layer["groupcore"],
            "groupcore.conjugacy_s": own["groupcore.conjugacy_data"],
            "groupcore.generating_set_s": own["groupcore.generating_set"],
            "chartab.self_s": layer["chartab"],
            "chartab.character_table_s": own["chartab.character_table"],
            "chartab.dump_table_s": own["chartab.dump_table"],
            "chartab.load_table_s": own["chartab.load_table"],
            "chartab.fs_indicators_s": own["chartab.fs_indicators"],
            "chartab.dim_fixed_space_s": own["chartab.dim_fixed_space"],
            "kron.self_s": layer["kron"],
            "kron.kappa_tensor3_s": own["kron.kappa_tensor3"],
            "kron.kappa_tensor4_s": own["kron.kappa_tensor4"],
            "kron.other_s": layer["kron"] - own["kron.kappa_tensor3"]
                            - own["kron.kappa_tensor4"],
            "orbits.self_s": layer["orbits"],
            "orbits.simultaneous_classes_s": own["orbits.simultaneous_classes"],
            "orbits.double_cosets_s": own["orbits.double_cosets"],
            "orbits.frame_pair_count_s": own["orbits.frame_pair_count"],
            "kernels.orbit_roots_s": layer["kernels"],
            "kernels.tuples_per_s": (self.counts["orbits.tuples"] / layer["kernels"]
                                     if layer["kernels"] else 0.0),
            "cli.self_s": layer["cli"],
            "cli.render_s": own["cli.render_report"],
        })
        return {name: out[name] if name in COUNTS else float(out[name]) for name in METRICS}

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent id."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over traced passes of each time; counts from the first pass."""
    return {name: (per_pass[0][name] if name in COUNTS
                   else statistics.median(m[name] for m in per_pass))
            for name in METRICS}
