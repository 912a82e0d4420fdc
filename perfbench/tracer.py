"""Per-layer spans around calls into morphocomp's public functions.

The wrappers live here, not in the program: installing them replaces each
traced function in every morphocomp module that imported it, so a call made
through `cli.estimate` or `binary.intrinsic_measures` is timed as well as one
made through the defining module.  Spans are folded into per-name totals as
they close (calls, self time, inclusive time), which keeps the cost per call
to two clock reads and a few dict updates.

Self time is a span's duration minus the time covered by the spans it
directly contains, so the self times of all layers plus the root span's own
self time add up to the root span's duration.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute); a dotted attribute names a class method.
LAYERS = (
    ("rotator.cell_measures", "rotator", "cell_measures"),
    ("rotator.simulate_batch", "rotator", "_simulate_batch"),
    ("rotator.integrate", "rotator", "_integrate"),
    ("rotator.control_force", "rotator", "control_force"),
    ("estimation.read_symbol_series", "estimation", "read_symbol_series"),
    ("estimation.binner_index", "estimation", "Binner.index"),
    ("estimation.estimate", "estimation", "estimate"),
    ("measures.intrinsic_measures", "measures", "intrinsic_measures"),
    ("measures.asoc_a", "measures", "asoc_a"),
    ("measures.asoc_w", "measures", "asoc_w"),
    ("measures.c_a", "measures", "c_a"),
    ("measures.c_w", "measures", "c_w"),
    ("measures.mc_a", "measures", "mc_a"),
    ("measures.mc_w", "measures", "mc_w"),
    ("prob.compose_joint", "prob", "compose_joint"),
    ("prob.cmi", "prob", "conditional_mutual_information"),
    ("binary.point_measures", "binary", "point_measures"),
    ("binary.intrinsic_model", "binary", "intrinsic_model"),
    ("binary.world_joint", "binary", "world_joint"),
    ("cli.write", "cli", "_write_csv"),
    ("cli.write", "cli", "RunManifest.write"),
)

# Classes whose __post_init__ validates a probability object.
VALIDATED = ("Distribution", "Kernel2", "Kernel3", "Joint3")

MODULES = ("prob", "measures", "estimation", "binary", "rotator", "cli")

ROOT = "root"


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._children = []  # time covered by child spans, one slot per open span

    def wrap(self, name, fn, count=None):
        """Return fn timed as a span called `name`.

        `count(args, kwargs)`, if given, runs before the call to update
        self.counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._children.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                self.total_s[name] += elapsed
                if self._children:
                    self._children[-1] += elapsed

        return traced

    def counted(self, counter, fn):
        """Return fn with each call counted in self.counters[counter]."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counting

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
        }


def _count_lanes(tracer):
    def count(args, kwargs):
        theta = kwargs["theta"] if "theta" in kwargs else args[0]
        tracer.counters["rotator.lane_steps"] += getattr(theta, "size", 1)

    return count


def _count_transitions(tracer):
    def count(args, kwargs):
        series = kwargs["series"] if "series" in kwargs else args[0]
        tracer.counters["estimation.transitions"] += len(series)

    return count


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every morphocomp module that holds it.

    A name the program no longer defines is skipped, so its layer reads zero
    calls instead of stopping the benchmark.
    """
    import importlib

    modules = {name: importlib.import_module(f"morphocomp.{name}") for name in MODULES}
    namespaces = [importlib.import_module("morphocomp"), *modules.values()]
    counters = {
        "rotator.integrate": _count_lanes(tracer),
        "estimation.estimate": _count_transitions(tracer),
    }
    for layer, module_name, attribute in LAYERS:
        owner = modules[module_name]
        *class_path, name = attribute.split(".")
        for part in class_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None)
        if original is None:
            continue
        wrapped = tracer.wrap(layer, original, counters.get(layer))
        if class_path:
            setattr(owner, name, wrapped)
            continue
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
    prob = modules["prob"]
    for class_name in VALIDATED:
        cls = getattr(prob, class_name, None)
        if cls is not None and hasattr(cls, "__post_init__"):
            cls.__post_init__ = tracer.counted("prob.objects_validated", cls.__post_init__)
