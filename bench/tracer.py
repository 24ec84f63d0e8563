"""In-memory span recorder that instruments potentia from outside.

``install`` rebinds every public function of the package's modules (and
each name re-bound into a sibling module or the package namespace), the
validating ``__post_init__`` of the invariant-carrying dataclasses, and the
numpy eigen entry points, so that each call inside an open request records a
span: name, start, end, parent span and request id.  Nothing is recorded
outside a request, so the benchmark's own reference checks never count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "qlin", "states", "powers", "arrangements", "entanglement", "bell",
    "locc", "sampling", "families", "fileio", "cli",
)

# Elementwise helpers called inside nearly every other function; spans on
# them would dominate the span count while their O(N^2) work is already
# inside their callers' self time.
UNTRACED = {"as_complex", "dagger", "max_abs", "is_hermitian", "clip_spectrum"}

# Constructors whose ``__post_init__`` re-validates invariants.
VALIDATED = {
    "states": ("DensityOperator",),
    "arrangements": ("ExperimentalArrangement", "DetectorBasis"),
    "powers": ("PowerNode",),
    "locc": ("CPMap",),
}

EIGEN_ENTRY_POINTS = ("eigh", "eigvalsh", "eig", "eigvals")


class Recorder:
    """Spans kept as ``[name, start, end, parent, request]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.request: str | None = None
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.request])

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else None
            span = [name, perf_counter(), None, parent, self.request]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # Count an exception once per layer it leaves.
                if parent is None or self.spans[parent][0].split(".")[0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._open.pop()

        return traced

    def dump(self, path) -> None:
        """Write spans, then one record with the error and byte counters."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"errors": self.errors, "counters": self.counters}) + "\n")


def install(recorder: Recorder) -> None:
    """Route potentia's public functions and numpy's eigen solvers through
    ``recorder``; call after ``import potentia``."""
    import numpy

    package = importlib.import_module("potentia")
    modules = {short: importlib.import_module(f"potentia.{short}") for short in LAYERS}
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in UNTRACED
            ):
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
    wrappers[modules["cli"]._emit] = recorder.wrap("cli.emit", modules["cli"]._emit)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(namespace, attr, wrappers[obj])
    for short, names in VALIDATED.items():
        for name in names:
            cls = getattr(modules[short], name)
            cls.__post_init__ = recorder.wrap(f"{short}.{name}", cls.__post_init__)
    for attr in EIGEN_ENTRY_POINTS:
        setattr(numpy.linalg, attr, recorder.wrap("linalg.eig", getattr(numpy.linalg, attr)))


def load(paths) -> tuple[list[list], Counter, Counter]:
    """Read span files written by ``Recorder.dump``; parents are re-indexed."""
    spans, errors, counters = [], Counter(), Counter()
    for path in paths:
        base = len(spans)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if isinstance(record, dict):
                    errors.update(record["errors"])
                    counters.update(record["counters"])
                    base = len(spans)
                else:
                    if record[3] is not None:
                        record[3] += base
                    spans.append(record)
    return spans, errors, counters


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (duration minus child spans)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name]["calls"] += 1
        totals[name]["self_s"] += (end - start) - child_time[index]
    return totals
