"""Spans around unsteer's public functions, recorded from outside the package.

install() replaces every public function and method of the layer modules
(states, boxes, decompose, rac, cli) with a recording wrapper, at every module
attribute that holds it: decompose calls box_from_state through
unsteer.decompose.box_from_state, and the benchmark through
unsteer.box_from_state, so both names are wrapped.  numpy.linalg.lstsq and
scipy.optimize.minimize are wrapped too, named by the layer that calls them.
Nothing under src/ changes; uninstall() restores every attribute.

Span names are <module>.<function> (<module>.<Class>.<method> for methods),
the stage names a profile of the program should use.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("states", "boxes", "decompose", "rac", "cli")

# Called once per float while serializing; a span each would measure the tracer.
UNWRAPPED = frozenset({"cli.format_float"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)  # direct recursion: one span
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, unsteer) -> None:
        import numpy.linalg
        import scipy.optimize

        modules = {short: getattr(unsteer, short) for short in LAYERS}
        wrappers: dict[int, tuple] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in UNWRAPPED:
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, OBSERVERS.get(name)))
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{method}"
                            self._set(obj, method, self._wrap(name, fn, OBSERVERS.get(name)))
        for module in (unsteer, *modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, attr, entry[1])

        lstsq, minimize = numpy.linalg.lstsq, scipy.optimize.minimize

        @functools.wraps(lstsq)
        def traced_lstsq(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            name = "decompose.lstsq" if caller == "unsteer.decompose" else "numpy.linalg.lstsq"
            return self.call(name, lstsq, args, kwargs)

        @functools.wraps(minimize)
        def traced_minimize(*args, **kwargs):
            method = str(kwargs.get("method", "")).lower()
            name = {"slsqp": "decompose.slsqp", "nelder-mead": "rac.nelder_mead"}.get(
                method, "scipy.optimize.minimize"
            )
            result = self.call(name, minimize, args, kwargs)
            self.counts[f"{name}.nit"] += int(getattr(result, "nit", 0))
            self.counts[f"{name}.nfev"] += int(getattr(result, "nfev", 0))
            self.counts[f"{name}.converged"] += bool(result.success)
            return result

        self._set(numpy.linalg, "lstsq", traced_lstsq)
        self._set(scipy.optimize, "minimize", traced_minimize)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds (spans not nested in a span of
        the same name) and self seconds (duration minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["busy_s"] += end - start
        return stats

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly on the same inputs."""
        out = {name: s["calls"] for name, s in self.layer_stats().items()}
        out.update(self.counts)
        return out


# -- observers: deterministic counts read off return values -------------------


def _search_observer(counts: Counter, result) -> None:
    cases = getattr(result, "cases", None)
    if cases is not None:
        counts["decompose.search.cases"] += len(cases)
        counts["decompose.search.cases_unresolved"] += sum(1 for _, why in cases if why == "unresolved")


def _certify_observer(counts: Counter, result) -> None:
    counts["decompose.certify.issued"] += 1
    counts["decompose.certify.undecided"] += result.verdict == "UNDECIDED"


def _to_json_observer(counts: Counter, result) -> None:
    counts["decompose.search.trace_bytes"] += len(json.dumps(result["trace"], separators=(",", ":")))


def _sweep_observer(counts: Counter, result) -> None:
    counts["rac.sweep.rows"] += len(result.triples)


OBSERVERS = {
    "decompose.search_lhs_bounded": _search_observer,
    "decompose.certify_quantumness": _certify_observer,
    "decompose.Certificate.to_json_dict": _to_json_observer,
    "rac.sweep_separable_max": _sweep_observer,
}
