"""In-memory span recorder that wraps the package's public functions from outside.

Each layer module's public functions are replaced, in every `nestedsearch`
module namespace that binds them, by a wrapper that records a span
[name, start, end, parent, op_id].  Calls between modules and within a
module then nest, so a layer's self time is its spans' durations minus the
part covered by child spans.  Nothing under `src/` changes.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("spectral", "schedule", "model", "csp", "dynamics")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "nestedsearch" or name.startswith("nestedsearch.")]
        for layer in LAYERS:
            mod = sys.modules[f"nestedsearch.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def by_name(self) -> dict[str, dict[str, list[float]]]:
        """Per span name: inclusive durations and self times."""
        out: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"dur": [], "self": []})
        for s, st in zip(self.spans, self.self_times()):
            out[s[0]]["dur"].append(s[2] - s[1])
            out[s[0]]["self"].append(st)
        return out
