"""Call-boundary tracing for the benchmark's traced runs.

The tracer replaces the public functions and methods of the package's layer
modules with timing wrappers, in every module namespace that holds them, so
calls between modules are caught as well as calls from the benchmark.  Each
wrapped call adds to its name's aggregate (calls, inclusive time, self time);
the first SPAN_CAP calls of each name are also kept as spans with a parent
id.  Everything stays in memory until the caller asks for it.

Self time is a call's duration minus the durations of the wrapped calls made
inside it, so the self times of all calls plus the root's own self time add
up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

# The package's layers, in the order results are reported.
LAYERS = ("constructions", "model", "ascent", "verification", "cli")

# Per-step accessors the engines call inside their inner loops.  Like the
# private `_delta`, they are left unwrapped: a wrapper there would time the
# tracer rather than the program.
UNWRAPPED = frozenset({"model.DomainSpec.adjacent", "model.DomainSpec.allows"})

# Spans kept per name; later calls of that name only feed its aggregate.
SPAN_CAP = 256


def _span(sid: int, name: str, parent: int, start: float, end: float) -> dict:
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Spans and per-name aggregates of the wrapped calls of one run."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # Per-name hooks that see each call's arguments and return value (step
    # counts, report runtimes); they run after the call's clock has stopped.
    hooks: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- timing ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        clock = self.clock
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, Stat())
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            # frame = [time covered by wrapped children, span id that
            # children name as parent, own span id or -1 past the cap]
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent, -1]
            if stat.calls < SPAN_CAP:
                frame[1] = frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if frame[2] >= 0:
                    spans[frame[2]] = _span(frame[2], name, parent, t0, t1)
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(fn)(traced)

    def root(self, name: str) -> "Root":
        """Context manager for the run's root span (the benchmark's own code)."""
        return Root(self, name)

    # -- installing -------------------------------------------------------------

    def install(self, package, only: frozenset[str] | None = None) -> None:
        """Wrap the layer modules' public callables everywhere they are bound.

        `only` restricts wrapping to the given names (for a light meter);
        None wraps every public function and method.
        """
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [package] + modules
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if self._wanted(name, obj, only):
                        wrapped = self.wrap(name, obj)
                        for ns in namespaces:
                            for key, val in list(vars(ns).items()):
                                if val is obj:
                                    self._set(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(f"{layer}.{attr}", obj, only)

    def _install_class(self, prefix: str, cls, only) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                if self._wanted(name, fn, only):
                    self._set(cls, attr, type(member)(self.wrap(name, fn)))
            elif inspect.isfunction(member) and self._wanted(name, member, only):
                self._set(cls, attr, self.wrap(name, member))

    @staticmethod
    def _wanted(name: str, fn, only) -> bool:
        if name in UNWRAPPED or inspect.isgeneratorfunction(fn):
            return False
        return only is None or name in only

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out

    def span_records(self) -> list[dict]:
        """Finished spans in call order (a parent before its children)."""
        return [s for s in self.spans if s is not None]


class Root:
    """The root span: its self time is the benchmark's own time."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.duration_s = 0.0
        self.self_s = 0.0

    def __enter__(self) -> "Root":
        t = self.tracer
        self._frame = [0.0, len(t.spans), len(t.spans)]
        t.spans.append(None)
        t._stack.append(self._frame)
        self._t0 = t.clock()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t1 = t.clock()
        t._stack.pop()
        self.duration_s = t1 - self._t0
        self.self_s = self.duration_s - self._frame[0]
        t.spans[self._frame[1]] = _span(self._frame[1], self.name, -1, self._t0, t1)
