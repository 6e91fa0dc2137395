"""Span tracer for the ioxsim layers.

Wraps the public functions of each layer module, and the public methods of
its classes, in spans.  A wrapper replaces every module attribute that
holds the original function, so names that one module imported from
another with ``from .x import y`` are traced where they are looked up.
Calls made through references the tracer cannot see (for example the CLI's
private dispatch table) stay inside their caller's span.

A span's self time is its duration minus the part of it that child spans
cover.  Children on the same thread are nested and simply summed.  A span
that opens on a worker thread with no open span of its own is a child of
the span open on the main thread at that moment (the CLI's pool is started
from there); such children may overlap, so their union is subtracted.
"""

import dataclasses
import functools
import inspect
import resource
import threading
import time

LAYERS = ("core", "spectra", "dynamics", "bath", "cli", "acceptance")

# scalar-omega calls of these are timed as one group: spectra.scalar_call_us
SCALAR_OMEGA = ("power_spectrum", "reflection", "absorption",
                "scattering_amplitude_single_bath")


class _Span:
    __slots__ = ("name", "stack", "start", "child", "cross")

    def __init__(self, name, stack, start):
        self.name = name
        self.stack = stack
        self.start = start
        self.child = 0.0
        self.cross = []


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Collects per-span call counts, total and self time.

    ``stats`` maps a span name to [calls, total_s, self_s]; ``extra`` holds
    values that are not spans (scalar-call totals, RSS growth).
    """

    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._lock = threading.Lock()
        self._patched = []
        self.reset()

    def reset(self):
        with self._lock:
            self.stats = {}
            self.extra = {"scalar_calls": 0, "scalar_s": 0.0,
                          "oracle_rss_delta_mb": 0.0}

    def enter(self, name):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        span = _Span(name, stack, time.perf_counter())
        stack.append(span)
        return span

    def leave(self, span):
        end = time.perf_counter()
        stack = span.stack
        stack.pop()
        dur = end - span.start
        covered = span.child
        if span.cross:
            covered += _union_length(span.cross, span.start, end)
        if stack:
            stack[-1].child += dur
        elif stack is not self._main_stack and self._main_stack:
            self._main_stack[-1].cross.append((span.start, end))
        with self._lock:
            rec = self.stats.get(span.name)
            if rec is None:
                rec = self.stats[span.name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - covered
        return dur

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (for calls the benchmark makes)."""
        span = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(span)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, scalar=False, rss=False):
        enter, leave, lock = self.enter, self.leave, self._lock

        def wrapper(*args, **kwargs):
            span = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = leave(span)
                if scalar:
                    omega = args[2] if len(args) > 2 else kwargs.get("omega")
                    if (isinstance(omega, (int, float))
                            or getattr(omega, "ndim", 1) == 0):
                        with lock:
                            self.extra["scalar_calls"] += 1
                            self.extra["scalar_s"] += dur

        def build_wrapper(*args, **kwargs):
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                return wrapper(*args, **kwargs)
            finally:
                grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         - rss0) / 1024.0
                with lock:
                    self.extra["oracle_rss_delta_mb"] = max(
                        self.extra["oracle_rss_delta_mb"], grown)

        return functools.wraps(fn)(build_wrapper if rss else wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layers of an imported ioxsim package in place."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    scalar = layer == "spectra" and attr in SCALAR_OMEGA
                    wrappers[obj] = self._wrap("%s.%s" % (layer, attr), obj,
                                               scalar=scalar)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                # BathOracle's constructor is its build step
                name = "%s.%s.build" % (layer, cls.__name__)
                self._set(cls, attr, self._wrap(
                    name, obj, rss=cls.__name__ == "BathOracle"))
            elif not attr.startswith("_"):
                name = "%s.%s.%s" % (layer, cls.__name__, attr)
                self._set(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
