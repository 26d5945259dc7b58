"""Span tracing of the ``avoiders`` package, installed from outside it.

``install`` wraps the public functions of each package module, the
arithmetic methods of ``PowerSeries`` and ``cli.main``, and rebinds every
name that refers to the original function.  The package imports with
``from .perms import contains``, so ``bijection.contains`` and
``verify.contains`` are separate bindings; module-level dict tables such as
``cli.SERIES_BUILDERS`` hold references too.

Each call is a span with a name, start, end, parent span and request id.  A
generator is one span whose busy time is the sum of the time spent inside
each ``next``.  A span's self time is its busy time minus its child spans'.
Every span is kept in memory, packed seven numbers to a span in one
``array``, and written out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("perms", "enumeration", "bijection", "series", "verify")
SERIES_METHODS = {"__mul__": "mul", "__add__": "add", "__sub__": "sub",
                  "reciprocal": "reciprocal"}
SERIES_BUILDERS = ("catalan_series", "gf_start_small", "gf_full", "kotesovec_series")
#: Inner span measured only while an outer module is on the stack:
#: ``perms.contains`` under ``bijection`` is the bijection's validation work.
NESTED = {"perms.contains": "bijection"}
SPAN_FIELDS = ("span", "name", "parent", "request", "start", "end", "busy")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self.module_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []  # outermost spans of each name only
        self.yielded: list[int] = []
        self.nested_s: dict[str, float] = {}
        self.module_incl_s: dict[str, float] = {}
        self.max_coeff_digits = 0
        self.hook_s = 0.0
        self.request = 0
        self.spans = array("d")  # SPAN_FIELDS, one span after another
        self._depth: list[int] = []
        self._module_depth: dict[str, int] = {}
        self._nested_outer: dict[int, str] = {}
        self._stack: list[list] = []
        self._next_span = 1
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _register(self, name: str, module: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self.module_of.append(module)
        for table in (self.calls, self.yielded, self._depth):
            table.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._module_depth.setdefault(module, 0)
        self.module_incl_s.setdefault(module, 0.0)
        if name in NESTED:
            self._nested_outer[nid] = NESTED[name]
            self.nested_s[name] = 0.0
        return nid

    def _new_span(self) -> int:
        span = self._next_span
        self._next_span += 1
        return span

    def _enter(self, nid: int, span: int) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else 0
        self._depth[nid] += 1
        self._module_depth[self.module_of[nid]] += 1
        frame = [nid, span, parent, 0.0, 0.0]  # ..., start, child time
        stack.append(frame)
        frame[3] = self.clock()
        return frame

    def _exit(self, frame: list) -> tuple[float, float]:
        end = self.clock()
        nid, _, _, start, child = frame
        stack = self._stack
        stack.pop()
        busy = end - start
        self.self_s[nid] += busy - child
        if stack:
            stack[-1][4] += busy
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.incl_s[nid] += busy
        module = self.module_of[nid]
        self._module_depth[module] -= 1
        if not self._module_depth[module]:
            self.module_incl_s[module] += busy
        outer = self._nested_outer.get(nid)
        if outer is not None and self._module_depth[outer]:
            self.nested_s[self.names[nid]] += busy
        return end, busy

    def _record(self, span, nid, parent, request, start, end, busy) -> None:
        self.spans.extend((span, nid, parent, request, start, end, busy))

    def discount(self, seconds: float) -> None:
        """Charge ``seconds`` just spent outside the package (a tracer hook,
        a reading of the host's speed) to nobody's self time."""
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][4] += seconds

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, module: str, fn, hook=None):
        nid = self._register(name, module)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[nid] += 1
                return self._drive(nid, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            span = self._new_span()
            frame = self._enter(nid, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end, busy = self._exit(frame)
                self._record(span, nid, frame[2], self.request, frame[3], end, busy)
            if hook is not None:
                t0 = self.clock()
                hook(self, result)
                self.discount(self.clock() - t0)
            return result
        return traced

    def _drive(self, nid: int, gen):
        span = self._new_span()
        parent = self._stack[-1][1] if self._stack else 0
        request = self.request
        start = end = None
        busy = 0.0
        try:
            while True:
                frame = self._enter(nid, span)
                if start is None:
                    start = frame[3]
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end, step = self._exit(frame)
                    busy += step
                self.yielded[nid] += 1
                yield item
        finally:
            gen.close()
            if start is not None:
                self._record(span, nid, parent, request, start, end, busy)

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "avoiders" and not mod_name.startswith("avoiders."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._patches.append((value, key, original))

    def install(self) -> None:
        import importlib

        from avoiders import cli
        from avoiders.series import PowerSeries

        for layer in LAYERS:
            module = importlib.import_module(f"avoiders.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                hook = _coeff_digits if layer == "series" and attr in SERIES_BUILDERS else None
                self._rebind(fn, self.wrap(f"{layer}.{attr}", layer, fn, hook))
        for attr, short in SERIES_METHODS.items():
            original = getattr(PowerSeries, attr)
            setattr(PowerSeries, attr, self.wrap(f"series.{short}", "series", original))
            self._patches.append((PowerSeries, attr, original))
        # The CLI is the entry layer: its handlers' argument parsing,
        # formatting and printing all count as ``cli.main`` self time.
        self._rebind(cli.main, self.wrap("cli.main", "cli", cli.main))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def totals(self) -> dict:
        """Aggregates by span name and by module, for the whole run."""
        modules: dict[str, float] = {}
        for nid, module in enumerate(self.module_of):
            modules[module] = modules.get(module, 0.0) + self.self_s[nid]
        return {
            "spans": {
                name: {"calls": self.calls[nid], "self_s": self.self_s[nid],
                       "incl_s": self.incl_s[nid], "yielded": self.yielded[nid]}
                for nid, name in enumerate(self.names)
            },
            "module_self_s": modules,
            "module_incl_s": dict(self.module_incl_s),
            "nested_s": dict(self.nested_s),
            "max_coeff_digits": self.max_coeff_digits,
            "hook_s": self.hook_s,
            "span_count": len(self.spans) // len(SPAN_FIELDS),
        }

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON lines, one header line first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "fields": SPAN_FIELDS}) + "\n")
            for i in range(0, len(spans), len(SPAN_FIELDS)):
                span, nid, parent, request, start, end, busy = spans[i:i + len(SPAN_FIELDS)]
                out.write(f"[{span:.0f},{nid:.0f},{parent:.0f},{request:.0f},"
                          f"{start!r},{end!r},{busy!r}]\n")


def _coeff_digits(tracer: Tracer, series) -> None:
    biggest = max(abs(c) for c in series.coeffs)
    tracer.max_coeff_digits = max(tracer.max_coeff_digits, len(str(biggest.numerator)))
