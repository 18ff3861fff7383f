"""Span tracing of sspaceform from outside the package.

`Tracer.install` wraps each listed public function at every binding site:
the defining module and every sspaceform module that bound the same object
with `from .x import y`.  `enable`/`disable` switch the wrappers on and off,
so that traced and untraced passes can alternate in one process.  Each call records a span (name, parent span,
request id, start, end, self time, and an optional work count taken from
the result).  Spans stay in memory and are written out by `dump`.

Self time is a span's duration minus the durations of its direct child
spans, so nested layers (tau3 -> tau2 -> covariant_chain ->
connection_term) are not counted twice.  A listed name that the package no
longer defines is recorded as absent instead of raising.
"""
from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

# module -> public names; "Class.method" wraps a method on the class
TARGETS = {
    "cli": ["run_verify", "run_synth", "run_ode"],
    "curve": ["frenet_apparatus", "covariant_chain", "fd_derivative",
              "CurveTrace.from_csv", "CurveTrace.to_csv"],
    "slant": ["contact_angles", "phiT_decomposition"],
    "biharmonic": ["check_conditions", "tau2", "tau3", "classify_case",
                   "mainprop_residuals"],
    "manifold": ["connection_term", "curvature_frame", "phi_frame",
                 "frame_to_coords"],
    "synth": ["integrate_frenet_system", "steered_slant_curve",
              "legendre_catenary", "flat_circle_trace"],
    "odesol": ["numeric_solution_oracle", "k1_closed_form", "f_from_k1",
               "first_integral"],
}


def _trace_steps(result) -> int:
    trace = result[0] if isinstance(result, tuple) else result
    return trace.n - 1


# work counts read from results: RK4 steps taken by a bidirectional march
COUNTERS = {
    "synth.integrate_frenet_system": _trace_steps,
    "synth.steered_slant_curve": _trace_steps,
    "odesol.numeric_solution_oracle": lambda sol: len(sol.ts) - 1,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.request = -1
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.count = array("q")
        self._stack: list[list] = []
        self._patches: list[tuple] = []     # (owner, attr, original, wrapper)

    def install(self) -> None:
        import sspaceform.cli  # noqa: F401  (imports every layer)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "sspaceform" or k.startswith("sspaceform.")]
        for module, names in TARGETS.items():
            mod = sys.modules.get(f"sspaceform.{module}")
            for name in names:
                label = f"{module}.{name.split('.')[-1]}"
                if "." in name:
                    if not self._wrap_method(mod, name, label):
                        self.absent.append(label)
                    continue
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(label, orig)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is orig:
                            self._patches.append((m, attr, orig, wrapper))
        self.enable()

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _wrap_method(self, mod, name: str, label: str) -> bool:
        cls_name, attr = name.split(".")
        cls = getattr(mod, cls_name, None)
        if cls is None:
            return False
        try:
            raw = inspect.getattr_static(cls, attr)
        except AttributeError:
            return False
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(label, raw.__func__))
        else:
            wrapper = self._wrap(label, raw)
        self._patches.append((cls, attr, raw, wrapper))
        return True

    def _wrap(self, label: str, fn):
        idx = len(self.names)
        self.names.append(label)
        counter = COUNTERS.get(label)
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1][0] if stack else -1)
            self.req.append(self.request)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            self.count.append(0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                self.self_time[sid] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if counter is not None:
                self.count[sid] = counter(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path: str) -> None:
        data = {"names": self.names, "absent": self.absent,
                "spans": {k: getattr(self, k).tolist() for k in
                          ("name", "parent", "req", "start", "end",
                           "self_time", "count")}}
        with open(path, "w") as fh:
            json.dump(data, fh)
