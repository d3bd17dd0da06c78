"""Span tracing around the public functions of each pideq module.

The tracer measures the program from outside: it replaces every public
function of the traced modules, the public ``PointHeatModel`` methods and
numpy's 2-D transforms with wrappers that record a span (name, start, end,
parent, run id) and, for a few calls, counts taken from the arguments or
the result.  A function is rebound in every ``pideq`` module that holds it,
because several modules import by name (``decay``, ``verify`` and ``cli``
bind ``semigroup_pac`` directly, so patching ``pideq.semigroup`` alone would
miss their calls).

Spans stay in memory until :meth:`Tracer.write` runs at the end of a
process.  The layer of a span is the part of its name before the first dot;
a layer's self time is the time its spans cover minus the time covered by
their direct children, so the self times of all layers, the harness
included, add up to the duration of the root spans.
"""

import contextlib
import importlib
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

# Modules traced as layers.  ``special`` is left out on purpose: its Bessel
# calls are timed inside the spectral functions that make them.
LAYERS = ("cli", "verify", "decay", "solver", "semigroup", "spectral", "fields")
FFT_FUNCTIONS = ("fft2", "ifft2")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.iterations = []  # Picard iterates per window, from Trajectory.diagnostics

    def wrap(self, name, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span; ``post(tracer, args, kwargs, out, state)``
        runs after the call with the value ``pre(args, kwargs)`` returned."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # outside the set-up and run regions: not traced
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(self, args, kwargs, out, state)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def region(self, name):
        """Record a harness span: the set-up and run roots of the process."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Per-name calls and inclusive seconds, per-layer self seconds."""
        calls = Counter()
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            if parent >= 0:
                child[parent] += dur
        self_s = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name.split(".", 1)[0]] += (end - start) - covered
        return calls, incl, self_s

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )


# --- counters taken at the call boundary ---------------------------------------


def _count_contour(tracer, args, kwargs, out, state):
    model = args[0]
    contour = args[3] if len(args) > 3 else kwargs["contour"]
    nodes = contour.nodes()[0].size  # cached by the call just made
    tracer.counts["semigroup.contour_nodes"] += nodes
    tracer.counts["semigroup.node_bins"] += nodes * model.rho.size


def _count_fft(tracer, args, kwargs, out, state):
    tracer.counts["fft.bytes"] += 32 * args[0].size


def _csv_start(args, kwargs):
    return args[1].tell()


def _count_csv(tracer, args, kwargs, out, state):
    tracer.counts["fields.field_to_csv.bytes"] += args[1].tell() - state


def _count_save(tracer, args, kwargs, out, state):
    tracer.counts["fields.save_field.bytes"] += os.path.getsize(args[1])


def _count_solve(tracer, args, kwargs, out, state):
    diag = out.diagnostics
    iters = list(diag["iterations"])
    c = tracer.counts
    c["solver.windows"] += len(iters)
    c["solver.picard_iterations"] += sum(iters)
    c["solver.sweeps"] += sum(iters) + len(iters)
    tracer.iterations.extend(iters)
    ratios = list(diag["contraction_ratios"])
    if ratios:
        c["solver.contraction_max"] = max(c["solver.contraction_max"], max(ratios))


HOOKS = {
    "semigroup.correction_hat": (None, _count_contour),
    "fields.field_to_csv": (_csv_start, _count_csv),
    "fields.save_field": (None, _count_save),
    "solver.solve_global_projected": (None, _count_solve),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def install(tracer):
    """Wrap the traced layers, PointHeatModel and numpy's 2-D FFTs in place."""
    import numpy as np

    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"pideq.{layer}")
        for name, fn in _public_functions(module):
            span = f"{layer}.{name}"
            pre, post = HOOKS.get(span, (None, None))
            replaced[id(fn)] = tracer.wrap(span, fn, pre, post)

    from pideq.semigroup import PointHeatModel

    for name, fn in list(vars(PointHeatModel).items()):
        if not name.startswith("_") and isinstance(fn, types.FunctionType):
            span = f"semigroup.{name}"
            pre, post = HOOKS.get(span, (None, None))
            setattr(PointHeatModel, name, tracer.wrap(span, fn, pre, post))
    # one span per grid-model build: grid_model() is an lru_cache over this
    PointHeatModel.__init__ = tracer.wrap("semigroup.grid_model", PointHeatModel.__init__)

    for name in FFT_FUNCTIONS:
        setattr(np.fft, name, tracer.wrap(f"fft.{name}", getattr(np.fft, name), None, _count_fft))

    for modname, module in list(sys.modules.items()):
        if modname != "pideq" and not modname.startswith("pideq."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
