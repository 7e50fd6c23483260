"""Span recorder and layer counters for the traced benchmark run.

The recorder wraps, from outside the package, every public function that a
layer module defines, under the name ``<layer>.<function>``.  Each wrapper
replaces the function in every namespace of the package that holds it, so a
call made through ``from .propagator import evolve_range`` inside
``extremizer`` is recorded too.  A span is ``[name, start, end, parent, op,
tag]``; spans stay in memory and are written out once at the end.

Counters are taken at the same boundaries: FFT calls and points at the
``numpy.fft``/``scipy.fft`` entry points, spline calls and points at
``BSpline.__call__``, gauge rows and computed bytes from the field that
``evolve_range`` returns, and Picard steps with the fitted contraction rate
from the result of ``picard_iterate``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "strichartz_lab"
LAYERS = ("lattice", "propagator", "extremizer", "sextic_form", "bilinear",
          "functional_equation")
_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfftn", "irfftn", "hfft", "ihfft")
# forward and inverse transforms are reported together as one metric
_ALIASES = {"lattice.forward_transform": "lattice.transform",
            "lattice.inverse_transform": "lattice.transform"}


class Recorder:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.tag: str | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op, self.tag])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(recorder, args, result) runs on
        success, outside the span."""
        name = _ALIASES.get(name, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and the FFT and spline entry points."""
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    replacements[id(fn)] = self.wrap(key, fn, _AFTER.get(key))
        import scipy.fft

        for fft_mod in (np.fft, scipy.fft):
            for name in _FFT_NAMES:
                fn = getattr(fft_mod, name)
                replacements.setdefault(id(fn), _counting(self, fn, "fft.calls", "fft.points"))
                setattr(fft_mod, name, replacements[id(fn)])
        program = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in program:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])
        from scipy.interpolate import BSpline

        BSpline.__call__ = _counting(self, BSpline.__call__, "sextic_form.spline_calls",
                                     "sextic_form.spline_points", points_arg=1)

    # -- reduction ---------------------------------------------------------------

    def _child_time(self) -> defaultdict:
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, and per ``name.tag`` for tagged
        spans: span duration minus the time its child spans cover."""
        child = self._child_time()
        out = defaultdict(float)
        for idx, (name, start, end, _, _, tag) in enumerate(self.spans):
            own = end - start - child[idx]
            out[name] += own
            if tag is not None:
                out[f"{name}.{tag}"] += own
        return dict(out)

    def coverage(self) -> float:
        """Smallest share of an op span's duration that its child spans cover."""
        child = self._child_time()
        shares = [child[idx] / (end - start)
                  for idx, (_, start, end, parent, _, _) in enumerate(self.spans)
                  if parent < 0 and end > start]
        return min(shares) if shares else 0.0

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag}) + "\n")


def _counting(rec: Recorder, fn, calls: str, points: str, points_arg: int = 0):
    """fn counting its calls and the points (size of its input array) it
    was given, without opening a span."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counts[calls] += 1
        rec.counts[points] += int(np.size(args[points_arg]))
        return fn(*args, **kwargs)

    return counted


def _after_evolve_range(rec: Recorder, args, field) -> None:
    factored = int(np.count_nonzero(field.row_factored))
    rec.counts["propagator.rows_factored"] += factored
    rec.counts["propagator.rows_direct"] += len(field.row_factored) - factored
    # computed from the array size (rows * n * 16 bytes), not measured traffic
    rec.counts["propagator.evolve_range.bytes"] += field.values.nbytes


def _after_picard(rec: Recorder, args, result) -> None:
    rec.counts["extremizer.picard_steps"] += result.final.step_index
    rec.counts["extremizer.contraction_rate"] += contraction_rate(
        [s.delta for s in result.states[1:]])


def _after_sweep_grid(rec: Recorder, args, grid) -> None:
    rec.tag = f"N{args[0]:g}"


def _after_separation_sweep(rec: Recorder, args, result) -> None:
    rec.tag = None


_AFTER = {
    "propagator.evolve_range": _after_evolve_range,
    "extremizer.picard_iterate": _after_picard,
    "bilinear.sweep_grid": _after_sweep_grid,
    "bilinear.separation_sweep": _after_separation_sweep,
}


def contraction_rate(deltas: list[float]) -> float:
    """exp of the least-squares slope of log delta_k against k: the fitted
    ratio delta_k / delta_(k-1).  The first step is left out as transient."""
    d = np.asarray(deltas[1:], dtype=float)
    d = d[np.isfinite(d) & (d > 0)]
    if d.size < 2:
        return float("nan")
    return float(np.exp(np.polyfit(np.arange(d.size), np.log(d), 1)[0]))
