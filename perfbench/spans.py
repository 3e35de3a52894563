"""Span recorder for the traced run, fed by wrappers placed from outside.

The package modules import each other's functions by name (``from .soliton
import eval_uZ``), so a call crosses a layer boundary through the *calling*
module's binding.  :func:`installed` therefore replaces every binding of a
layer's public function in the other package modules, records one span per
crossing and restores the originals on exit.  Calls inside one module are not
boundaries and are not recorded; their time is that layer's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "medium", "dispersion", "soliton", "hirota", "verify", "sim", "output")

# numpy.fft transforms counted as sim.fft_calls while a sim span is open.
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


class Recorder:
    """Spans ``[layer, start_ns, end_ns, parent, job]`` kept in memory, plus counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step_ns: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self.sim_depth = 0

    def open(self, layer: str) -> int:
        i = len(self.spans)
        self.spans.append([layer, perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(i)
        if layer == "sim":
            self.sim_depth += 1
        return i

    def close(self, i: int) -> int:
        span = self.spans[i]
        span[2] = perf_counter_ns()
        self._stack.pop()
        if span[0] == "sim":
            self.sim_depth -= 1
        return span[2] - span[1]

    def self_seconds(self) -> dict[str, float]:
        """Each layer's summed span time minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _layer, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _p, _j), c in zip(self.spans, child):
            out[layer] += (end - start - c) / 1e9
        return out


def _size(obj) -> int:
    """Elements in the first array a result or argument carries (1 for scalars)."""
    if isinstance(obj, tuple) and obj:
        return _size(obj[0])
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, np.ndarray):
                return val.size
        return 1
    return obj.size if isinstance(obj, np.ndarray) else 1


def _count_calls(rec: Recorder, key: str, fn):
    def counted(*a, **kw):
        rec.counts[key] += 1
        return fn(*a, **kw)
    return counted


def _after_soliton(rec, name, a, kw, out, ns):
    pts = _size(out)
    rec.counts["soliton.points"] += pts
    if pts == 1:
        rec.counts["soliton.scalar_calls"] += 1


def _after_verify(rec, name, a, kw, out, ns):
    from relaxwave.verify import GridSpec

    args = (*a, *kw.values())
    grid = next((x for x in args if isinstance(x, GridSpec)), None)
    rec.counts["verify.grid_points"] += (grid.n_sigma * grid.n_tau if grid is not None
                                         else max((_size(x) for x in args), default=1))


def _after_sim(rec, name, a, kw, out, ns):
    if name == "evolve_system19":
        times, key = out.taus, "s19"
    elif name == "evolve_mkdvb":
        times, key = out.ts, "mkdvb"
    else:
        return
    steps = round((times[-1] - times[0]) / out.dt)
    rec.counts["sim.steps"] += steps
    rec.step_ns[f"{key}_steps"] += steps
    rec.step_ns[f"{key}_ns"] += ns


AFTER = {"soliton": _after_soliton, "verify": _after_verify, "sim": _after_sim}


def _wrap(rec: Recorder, layer: str, name: str, fn):
    after = AFTER.get(layer)
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def traced(*a, **kw):
        rec.counts[calls] += 1
        if layer == "sim":
            for arg in ("bc", "forcing"):
                if kw.get(arg) is not None:
                    kw[arg] = _count_calls(rec, f"sim.{arg}_calls", kw[arg])
        i = rec.open(layer)
        try:
            out = fn(*a, **kw)
        finally:
            ns = rec.close(i)
        if after is not None:
            after(rec, name, a, kw, out, ns)
        return out

    return traced


def _fft_counter(rec: Recorder, fn):
    @functools.wraps(fn)
    def counted(*a, **kw):
        if rec.sim_depth:
            rec.counts["sim.fft_calls"] += 1
        return fn(*a, **kw)
    return counted


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every cross-layer call of the package through ``rec``."""
    mods = {layer: importlib.import_module(f"relaxwave.{layer}") for layer in LAYERS}
    patches = []
    for layer, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapper = None
            for other in mods.values():
                if other is not mod and vars(other).get(name) is fn:
                    wrapper = wrapper or _wrap(rec, layer, name, fn)
                    patches.append((other, name, fn, wrapper))
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)
        patches.append((np.fft, name, fn, _fft_counter(rec, fn)))
    for mod, name, _fn, wrapper in patches:
        setattr(mod, name, wrapper)
    try:
        yield rec
    finally:
        for mod, name, fn, _wrapper in patches:
            setattr(mod, name, fn)
