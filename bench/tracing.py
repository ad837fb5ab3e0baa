"""Spans around the public functions of each gramfield module.

The tracer times the program from outside: it wraps every function a
module lists in ``__all__`` (plus the symbol ``profile`` methods) and
rebinds the wrapper under every name a gramfield module holds for the
original, so calls that ``gramfield.cli`` makes through names it
imported, and calls a module makes through its own globals (for example
``bai_bound`` -> ``gram_spectrum``), all become spans.

Spans are kept in memory and turned into per-layer metrics after the
run.  The parent of a span is the span open when it started, so the
tracer assumes one thread (``gramfield run --threads 1``, the default).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("symbols", "matgen", "transforms", "spectra", "limit_solver")
PROFILE_METHODS = ("profile", "folded_profile")
SOLVERS = ("solve_centered_many", "solve_noncentered_many",
           "solve_square_many")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start, end=None, info=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.info = info

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def func(self):
        return self.name.rsplit(".", 1)[1]

    @property
    def duration(self):
        return self.end - self.start


def _noise_bytes(args, result):
    return result.entries.nbytes


def _gram_shape(args, result):
    return np.shape(getattr(args[0], "entries", args[0]))


# Cheap facts read from a call's arguments and result while it is traced.
# Solver kernels are kept whole and summarized after the run.
_INFO = {
    "sample_noise": _noise_bytes,
    "gram_spectrum": _gram_shape,
    **{name: (lambda args, result: result) for name in SOLVERS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        info_fn = _INFO.get(name.rsplit(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info_fn is not None:
                span.info = info_fn(args, result)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever gramfield names them."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gramfield.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth in PROFILE_METHODS:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            self._set(obj, meth, self.wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gramfield" and not modname.startswith("gramfield."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, name, wrappers[value])

    def _set(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def self_times(spans):
    """Each span's duration minus the time of its child spans.

    Spans from one thread nest: every child lies inside its parent and
    siblings do not overlap, so the children cover exactly the sum of
    their durations.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _gram_flops(shape):
    # complex N x n by n x N product, then a complex Hermitian tridiagonal
    # reduction (~16/3 N^3 real flops) that dominates eigvalsh
    N, n = shape
    return 8.0 * N * N * n + 16.0 / 3.0 * N ** 3


def layer_metrics(spans, z_grid):
    """Per-layer metrics of one traced run; the root span is the cli call.

    ``z_grid`` tells the solver batch at the configured z grid apart
    from the inversion sweep.
    """
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in ("cli",) + LAYERS}
    for span, st in zip(spans, selfs):
        m[f"{span.layer}.self_s"] += st

    def spans_of(layer, func):
        return [s for s in spans if s.layer == layer and s.func == func]

    def busy(layer, func):
        return float(sum(s.duration for s in spans_of(layer, func)))

    profiles = [s for s in spans
                if s.layer == "symbols" and s.func in PROFILE_METHODS]
    m["symbols.profile_s"] = float(sum(s.duration for s in profiles))
    m["symbols.profile_calls"] = len(profiles)

    for func in ("sample_noise", "build_field", "build_periodized_field"):
        m[f"matgen.{func}_s"] = busy("matgen", func)
    m["matgen.noise_bytes"] = int(sum(
        s.info for s in spans_of("matgen", "sample_noise")))

    m["transforms.fourier_matrix_s"] = busy("transforms", "fourier_matrix")
    m["transforms.fourier_matrix_calls"] = len(
        spans_of("transforms", "fourier_matrix"))

    grams = spans_of("spectra", "gram_spectrum")
    m["spectra.gram_spectrum_s"] = busy("spectra", "gram_spectrum")
    m["spectra.gram_spectrum_calls"] = len(grams)
    m["spectra.gram_spectrum_first_s"] = grams[0].duration if grams else 0.0
    m["spectra.gram_ops"] = float(sum(_gram_flops(s.info) for s in grams))
    m["spectra.bai_bound_self_s"] = float(sum(
        st for s, st in zip(spans, selfs)
        if s.layer == "spectra" and s.func == "bai_bound"))
    m["spectra.levy_distance_s"] = busy("spectra", "levy_distance")
    m["spectra.levy_distance_calls"] = len(spans_of("spectra", "levy_distance"))
    for func in ("kolmogorov_distance", "trace_stats",
                 "invert_stieltjes_to_cdf", "write_cdf_csv"):
        m[f"spectra.{func}_s"] = busy("spectra", func)

    zgrid = {complex(z) for z in z_grid}
    sweep_s = zgrid_s = 0.0
    kernels = []
    for s in spans:
        if s.layer != "limit_solver" or s.func not in SOLVERS:
            continue
        batch = [k[0] if isinstance(k, tuple) else k for k in s.info]
        if {k.z for k in batch} == zgrid:
            zgrid_s += s.duration
        else:
            sweep_s += s.duration
        kernels.extend(batch)
    iters = np.array([k.iterations for k in kernels], dtype=np.int64)
    m["limit_solver.sweep_s"] = sweep_s
    m["limit_solver.zgrid_s"] = zgrid_s
    m["limit_solver.points"] = len(kernels)
    m["limit_solver.point_iterations"] = int(iters.sum())
    if len(kernels):
        m["limit_solver.iter_p50"] = float(np.percentile(iters, 50))
        m["limit_solver.iter_p99"] = float(np.percentile(iters, 99))
        m["limit_solver.iter_max"] = int(iters.max())
        m["limit_solver.residual_max"] = max(k.residual for k in kernels)
    else:
        m.update({"limit_solver.iter_p50": 0.0, "limit_solver.iter_p99": 0.0,
                  "limit_solver.iter_max": 0, "limit_solver.residual_max": 0.0})
    m["limit_solver.nonconverged"] = sum(not k.converged for k in kernels)
    m["limit_solver.us_per_point_iteration"] = (
        1e6 * (sweep_s + zgrid_s) / iters.sum() if iters.sum() else 0.0)
    return m
