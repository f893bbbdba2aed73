"""Spans around the public functions of psnci's modules, and the per-layer
metrics derived from them.

The tracer replaces each public function of a module by a wrapper under
every name it is looked up by (``abs_4d_with_estimate`` lives in both
``psnci.quadrature`` and ``psnci.phasespace``); all names of one function
share one wrapper, so a call is recorded once whichever name it went
through. Spans are kept in memory as (name, start, end, parent) plus the
work counts taken at the call; the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time

import numpy as np

MODULES = ("psnci", "psnci.cli", "psnci.states", "psnci.specialfn", "psnci.grids",
           "psnci.phasespace", "psnci.quadrature", "psnci.indicators",
           "psnci.validation")
# Private helpers wrapped as well, to count the pair grids they build.
PRIVATE = ("_pair_grid",)

# Metric prefix -> (functions whose calls are counted, further functions
# whose self time belongs to the layer). ``calls`` skips a counted span
# nested in a span of the same name (recursion).
LAYERS = {
    "quadrature.abs_4d": (("quadrature.abs_4d_with_estimate",),
                          ("quadrature.abs_integral_4d_streamed",)),
    "quadrature.integral_2d": (("quadrature.integrate_2d",),
                               ("quadrature.integral_with_estimate",)),
    "phasespace.build_term_table": (("phasespace.build_term_table",),
                                    ("phasespace._pair_grid", "phasespace.default_grid")),
    "phasespace.cross_wigner_fock_closed": (("phasespace.cross_wigner_fock_closed",), ()),
    "states.normalize": (("states.normalize",),
                         ("states.state_norm", "states.overlap", "states.primitive_overlap")),
    "states.wavefunction": (("states.fock_psi",),
                            ("states.squeezed_fock_psi", "states.position_wavefunction",
                             "states.momentum_wavefunction")),
    "specialfn.assoc_laguerre": (("specialfn.assoc_laguerre",), ()),
    "indicators.delta": (("indicators.delta_indicator",), ()),
    "indicators.eta": (("indicators.eta_indicator",), ()),
    "indicators.sweep": (("indicators.sweep_a", "indicators.sweep_r"), ()),
    "indicators.entropy": (("indicators.von_neumann_entropy",), ()),
    "cli": (("cli.main",), ("cli.entry_point",)),
}

FLOAT_BYTES = 8


def _kernel_bytes(grid, n_products: int, tile_rows: int) -> int:
    """Bytes the 4D kernel touches in one pass, computed from array sizes.

    This models the kernel of commit e703411: matmul into a tile block of
    ``tile_rows`` mode-1 points, then separate abs, fine sum and coarse
    gathers. Only the tile size is read from the program, so the model
    follows a change of tile size but not a strided or fused kernel; that
    needs spans inside the program itself (ROADMAP item 1).

    Per tile block: the matmul writes it, abs reads and writes it, the fine
    sum reads it. The coarse estimate gathers the even rows (read + write),
    gathers their even columns (read + write) and sums those (read).
    Factor reads: every tile reads its rows of g and all of h. Cache
    misses are ignored, so this is a computed figure, not a measured one.
    """
    m1, m2 = grid.mode(0), grid.mode(1)
    n1, n2 = m1.n_points, m2.n_points
    even1 = math.ceil(m1.q.n / 2) * math.ceil(m1.p.n / 2)
    even2 = math.ceil(m2.q.n / 2) * math.ceil(m2.p.n / 2)
    tiles = math.ceil(n1 / tile_rows)
    block = 4 * n1 * n2 + 3 * even1 * n2 + 2 * even1 * even2
    factors = n_products * (n1 + tiles * n2)
    return FLOAT_BYTES * (block + factors)


def _default_tile_rows() -> int:
    from psnci.quadrature import abs_4d_with_estimate

    return inspect.signature(abs_4d_with_estimate).parameters["tile_rows"].default


def _measure_abs_4d(span, args, kwargs):
    products = list(args[0] if args else kwargs.pop("products"))
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    used = sum(1 for g, h in products if np.any(g) and np.any(h))
    n1, n2 = grid.mode(0).n_points, grid.mode(1).n_points
    tile_rows = kwargs.get("tile_rows") or _default_tile_rows()
    span[4] = n1 * n2
    span[5] = used
    span[6] = 2 * used * n1 * n2
    span[7] = _kernel_bytes(grid, used, tile_rows) if used else 0
    return (products,) + tuple(args[1:]), kwargs


def _measure_fock_psi(span, args, kwargs):
    span[4] = int(np.size(args[1] if len(args) > 1 else kwargs["q"]))
    return args, kwargs


def _measure_pair_grid(span, args, kwargs):
    span[4] = (args[3] if len(args) > 3 else kwargs["mode"]).n_points
    return args, kwargs


MEASURES = {
    "quadrature.abs_4d_with_estimate": _measure_abs_4d,
    "states.fock_psi": _measure_fock_psi,
    "phasespace._pair_grid": _measure_pair_grid,
}


class Tracer:
    """Wraps psnci's functions while installed; spans stay in ``self.spans``.

    A span is [name, start, end, parent, points, products, flops, bytes].
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, 0, 0]
            if measure is not None:
                args, kwargs = measure(span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        wrappers = {}
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("psnci."):
                    continue
                if attr.startswith("_") and attr not in PRIVATE:
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__[len('psnci.'):]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def self_times(self) -> list:
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, by metric name."""
        own = self.self_times()
        names = [span[0] for span in self.spans]
        out = {}
        for prefix, (counted, others) in LAYERS.items():
            out[f"{prefix}.calls"] = sum(
                1 for i, n in enumerate(names)
                if n in counted and not self._nested_in(i, n))
            out[f"{prefix}.self_s"] = math.fsum(
                own[i] for i, n in enumerate(names) if n in counted or n in others)
        kernel = [s for s in self.spans if s[0] == "quadrature.abs_4d_with_estimate"]
        points = sum(s[4] for s in kernel)
        out["quadrature.abs_4d.points"] = points
        out["quadrature.abs_4d.products"] = sum(s[5] for s in kernel)
        out["quadrature.abs_4d.flops_computed"] = sum(s[6] for s in kernel)
        out["quadrature.abs_4d.bytes_computed"] = sum(s[7] for s in kernel)
        busy = out["quadrature.abs_4d.self_s"]
        out["quadrature.abs_4d.points_per_s"] = points / busy if busy > 0 else 0.0
        out["states.wavefunction.points"] = sum(
            s[4] for s in self.spans if s[0] == "states.fock_psi")
        grids = [s for s in self.spans if s[0] == "phasespace._pair_grid"]
        out["phasespace.pair_grids"] = len(grids)
        out["phasespace.grid_points"] = sum(s[4] for s in grids)
        return out

    def _nested_in(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
