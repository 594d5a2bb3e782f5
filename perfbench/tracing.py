"""Spans around the public functions of each starres module, from outside.

``Tracer.install()`` wraps every function listed in ``LAYERS`` and patches
each ``starres`` namespace that binds it (``resolution`` holds its own
``rref`` from ``from .linalg import rref``, for example).  ``restore()`` puts
the originals back and returns the bindings it could not restore, which
must be none.

A span records its function, start, end, the span that caused it, the case
it belongs to and the input size at the boundary (matrix order for ``det``
and the intersection calls, rows x cols for ``rref``, r for
``ito_oracle``).  Self time is a span's duration minus its child spans.
The program runs one case at a time on one thread, so no layer ever waits
for another: there is no wait time to record.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> functions wrapped; the order is the order of the report
LAYERS = {
    "linalg": ("rref", "det", "solve"),
    "gradedring": ("piece_product", "span", "multiply", "graded_basis"),
    "resolution": ("speciality_oracle", "dual_graph", "specials"),
    "intersection": (
        "is_negative_definite",
        "fundamental_cycle",
        "fundamental_cycle_brute",
        "canonical_cycle",
        "pair",
    ),
    "hj": ("i_set", "ito_oracle", "residue_criterion"),
    "lgroup": ("normal_form", "l_add", "l_scale", "l_neg"),
    "reconalg": ("quiver_from_intersection", "quiver_combinatorial", "wahl_verify"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matrix_order(args, kwargs):
    return len(args[0].entries) if hasattr(args[0], "entries") else len(args[0])


# Input size recorded on a span, per function.
SIZES = {
    "linalg.rref": lambda a, k: (len(a[0]), len(a[0][0]) if len(a[0]) else 0),
    "linalg.det": _matrix_order,
    "linalg.solve": _matrix_order,
    "intersection.is_negative_definite": _matrix_order,
    "intersection.fundamental_cycle": _matrix_order,
    "intersection.fundamental_cycle_brute": _matrix_order,
    "intersection.canonical_cycle": _matrix_order,
    "intersection.pair": _matrix_order,
    "hj.ito_oracle": lambda a, k: a[0],
}


def _rref_extra(stats, args, kwargs, size, result):
    stats["rows"] += size[0]
    stats["rank"] += len(result)


def _det_extra(stats, args, kwargs, size, result):
    stats["order_sum"] += size


def _oracle_extra(stats, args, kwargs, size, result):
    stats["levels"] += _arg(args, kwargs, 3, "l_max", 8) if result.special else result.witness
    stats["nonspecial"] += not result.special


def _laufer_extra(stats, args, kwargs, size, result):
    stats["increments"] += sum(result) - 1


def _brute_extra(stats, args, kwargs, size, result):
    stats["box_points"] += _arg(args, kwargs, 1, "bound", 4) ** size


def _ito_extra(stats, args, kwargs, size, result):
    stats["grid_cells"] += (size - 1) ** 2


# Counters taken at the boundary from a call's arguments and result.
EXTRAS = {
    "linalg.rref": _rref_extra,
    "linalg.det": _det_extra,
    "resolution.speciality_oracle": _oracle_extra,
    "intersection.fundamental_cycle": _laufer_extra,
    "intersection.fundamental_cycle_brute": _brute_extra,
    "hj.ito_oracle": _ito_extra,
}


class Tracer:
    """Wraps the functions in LAYERS; spans are kept in memory until written."""

    def __init__(self):
        self.stats = {
            f"{mod}.{fn}": defaultdict(float) for mod, fns in LAYERS.items() for fn in fns
        }
        self.spans = []  # (case, parent, name, start, end, size); index = span id
        self.case = -1
        self._stack = []  # open spans: [span id, child time]
        self._patched = []  # (namespace, attribute, original)
        self._wrappers = {}  # id -> wrapper

    def _wrap(self, name, fn):
        stats = self.stats[name]
        sizer = SIZES.get(name)
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            size = sizer(args, kwargs) if sizer is not None else None
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (self.case, parent, name, start, end, size)
            if extra is not None:
                extra(stats, args, kwargs, size, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items()) if n == "starres" or n.startswith("starres.")]

    def install(self) -> None:
        namespaces = self._namespaces()
        for mod, fns in LAYERS.items():
            module = sys.modules[f"starres.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; return the bindings still wrapped."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return [
            f"{ns.__name__}.{attr}"
            for ns in self._namespaces()
            for attr, value in vars(ns).items()
            if id(value) in self._wrappers
        ]
