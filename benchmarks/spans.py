"""In-memory span tracing of the program, installed from outside it.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper in every ``merobounds`` module that binds it, because callers look
names up in their own module (``cli`` imports ``injectivity_oracle`` and
``check_bound`` at import time, ``bounds`` imports ``dirichlet_series``).
``TruncatedSeries`` methods are wrapped on the class.  ``uninstall``
restores the originals.

While a workload call is open (``begin_call`` .. ``end_call``) every wrapped
call records one span: layer name, start, end and parent span.  The call
itself is the root span, so the spans of one call share it.  Self time is
computed after the run: a span's duration minus its direct children's.

The work counts ``pairs``, ``nodes``, ``coeffs`` and ``point_terms`` are
computed from argument sizes, not measured inside the program.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

CALL = "call"

#: Per-layer metrics: span name -> extra statistics beyond calls and self_ms.
LAYERS = {
    "criteria.injectivity_oracle": ("pairs",),
    "criteria.up_lambda_membership": (),
    "criteria.univalence_criterion": (),
    "series.reciprocal": ("coeffs",),
    "series.weighted_coefficient_sum": (),
    "series.evaluate": ("point_terms",),
    "functions.f_over_z_series": ("repeat_share",),
    "functions.build": (),
    "functions.from_csv_row": (),
    "integrals.series_route": (),
    "integrals.quadrature_route": ("nodes",),
    "bounds.check_bound": (),
    "bounds.coefficient_checks": (),
    "cli.main": (),
}


def _grid_pairs(m, args, kwargs):
    f = args[0]
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    if grid is None:  # the scan's default grid, guarded at the pole if f has one
        grid = m["criteria"].DiskGrid(pole=f.pole)
    points = grid.radii().size * grid.angular_count
    return points * (points - 1) // 2


def _disk_nodes(m, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    config = config or m["integrals"].QuadratureConfig()
    return config.radial_nodes * config.angular_nodes


def _circle_nodes(m, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return (config or m["integrals"].QuadratureConfig()).angular_nodes


def _coeffs(m, args, kwargs):
    return len(args[0])


def _point_terms(m, args, kwargs):
    return int(np.size(args[1])) * len(args[0])


#: (defining module, function, span name, work count or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("criteria", "injectivity_oracle", "criteria.injectivity_oracle", _grid_pairs),
    ("criteria", "up_lambda_membership", "criteria.up_lambda_membership", None),
    ("criteria", "univalence_criterion", "criteria.univalence_criterion", None),
    ("bounds", "check_bound", "bounds.check_bound", None),
    ("bounds", "gronwall_check", "bounds.coefficient_checks", None),
    ("bounds", "lemma1_check", "bounds.coefficient_checks", None),
    ("functions", "build_kp", "functions.build", None),
    ("functions", "build_fp", "functions.build", None),
    ("functions", "build_koebe_rotation", "functions.build", None),
    ("functions", "from_inverse_coefficients", "functions.build", None),
    ("functions", "from_csv_row", "functions.from_csv_row", None),
    ("functions", "f_over_z_series", "functions.f_over_z_series", None),
    ("integrals", "dirichlet_series", "integrals.series_route", None),
    ("integrals", "dirichlet_f_series", "integrals.series_route", None),
    ("integrals", "dirichlet_f_over_z_series", "integrals.series_route", None),
    ("integrals", "l1_mean_series", "integrals.series_route", None),
    ("integrals", "dirichlet_quadrature", "integrals.quadrature_route", _disk_nodes),
    ("integrals", "l1_mean_quadrature", "integrals.quadrature_route", _circle_nodes),
)

#: TruncatedSeries methods: (method, span name, work count or None)
METHODS = (
    ("reciprocal", "series.reciprocal", _coeffs),
    ("evaluate", "series.evaluate", _point_terms),
    ("weighted_coefficient_sum", "series.weighted_coefficient_sum", None),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.names = [CALL, *LAYERS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = Counter()
        self.repeats = 0
        self._stack: list[int] = []
        self._seen: set = set()
        self._patched: list = []
        self._call = -1
        self._call_t0 = 0.0
        self.active = False
        self.origin = time.perf_counter()

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "merobounds" or key.startswith("merobounds.")]
        for module, fname, span, count in TARGETS:
            original = getattr(self.modules[module], fname, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span, count)
            if fname == "f_over_z_series":
                wrapper = self._wrap_repeats(wrapper)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        series = self.modules["series"].TruncatedSeries
        for method, span, count in METHODS:
            original = series.__dict__.get(method)
            if original is not None:
                self._patched.append((series, method, original))
                setattr(series, method, self._wrap(original, span, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- spans ---------------------------------------------------------------

    def _open(self, span: str) -> int:
        sid = len(self.name)
        self.name.append(self._index[span])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0 - self.origin
        self.end[sid] = t1 - self.origin

    def _wrap(self, fn, span, count):
        clock = time.perf_counter
        modules = self.modules

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                self.work[span] += count(modules, args, kwargs)
            sid = self._open(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0, clock())

        traced.__wrapped__ = fn
        return traced

    def _wrap_repeats(self, traced):
        """Count calls on a (series, order) pair already seen in this call."""

        def repeats(f, order=None):
            if self.active:
                key = (f.inv_series.coefficients.tobytes(), order or f.order)
                self.repeats += key in self._seen
                self._seen.add(key)
            return traced(f, order)

        return repeats

    def begin_call(self) -> None:
        self._seen.clear()
        self.active = True
        self._call = self._open(CALL)
        self._call_t0 = time.perf_counter()

    def end_call(self) -> None:
        self._close(self._call, self._call_t0, time.perf_counter())
        self.active = False

    # ---- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time in ms, and any work counts."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        out = {}
        for layer in LAYERS:
            mask = name == self._index[layer]
            calls = int(mask.sum())
            out[layer] = {"calls": calls, "self_ms": float(self_time[mask].sum() * 1e3)}
            for stat in LAYERS[layer]:
                if stat == "repeat_share":
                    out[layer][stat] = self.repeats / calls if calls else 0.0
                else:
                    out[layer][stat] = float(self.work[layer])
        return out

    def write(self, path: Path) -> None:
        """Write every span: name index, start and end in seconds from the
        tracer's creation, and parent index (-1 for a call's root span)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
