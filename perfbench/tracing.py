"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each `dmlwb` module at
run time.  A module-level function is rebound in every `dmlwb` module
that holds it, because `from .x import y` copies the name into the
importing module (for example `dml.orbit`, which `dml_classify` calls,
and `dml.is_periodic_curve`).  Methods are patched on their class; a
special method is patched under each of its names (`Poly2.__mul__` and
`Poly2.__rmul__` are separate slots).

Each thread keeps its own span stack and counters, because `dmlwb
batch` runs items on pool threads; the counters are merged when the run
ends.  Calls of the hot kernels (HOT) only add to per-name counts and
times.  Every other call also records a span (name, start, end, parent,
item) in memory; `spans` returns them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

_clock = time.perf_counter

# layer metric name -> (module, function)
FUNCTIONS = (
    ("poly.gcd", "dmlwb.poly", "poly_gcd"),
    ("poly.exact_div", "dmlwb.poly", "exact_div"),
    ("maps.compose_map", "dmlwb.maps", "compose_map"),
    ("maps.load_map", "dmlwb.maps", "load_map"),
    ("parsing.parse_poly", "dmlwb.parsing", "parse_poly"),
    ("degrees.degree_sequence", "dmlwb.degrees", "degree_sequence"),
    ("degrees.stability_P2", "dmlwb.degrees", "is_algebraically_stable_P2"),
    ("dml.classify", "dmlwb.dml", "dml_classify"),
    ("dml.orbit", "dmlwb.dml", "orbit"),
    ("dml.ap_decompose", "dmlwb.dml", "ap_decompose"),
    ("dml.curve_period", "dmlwb.curves", "is_periodic_curve"),
    ("curves.factor_poly", "dmlwb.curves", "factor_poly"),
    ("curves.is_fixed_curve", "dmlwb.curves", "is_fixed_curve"),
    ("places.abs_value", "dmlwb.places", "abs_value"),
    ("places.height_affine", "dmlwb.places", "height_affine"),
    ("metrics.basin_probe", "dmlwb.metrics", "basin_probe"),
    ("metrics.local_dml_probe", "dmlwb.metrics", "local_dml_probe"),
    ("cli.main", "dmlwb.cli", "main"),
    ("cli.emit", "dmlwb.cli", "_emit"),
)

# layer metric name -> (module, class, attribute)
METHODS = (
    ("poly.mul", "dmlwb.poly", "Poly2", "__mul__"),
    ("poly.mul", "dmlwb.poly", "Poly2", "__rmul__"),
    ("poly.compose", "dmlwb.poly", "Poly2", "compose"),
    ("poly.evaluate", "dmlwb.poly", "Poly2", "evaluate"),
    ("maps.apply", "dmlwb.maps", "PolyMap", "apply"),
    ("curves.contains", "dmlwb.curves", "Curve", "contains"),
    ("hirzebruch.apply", "dmlwb.hirzebruch", "FnModel", "apply"),
    ("hirzebruch.from_map", "dmlwb.hirzebruch", "FnModel", "from_map"),
)

HOT = frozenset({
    "poly.mul", "poly.compose", "poly.evaluate", "poly.gcd", "poly.exact_div",
    "maps.apply", "curves.contains", "places.abs_value", "hirzebruch.apply",
})


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "counts", "peaks", "spans", "orbit_keys")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [start, child time, span index]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.orbit_keys: set = set()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value


class Tracer:
    """Wraps dmlwb at run time and collects spans and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.item = None  # id of the CLI call in progress, set by the runner
        self.origin = _clock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None, error=None):
        tracer = self
        hot = name in HOT

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][2] if stack else None
            if before is not None:
                before(st, args, kwargs)
            start = _clock()
            if hot:
                span = parent
            else:
                span = len(st.spans)
                st.spans.append([name, start, None, parent, tracer.item])
            frame = [start, 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(st, exc)
                raise
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                if not hot:
                    st.spans[span][2] = end
            if after is not None:
                after(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and METHODS, once per process."""
        from dmlwb.errors import DegreeCapError
        from dmlwb.poly import Poly2
        import dmlwb.dml as dml_mod
        import dmlwb.poly as poly_mod

        def mul_before(st, args, kwargs):
            a, b = args
            if isinstance(b, Poly2):
                st.add("poly.mul.term_products", len(a) * len(b))

        def evaluate_after(st, args, kwargs, result):
            st.peak("poly.evaluate.peak_bits", _bits(result))

        orbit_sig = inspect.signature(dml_mod.orbit)

        def orbit_after(st, args, kwargs, res):
            bound = orbit_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f, p, N, guard = (bound.arguments[k] for k in ("f", "p", "N", "bit_guard"))
            st.orbit_keys.add((str(f), p, N, guard))
            stepped = res.cycle is not None or res.guard_hit
            st.add("dml.orbit.steps", len(res.points) - 1 + stepped)
            st.add("dml.orbit.guard_hits", int(res.guard_hit))
            st.peak("dml.orbit.peak_bits", max(max(_bits(q.x), _bits(q.y)) for q in res.points))

        def capped(st, exc):
            if isinstance(exc, DegreeCapError):
                st.add("dml.curve_period.capped")

        def basin_after(st, args, kwargs, report):
            st.add("metrics.basin_probe.steps", len(report.samples))

        hooks = {
            "poly.mul": {"before": mul_before},
            "poly.evaluate": {"after": evaluate_after},
            "dml.orbit": {"after": orbit_after},
            "dml.curve_period": {"error": capped},
            "metrics.basin_probe": {"after": basin_after},
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dmlwb" or n.startswith("dmlwb."))]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self._wrap(name, original, **hooks.get(name, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw, **hooks.get(name, {})))

        check_cap = poly_mod._check_cap
        tracer = self

        def counted_check_cap(degree):
            try:
                check_cap(degree)
            except DegreeCapError:
                tracer._state().add("poly.cap_trips")
                raise

        poly_mod._check_cap = counted_check_cap

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """Merged per-name stats, counters and peaks over all threads."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        peaks: dict[str, int] = {}
        orbit_keys: set = set()
        for st in self._threads:
            for name, (calls, incl, self_s) in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
            for key, v in st.peaks.items():
                peaks[key] = max(peaks.get(key, 0), v)
            orbit_keys |= st.orbit_keys
        return {
            "stats": {k: {"calls": c, "s": i, "self_s": s} for k, (c, i, s) in stats.items()},
            "counts": counts,
            "peaks": peaks,
            "distinct_orbits": len(orbit_keys),
        }

    def spans(self) -> list[dict]:
        """Recorded spans per thread, times in seconds from tracer creation."""
        out = []
        for st in self._threads:
            out.append({
                "thread": st.index,
                "spans": [
                    [name, round(start - self.origin, 9),
                     None if end is None else round(end - self.origin, 9), parent, item]
                    for name, start, end, parent, item in st.spans
                ],
            })
        return out
