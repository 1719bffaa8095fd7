"""In-memory span tracing around nomaopt's public functions.

The tracer replaces module attributes at the places where the package
itself looks them up (for example ``nomaopt.fractional.solve_canonical_max``,
which ``solve_maximin_lp`` calls by its global name), so the program runs
unchanged and only the calls between layers are timed. Each span records
name, start, end, parent, thread, self time and a few counts taken from
the call's arguments and result. Spans are kept per thread, so worker
threads of ``power_sweep`` never write to shared lists, and are written
out only when the run ends.

Self time is a span's duration minus the durations of its child spans.
Parents are tracked per thread and children on one thread nest strictly,
so on every thread the self times add up exactly to the durations of
that thread's root spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import threading
import time
from typing import NamedTuple

import nomaopt.experiments as E
import nomaopt.fractional as F
import nomaopt.oracle as O
import nomaopt.polyblock as P


def _simplex_counts(args, out):
    m, n = args[1].shape
    return {"pivots": out.iterations, "rows": m, "flops": out.iterations * 2 * (m + 1) * (n + m + 1)}


def _solve_counts(args, out):
    improving, prev = 0, 0.0
    for row in out.trace:
        improving += row.incumbent > prev
        prev = max(prev, row.incumbent)
    return {
        "iterations": out.iterations,
        "projections": out.projections,
        "budget_exceeded": int(out.status == "budget_exceeded"),
        "improving": improving,
    }


_VERIFY = ("build_decoding_order", "sum_rate", "check_feasible", "sic_always_feasible")

# (module, attribute, span name, counts from (args, result) or None).
# Every entry is a place where the package looks the function up.
PATCHES = (
    [
        (F, "solve_canonical_max", "simplex.solve_canonical_max", _simplex_counts),
        (F, "build_maximin_lp", "fractional.build_maximin_lp", None),
        (F, "compute_nd", "fractional.compute_nd", None),
        (F, "p_from_z", "reduction.p_from_z", None),
        (P, "dinkelbach_project", "fractional.dinkelbach_project", lambda a, out: {"lp_solves": out.iterations}),
        (P, "solve", "polyblock.solve", _solve_counts),
        (E, "solve", "polyblock.solve", _solve_counts),
        (P, "reduce_scenario", "reduction.reduce_scenario", None),
        (O, "reduce_scenario", "reduction.reduce_scenario", None),
        (O, "sum_rate_from_powers", "reduction.sum_rate_from_powers", None),
        (O, "grid_optimum", "oracle.grid_optimum", lambda a, out: {"points": out.evaluated}),
        (E, "baseline_full_power", "oracle.baseline_full_power", None),
        (E, "baseline_greedy", "oracle.baseline_greedy", None),
        (E, "generate_scenario", "experiments.generate_scenario", None),
        (E, "power_sweep", "experiments.power_sweep", None),
        (E, "cdf_experiment", "experiments.cdf_experiment", None),
    ]
    + [(P, name, "model.verify", None) for name in _VERIFY]
    + [(O, name, "model.verify", None) for name in _VERIFY]
)



class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # span id of the parent on the same thread, 0 for a root
    thread: int
    self_s: float
    phase: str
    error: str
    counts: dict
    span_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``installed()`` patches the package while it is entered.

    ``phase`` labels the spans that end while it is set ("setup" or
    "pass"); worker threads inherit it because only the main thread sets it.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self.phase = "setup"

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.spans = []
            with self._lock:
                self._per_thread.append(st.spans)
        return st

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    def span(self, name, fn, counts=None):
        # power_sweep also records process CPU time, which shows whether its pool runs in parallel
        cpu = name == "experiments.power_sweep"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1] if st.stack else None
            frame = [sid, 0.0]
            st.stack.append(frame)
            extra, error = {}, ""
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if counts is not None:
                    extra = counts(args, out)
                return out
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                if cpu:
                    extra["cpu_s"] = time.process_time() - c0
                st.stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                st.spans.append(Span(name, t0, t1, parent[0] if parent else 0, threading.get_ident(),
                                     t1 - t0 - frame[1], self.phase, error, extra, sid))

        return traced

    def root(self, name, fn):
        """Run fn under a root span on the calling thread; returns its result."""
        return self.span(name, fn)()

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        for mod, attr, name, counts in PATCHES:
            setattr(mod, attr, self.span(name, getattr(mod, attr), counts))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "thread", "self_s", "phase", "error"])
            for s in sorted(self.spans, key=lambda s: s.start):
                w.writerow([s.span_id, s.name, repr(s.start), repr(s.end), s.parent, s.thread,
                            repr(s.self_s), s.phase, s.error])


def self_time_identity(spans: list[Span]) -> float:
    """Largest per-thread gap between summed self time and root span time."""
    worst = 0.0
    for thread in {s.thread for s in spans}:
        mine = [s for s in spans if s.thread == thread]
        selfs = sum(s.self_s for s in mine)
        roots = sum(s.duration for s in mine if s.parent == 0)
        worst = max(worst, abs(selfs - roots))
    return worst


def per_layer(spans: list[Span], passes: int, untraced_pass_s: float, traced_pass_s: float,
              scale: float) -> dict:
    """Per-layer metrics from the spans of one traced setup and ``passes`` passes.

    Work inside passes is reported per pass; work in the traced setup
    (scenario generation) is added once, so every time compares with one
    ``total_s`` plus one ``setup_s``. Times are multiplied by ``scale``,
    the run's machine-speed factor, as the end-to-end times are.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, field):
        spans = by.get(name, ())
        in_passes = sum(field(s) for s in spans if s.phase == "pass")
        return sum(field(s) for s in spans if s.phase != "pass") + in_passes / passes

    def calls(name):
        return total(name, lambda s: 1)

    def secs(name):
        return total(name, lambda s: s.duration)

    def self_s(name):
        return total(name, lambda s: s.self_s)

    def count(name, key):
        return total(name, lambda s: s.counts.get(key, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    lp = "simplex.solve_canonical_max"
    dk = "fractional.dinkelbach_project"
    pb = "polyblock.solve"
    sw = "experiments.power_sweep"
    grid = "oracle.grid_optimum"
    m = {
        f"{lp}.calls": (calls(lp), "count"),
        f"{lp}.s": (secs(lp), "s"),
        "simplex.pivots": (count(lp, "pivots"), "count"),
        "simplex.pivots_per_lp": (ratio(count(lp, "pivots"), calls(lp)), "ratio"),
        "simplex.lp_rows_mean": (ratio(count(lp, "rows"), calls(lp)), "count"),
        "simplex.tableau_flops_computed": (count(lp, "flops"), "flop"),
        f"{dk}.calls": (calls(dk), "count"),
        f"{dk}.s": (secs(dk), "s"),
        f"{dk}.self_s": (self_s(dk), "s"),
        "fractional.lp_solves": (count(dk, "lp_solves"), "count"),
        "fractional.lp_per_projection": (ratio(count(dk, "lp_solves"), calls(dk)), "ratio"),
        "fractional.build_maximin_lp.s": (secs("fractional.build_maximin_lp"), "s"),
        "fractional.compute_nd.s": (secs("fractional.compute_nd"), "s"),
        "fractional.projection_errors": (
            total(dk, lambda s: s.error == "ProjectionError"), "count"),
        f"{pb}.calls": (calls(pb), "count"),
        f"{pb}.s": (secs(pb), "s"),
        f"{pb}.self_s": (self_s(pb), "s"),
        "polyblock.iterations": (count(pb, "iterations"), "count"),
        "polyblock.projections": (count(pb, "projections"), "count"),
        "polyblock.budget_exceeded": (count(pb, "budget_exceeded"), "count"),
        "polyblock.improving_frac": (ratio(count(pb, "improving"), count(pb, "projections")), "ratio"),
    }
    for name in ("reduction.reduce_scenario", "reduction.p_from_z",
                 "reduction.sum_rate_from_powers", "model.verify"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    for name in ("oracle.baseline_greedy", "oracle.baseline_full_power", grid,
                 "experiments.generate_scenario", "experiments.cdf_experiment"):
        m[f"{name}.s"] = (secs(name), "s")
    m["oracle.grid_points_per_s"] = (ratio(count(grid, "points"), secs(grid)), "1/s")
    m["experiments.power_sweep.cpu_per_wall"] = (ratio(count(sw, "cpu_s"), secs(sw)), "ratio")
    m["trace.overhead_frac"] = (traced_pass_s / untraced_pass_s - 1.0, "ratio")
    per_unit = {"s": scale, "1/s": 1.0 / scale}
    return {k: (v * per_unit.get(u, 1.0), u) for k, (v, u) in m.items()}


def self_share_by_layer(spans: list[Span]) -> dict[str, float]:
    """Share of traced pass self time per layer (the span name's first part)."""
    out: dict[str, float] = {}
    for s in spans:
        if s.phase == "pass":
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.self_s
    tot = sum(out.values()) or 1.0
    return {k: v / tot for k, v in sorted(out.items(), key=lambda kv: -kv[1])}
