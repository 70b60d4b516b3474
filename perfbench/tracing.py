"""In-memory spans and counters around rosmac's layer boundaries, installed from outside.

`Tracer.installed()` replaces, for the duration of a `with` block, the names
`rosmac.cli` imports from `ode`, `sde`, `ensemble`, `verification` and
`svgplot`, plus `sde.NoiseStream.increments`, `ensemble.stats_from_states`
and `model.generator_apply` (as `verification` sees it), with wrappers.  No
file of the package changes.

Each wrapped call records a span: name, start, end, thread, and the span that
caused it.  A call on a pool thread is caused by the innermost span open on
the thread that started the pool.  `generator_apply` runs once per grid point
(160,000 times at `--res 400`), so it is counted, not timed.

A span's self time is its duration minus the part of that interval its child
spans cover, as a union of intervals, so overlapping children on two worker
threads are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from rosmac import cli, ensemble, sde, verification


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        start = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent, threading.get_ident()))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _timed(self, name: str, account: Callable | None = None) -> Callable[[Callable], Callable]:
        """Decorator: a span per call, then `account(tracer, arguments, result)`."""

        def wrap(fn: Callable) -> Callable:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    result = fn(*args, **kwargs)
                if account is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    account(self, bound.arguments, result)
                return result

            return wrapper

        return wrap

    def _counted(self, key: str) -> Callable[[Callable], Callable]:
        """Decorator: count calls without timing them."""
        counts = self.counts

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[key] += 1  # single-threaded caller: the grid loop
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def _noise(self, fn: Callable) -> Callable:
        # 2,000 calls per ensemble run, each drawing thousands of variates:
        # timing them costs far less than the draws and gives sde.noise_s.
        @functools.wraps(fn)
        def wrapper(stream: sde.NoiseStream, m_steps: int, delta: float) -> Any:
            with self.span("sde.noise"):
                result = fn(stream, m_steps, delta)
            self.add("sde.noise_draws", result.size)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer boundaries; restore the originals on exit.

        A boundary the package no longer has is skipped, so its figures read 0.
        """
        wrappers = [
            (sde.NoiseStream, "increments", self._noise),
            (ensemble, "stats_from_states", self._timed("ensemble.reduce")),
            (verification, "generator_apply", self._counted("model.generator_apply_calls")),
            *((cli, name, self._timed(span, account)) for name, (span, account) in _CLI_BOUNDARIES.items()),
        ]
        patches = [
            (owner, attr, wrap(owner.__dict__[attr]))
            for owner, attr, wrap in wrappers
            if attr in owner.__dict__
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ---- derived per-layer figures ----

    def _total(self, *names: str) -> float:
        return sum(span.duration for span in self.spans if span.name in names)

    def self_time(self, *names: str) -> float:
        """Summed self time of every span with one of `names`."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return sum(
            span.duration - covered(children.get(index, []), span.start, span.end)
            for index, span in enumerate(self.spans)
            if span.name in names
        )

    def layer_metrics(self) -> dict[str, float]:
        count = self.counts
        ode_s = self._total("ode.integrate")
        path_s = self._total("sde.simulate_path")
        ensemble_s = self._total("ensemble.run_ensemble", "ensemble.ensemble_moments")
        generator_s = self._total("verification.check_generator_inequality")
        monotonicity_s = self._total("verification.check_monotonicity")
        grid_s = generator_s + monotonicity_s

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        return {
            "cli.self_s": self.self_time("cli.main"),
            "svgplot.render_s": self._total("svgplot.line_chart", "svgplot.phase_portrait"),
            "svgplot.points": count["svgplot.points"],
            "svgplot.svg_bytes": count["svgplot.svg_bytes"],
            "ode.integrate_s": ode_s,
            "ode.rk4_steps": count["ode.rk4_steps"],
            "ode.rk4_steps_per_s": rate(count["ode.rk4_steps"], ode_s),
            "ode.detect_s": self._total("ode.detect_asymptotics"),
            "sde.noise_s": self._total("sde.noise"),
            "sde.noise_calls": sum(1 for span in self.spans if span.name == "sde.noise"),
            "sde.noise_draws": count["sde.noise_draws"],
            "sde.path_s": path_s,
            "sde.em_steps_per_s": rate(count["sde.em_steps"], path_s),
            "ensemble.run_s": ensemble_s,
            "ensemble.step_self_s": self.self_time("ensemble.run_ensemble", "ensemble.ensemble_moments"),
            "ensemble.reduce_s": self._total("ensemble.reduce"),
            "ensemble.path_steps": count["ensemble.path_steps"],
            "ensemble.path_steps_per_s": rate(count["ensemble.path_steps"], ensemble_s),
            "ensemble.states_bytes_computed": count["ensemble.states_bytes_computed"],
            "verification.generator_s": generator_s,
            "verification.grid_points": count["verification.grid_points"],
            "verification.grid_points_per_s": rate(count["verification.grid_points"], grid_s),
            "verification.monotonicity_s": monotonicity_s,
            "verification.moment_bound_s": self._total("verification.check_moment_bound"),
            "model.generator_apply_calls": count["model.generator_apply_calls"],
        }

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        summary: dict[str, dict[str, float]] = {}
        for name in sorted({span.name for span in self.spans}):
            summary[name] = {
                "calls": sum(1 for span in self.spans if span.name == name),
                "total_s": self._total(name),
                "self_s": self.self_time(name),
            }
        return summary


# ---- what each cli-level boundary adds to the counters ----

def _ensemble_work(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    runs, cfg, stride = args["runs"], args["cfg"], args["stride"]
    tracer.add("ensemble.path_steps", runs * cfg.m_steps)
    # Bytes of the (runs, recorded, 2) float64 states tensor the ensemble materialises.
    tracer.add("ensemble.states_bytes_computed", runs * (cfg.m_steps // stride + 1) * 2 * 8)


def _rk4_work(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    tracer.add("ode.rk4_steps", len(result) - 1)


def _em_work(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    tracer.add("sde.em_steps", len(result) - 1)


def _grid_work(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    tracer.add("verification.grid_points", args["grid"].resolution ** 2)


def _line_chart_work(tracer: Tracer, args: dict[str, Any], result: str) -> None:
    tracer.add("svgplot.points", len(args["x"]) * len(args["curves"]))
    tracer.add("svgplot.svg_bytes", len(result.encode()))


def _portrait_work(tracer: Tracer, args: dict[str, Any], result: str) -> None:
    points = len(args["field"]) + sum(len(xs) for xs, _ in args["trajectories"])
    tracer.add("svgplot.points", points)
    tracer.add("svgplot.svg_bytes", len(result.encode()))


# Every function `rosmac.cli` imports from the library layers: span name and work counter.
_CLI_BOUNDARIES: dict[str, tuple[str, Callable | None]] = {
    "integrate": ("ode.integrate", _rk4_work),
    "detect_asymptotics": ("ode.detect_asymptotics", None),
    "vector_field_grid": ("ode.vector_field_grid", None),
    "simulate_path": ("sde.simulate_path", _em_work),
    "run_ensemble": ("ensemble.run_ensemble", _ensemble_work),
    "ensemble_moments": ("ensemble.ensemble_moments", _ensemble_work),
    "bound_constants": ("verification.bound_constants", None),
    "monotonicity_constant": ("verification.monotonicity_constant", None),
    "check_generator_inequality": ("verification.check_generator_inequality", _grid_work),
    "check_monotonicity": ("verification.check_monotonicity", _grid_work),
    "check_moment_bound": ("verification.check_moment_bound", None),
    "line_chart": ("svgplot.line_chart", _line_chart_work),
    "phase_portrait": ("svgplot.phase_portrait", _portrait_work),
}
