"""Spans around the program's layers, recorded from outside the program.

Each probe rebinds one name that a calling module looks up (for example
``dimm.pairwise.fit_block``, which ``fit_blocks`` calls) to a wrapper that
records a span: name, start, end, parent span and unit id. Spans stay in
memory until the run ends. A probe whose module or attribute no longer
exists is listed as absent; metrics that only it feeds are reported as
absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None
    error: bool = False


class Absent(Exception):
    """A metric's probe target, or a field it reads, does not exist."""


def _fit_block_counts(tracer: Tracer, args: tuple, kwargs: dict, fit: Any) -> None:
    trace = getattr(fit, "trace", None)
    try:
        tracer.add("pairwise.iterations", trace.simplex_iterations + trace.newton_iterations)
    except AttributeError:
        tracer.missing.add("pairwise.iterations")
    try:
        tracer.add("pairwise.restarted", trace.restarts > 0)
    except AttributeError:
        tracer.missing.add("pairwise.restarted")


def _ridge_count(tracer: Tracer, args: tuple, kwargs: dict, fit: Any) -> None:
    try:
        tracer.add("integrate.ridged", fit.ridge_used > 0.0)
    except AttributeError:
        tracer.missing.add("integrate.ridged")


def _gee_name(args: tuple, kwargs: dict) -> str:
    working = args[1] if len(args) > 1 else kwargs.get("working", "independence")
    return f"baselines.gee_{working}"


def _gee_counts(tracer: Tracer, args: tuple, kwargs: dict, fit: Any) -> None:
    if _gee_name(args, kwargs) == "baselines.gee_exchangeable":
        try:
            tracer.add("baselines.gee_exchangeable.iterations", fit.n_iter)
        except AttributeError:
            tracer.missing.add("baselines.gee_exchangeable.iterations")


def _panel_bytes(tracer: Tracer, args: tuple, kwargs: dict, data: Any) -> None:
    tracer.add("io.load_panel.bytes", sum(os.path.getsize(path) for path in args[:2]))


# (target "module:attribute.path", span name or namer, hook run on the result)
PROBES: tuple[tuple[str, str | Callable, Callable | None], ...] = (
    ("dimm.simulate:run_scenario", "simulate.run_scenario", None),
    ("dimm.simulate:generate_replicate", "simulate.generate", None),
    ("dimm.simulate:partition_dataset", "model.partition", None),
    ("dimm.pairwise:partition_dataset", "model.partition", None),
    ("dimm.cli:partition_dataset", "model.partition", None),
    ("dimm.simulate:fit_blocks", "pairwise.fit_blocks", None),
    ("dimm.cli:fit_blocks", "pairwise.fit_blocks", None),
    ("dimm.pairwise:fit_block", "pairwise.fit_block", _fit_block_counts),
    ("dimm.simulate:integrate_fits", "integrate.integrate_fits", _ridge_count),
    ("dimm.cli:integrate_fits", "integrate.integrate_fits", _ridge_count),
    ("dimm.integrate:weight_matrix", "integrate.weight_matrix", None),
    ("dimm.integrate:one_step_estimator", "integrate.one_step_estimator", None),
    ("dimm.integrate:dimm_covariance", "integrate.dimm_covariance", None),
    ("dimm.integrate:q_statistic", "integrate.q_statistic", None),
    ("dimm.simulate:gls_oracle", "baselines.gls_oracle", None),
    ("dimm.simulate:gee_fit", _gee_name, _gee_counts),
    ("dimm.simulate:chi2_quantile", "special.chi2_quantile", None),
    ("dimm.cli:main", "cli.main", None),
    ("dimm.cli:load_fit_config", "io.load_fit_config", None),
    ("dimm.cli:load_panel", "io.load_panel", _panel_bytes),
    ("dimm.cli:build_fit_report", "io.report", None),
    ("dimm.io:FitReport.save", "io.report", None),
)
# Span names a probe with a computed name can produce.
_GEE_SPANS = ("baselines.gee_independence", "baselines.gee_exchangeable")
# The entry points a unit calls; time inside them but outside every other
# span is what the trace does not attribute to a layer.
ROOT_SPANS = ("simulate.run_scenario", "cli.main")


class Tracer:
    """Installs the probes, records spans and counters, and restores the names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.absent_targets: list[str] = []
        self.unit: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.live_spans: set[str] = set()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def install(self, probes: tuple = PROBES) -> None:
        for target, name, hook in probes:
            module_name, _, path = target.partition(":")
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent_targets.append(target)
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))
            self.live_spans.update(_GEE_SPANS if callable(name) else (name,))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str | Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(
                name(args, kwargs) if callable(name) else name,
                0.0,
                0.0,
                self._stack[-1] if self._stack else None,
                self.unit,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

class Summary:
    """Per-unit aggregates of a finished trace; raises Absent for a missing probe."""

    def __init__(self, tracer: Tracer, units: int) -> None:
        self.tracer, self.units = tracer, max(units, 1)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        for span in tracer.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(tracer.spans):
            self.durations[span.name].append(span.end - span.start)
            self.self_time[span.name] += span.end - span.start - child_time[i]
            self.errors[span.name] += span.error

    def _need(self, name: str) -> list[float]:
        if name not in self.tracer.live_spans:
            raise Absent(name)
        return self.durations[name]

    def busy(self, name: str) -> float:
        return sum(self._need(name)) / self.units

    def calls(self, name: str) -> float:
        return len(self._need(name)) / self.units

    def ms_p50(self, name: str) -> float:
        durations = self._need(name)
        return 1e3 * statistics.median(durations) if durations else 0.0

    def self_s(self, name: str) -> float:
        self._need(name)
        return self.self_time[name] / self.units

    def count(self, counter: str, per: str | None = None) -> float:
        """A counter per unit, or per call of span ``per``."""
        if counter in self.tracer.missing:
            raise Absent(counter)
        if per is None:
            return self.tracer.counts[counter] / self.units
        calls = len(self._need(per)) - self.errors[per]
        return self.tracer.counts[counter] / calls if calls else 0.0

    def error_frac(self, name: str) -> float:
        calls = len(self._need(name))
        return self.errors[name] / calls if calls else 0.0

    def mb_per_s(self, name: str, bytes_counter: str) -> float:
        seconds = sum(self._need(name))
        return self.tracer.counts[bytes_counter] / 1e6 / seconds if seconds else 0.0

    def covered_s(self) -> float:
        """Total time that layer spans cover inside the root spans."""
        return sum(
            sum(self.durations[name]) - self.self_time[name] for name in ROOT_SPANS
        )


# Per-layer metric -> (unit, better, value from a Summary).
LAYER_METRICS: dict[str, tuple[str, str, Callable[[Summary], float]]] = {
    "io.load_fit_config.busy_s": ("s/unit", "lower", lambda s: s.busy("io.load_fit_config")),
    "io.load_panel.busy_s": ("s/unit", "lower", lambda s: s.busy("io.load_panel")),
    "io.load_panel.mb_per_s": ("MB/s", "higher", lambda s: s.mb_per_s("io.load_panel", "io.load_panel.bytes")),
    "io.report.busy_s": ("s/unit", "lower", lambda s: s.busy("io.report")),
    "pairwise.fit_block.busy_s": ("s/unit", "lower", lambda s: s.busy("pairwise.fit_block")),
    "pairwise.fit_block.ms_p50": ("ms", "lower", lambda s: s.ms_p50("pairwise.fit_block")),
    "pairwise.fit_block.calls": ("count/unit", "lower", lambda s: s.calls("pairwise.fit_block")),
    "pairwise.iterations": ("count/call", "lower", lambda s: s.count("pairwise.iterations", per="pairwise.fit_block")),
    "pairwise.restart_frac": ("fraction", "lower", lambda s: s.count("pairwise.restarted", per="pairwise.fit_block")),
    "pairwise.error_frac": ("fraction", "lower", lambda s: s.error_frac("pairwise.fit_block")),
    "integrate.integrate_fits.busy_s": ("s/unit", "lower", lambda s: s.busy("integrate.integrate_fits")),
    "integrate.weight_matrix.busy_s": ("s/unit", "lower", lambda s: s.busy("integrate.weight_matrix")),
    "integrate.one_step_estimator.busy_s": ("s/unit", "lower", lambda s: s.busy("integrate.one_step_estimator")),
    "integrate.dimm_covariance.busy_s": ("s/unit", "lower", lambda s: s.busy("integrate.dimm_covariance")),
    "integrate.q_statistic.busy_s": ("s/unit", "lower", lambda s: s.busy("integrate.q_statistic")),
    "integrate.ridge_frac": ("fraction", "lower", lambda s: s.count("integrate.ridged", per="integrate.integrate_fits")),
    "model.partition.busy_s": ("s/unit", "lower", lambda s: s.busy("model.partition")),
    "model.partition.calls": ("count/unit", "lower", lambda s: s.calls("model.partition")),
    "simulate.generate.busy_s": ("s/unit", "lower", lambda s: s.busy("simulate.generate")),
    "simulate.run_scenario.self_s": ("s/unit", "lower", lambda s: s.self_s("simulate.run_scenario")),
    "special.chi2_quantile.calls": ("count/unit", "lower", lambda s: s.calls("special.chi2_quantile")),
    "special.chi2_quantile.busy_s": ("s/unit", "lower", lambda s: s.busy("special.chi2_quantile")),
    "baselines.gls_oracle.busy_s": ("s/unit", "lower", lambda s: s.busy("baselines.gls_oracle")),
    "baselines.gee_independence.busy_s": ("s/unit", "lower", lambda s: s.busy("baselines.gee_independence")),
    "baselines.gee_exchangeable.busy_s": ("s/unit", "lower", lambda s: s.busy("baselines.gee_exchangeable")),
    "baselines.gee_exchangeable.iterations": ("count/call", "lower", lambda s: s.count("baselines.gee_exchangeable.iterations", per="baselines.gee_exchangeable")),
}
