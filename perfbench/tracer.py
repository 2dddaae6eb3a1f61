"""Outside-in layer tracing of xcflow.

The wrappers live in the benchmark's files only. Each one replaces the
module-level name that a caller looks up at call time, so a call is
timed wherever it comes from and no file of the package changes. Spans
(name, start, end, parent, ok) stay in memory while the workload runs
and are written out when it ends. `summarise` turns them into calls,
inclusive time and self time per span name. A span's self time is its
duration minus the durations of its child spans. A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time

LAYERS = ("flow", "geometry", "diagnostics", "claims", "cli")
ROOT_SPAN = "bench.workload"

# (module, attribute, span name). A function imported into several modules
# is wrapped in each of them, because each caller looks it up in its own.
TARGETS = (
    ("xcflow.flow", "evolve", "flow.evolve"),
    ("xcflow.cli", "evolve", "flow.evolve"),
    ("xcflow.flow", "validate_initial", "flow.validate_initial"),
    ("xcflow.cli", "validate_initial", "flow.validate_initial"),
    ("xcflow.flow", "step", "flow.step"),
    ("xcflow.flow", "_rhs_arrays", "flow.rhs"),
    ("xcflow.flow", "stable_dt", "flow.stable_dt"),
    ("xcflow.geometry", "MetricProfile.__post_init__", "geometry.profile_new"),
    ("xcflow.geometry", "s_derivative", "geometry.s_derivative"),
    ("xcflow.flow", "s_derivative", "geometry.s_derivative"),
    ("xcflow.diagnostics", "s_derivative", "geometry.s_derivative"),
    ("xcflow.diagnostics", "curvature_field", "geometry.curvature_field"),
    ("xcflow.flow", "functionals", "diagnostics.functionals"),
    ("xcflow.diagnostics", "rate_formulas", "diagnostics.rate_formulas"),
    ("xcflow.claims", "evaluate_claims", "claims.evaluate"),
    ("xcflow.cli", "evaluate_claims", "claims.evaluate"),
    ("xcflow.cli", "main", "cli.main"),
    ("xcflow.cli", "load_config", "cli.load_config"),
    ("xcflow.cli", "run_scenario", "cli.run_scenario"),
    ("xcflow.cli", "epsilon_sweep", "cli.epsilon_sweep"),
    ("xcflow.cli", "check_series", "cli.check_series"),
    ("xcflow.cli", "save_snapshot", "cli.save_snapshot"),
    ("xcflow.cli", "load_snapshot", "cli.load_snapshot"),
    ("xcflow.cli", "read_series", "cli.read_series"),
)
# the record sink that xcflow.cli passes to evolve; wrapped per call
SINK_SPAN = "cli.sink"


class Tracer:
    """Records spans of the wrapped calls of one child process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.extras = {"dt": [], "snapshot_bytes": 0, "verdicts": 0, "failed_verdicts": 0}

    def wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_dt(self, args, kwargs, result):
        self.extras["dt"].append(kwargs.get("dt", args[3] if len(args) > 3 else math.nan))

    def _record_snapshot(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.extras["snapshot_bytes"] += os.path.getsize(path)

    def _record_verdicts(self, args, kwargs, result):
        self.extras["verdicts"] += len(result)
        self.extras["failed_verdicts"] += sum(v.status == "fail" for v in result)

    def _evolve_from_cli(self, fn):
        # the sink runs inside evolve, but it is cli's code (series rows and
        # snapshots), so its time is charged to cli and not to flow.evolve
        def evolve(*args, **kwargs):
            if kwargs.get("sink") is not None:  # xcflow.cli passes it by keyword
                kwargs["sink"] = self.wrap(kwargs["sink"], SINK_SPAN)
            return fn(*args, **kwargs)

        return evolve

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded as missing."""
        after = {
            "flow.step": self._record_dt,
            "cli.save_snapshot": self._record_snapshot,
            "claims.evaluate": self._record_verdicts,
        }
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if module_name == "xcflow.cli" and leaf == "evolve":
                fn = self._evolve_from_cli(fn)
            setattr(owner, leaf, self.wrap(fn, name, after.get(name)))

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, ok] for n, start, end, parent, ok in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "spans": rows}, handle)


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [(names[i], start, end, parent, ok) for i, start, end, parent, ok in data["spans"]]


def summarise(spans) -> dict[str, dict]:
    """Per span name: calls, failed calls, inclusive seconds and self seconds."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, ok) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "failed": 0, "incl": 0.0, "self": 0.0})
        s["calls"] += 1
        s["failed"] += not ok
        s["incl"] += end - start
        s["self"] += end - start - covered[i]
    return stats


def layer_self(stats, layer) -> float:
    return sum(s["self"] for name, s in stats.items() if name.split(".", 1)[0] == layer)


def _get(stats, name, key):
    return stats[name][key] if name in stats else 0


def _per_step_us(st, ex):
    steps = _get(st, "flow.step", "calls") - _get(st, "flow.step", "failed")
    stepping = (_get(st, "flow.evolve", "incl") - _get(st, "diagnostics.functionals", "incl")
                - _get(st, SINK_SPAN, "incl"))
    return 1e6 * stepping / steps if steps else 0.0


def _per_record_ms(st, ex):
    records = _get(st, "diagnostics.functionals", "calls")
    return 1e3 * _get(st, "diagnostics.functionals", "incl") / records if records else 0.0


def _calls(name):
    return lambda st, ex: _get(st, name, "calls")


def _self(name):
    return lambda st, ex: _get(st, name, "self")


def _dt(pick):
    return lambda st, ex: pick(ex["dt"]) if ex["dt"] else 0.0


# (metric, unit, kind, span names it needs, value from (stats, extras)).
# kind "exact" must repeat exactly across samples of the same code and seed;
# "time" is the median over the traced samples of a run.
PER_LAYER = (
    ("flow.steps", "count", "exact", ("flow.step",),
     lambda st, ex: _get(st, "flow.step", "calls") - _get(st, "flow.step", "failed")),
    ("flow.retries", "count", "exact", ("flow.step",), lambda st, ex: _get(st, "flow.step", "failed")),
    ("flow.rhs_evals", "count", "exact", ("flow.rhs",), _calls("flow.rhs")),
    ("flow.dt_min", "flow_t", "exact", ("flow.step",), _dt(min)),
    ("flow.dt_median", "flow_t", "exact", ("flow.step",), _dt(statistics.median)),
    ("flow.dt_max", "flow_t", "exact", ("flow.step",), _dt(max)),
    ("flow.step_s", "s", "time", ("flow.step",), _self("flow.step")),
    ("flow.rhs_s", "s", "time", ("flow.rhs",), _self("flow.rhs")),
    ("flow.stable_dt_s", "s", "time", ("flow.stable_dt",), _self("flow.stable_dt")),
    ("flow.evolve_self_s", "s", "time", ("flow.evolve",), _self("flow.evolve")),
    ("flow.us_per_step", "us", "time",
     ("flow.evolve", "flow.step", "diagnostics.functionals"), _per_step_us),
    ("geometry.profile_new.calls", "count", "exact", ("geometry.profile_new",),
     _calls("geometry.profile_new")),
    ("geometry.profile_new_s", "s", "time", ("geometry.profile_new",), _self("geometry.profile_new")),
    ("geometry.s_derivative.calls", "count", "exact", ("geometry.s_derivative",),
     _calls("geometry.s_derivative")),
    ("geometry.s_derivative_s", "s", "time", ("geometry.s_derivative",),
     _self("geometry.s_derivative")),
    ("geometry.curvature_field_s", "s", "time", ("geometry.curvature_field",),
     _self("geometry.curvature_field")),
    ("diagnostics.records", "count", "exact", ("diagnostics.functionals",),
     _calls("diagnostics.functionals")),
    ("diagnostics.functionals_s", "s", "time", ("diagnostics.functionals",),
     _self("diagnostics.functionals")),
    ("diagnostics.rate_formulas_s", "s", "time", ("diagnostics.rate_formulas",),
     _self("diagnostics.rate_formulas")),
    ("diagnostics.ms_per_record", "ms", "time", ("diagnostics.functionals",), _per_record_ms),
    ("claims.evaluate_s", "s", "time", ("claims.evaluate",), _self("claims.evaluate")),
    ("claims.verdicts", "count", "exact", ("claims.evaluate",), lambda st, ex: ex["verdicts"]),
    ("claims.failed", "count", "exact", ("claims.evaluate",), lambda st, ex: ex["failed_verdicts"]),
    ("cli.load_config_s", "s", "time", ("cli.load_config",), _self("cli.load_config")),
    ("cli.series_s", "s", "time", ("flow.evolve",), _self(SINK_SPAN)),
    ("cli.series_bytes", "bytes", "exact", (), lambda st, ex: ex["series_bytes"]),
    ("cli.snapshots", "count", "exact", ("cli.save_snapshot",), _calls("cli.save_snapshot")),
    ("cli.snapshot_bytes", "bytes", "exact", ("cli.save_snapshot",),
     lambda st, ex: ex["snapshot_bytes"]),
    ("cli.save_snapshot_s", "s", "time", ("cli.save_snapshot",), _self("cli.save_snapshot")),
    ("cli.load_snapshot_s", "s", "time", ("cli.load_snapshot",), _self("cli.load_snapshot")),
    ("cli.read_series_s", "s", "time", ("cli.read_series",), _self("cli.read_series")),
) + tuple(
    (f"{layer}.self_s", "s", "time", (), lambda st, ex, layer=layer: layer_self(st, layer))
    for layer in LAYERS
) + (
    ("trace.coverage", "fraction", "time", (),
     lambda st, ex: 1.0 - _get(st, ROOT_SPAN, "self") / _get(st, ROOT_SPAN, "incl")),
    # filled in by run.py: traced median wall_s minus untraced median wall_s
    ("trace.overhead_s", "s", "time", (), None),
)


def layer_metrics(stats, extras, missing) -> dict[str, float | None]:
    """Per-layer values of one traced sample; None where a wrapped name is missing."""
    gone = {name for module, attr, name in TARGETS if f"{module}.{attr}" in missing}
    values = {}
    for metric, _, _, needs, value in PER_LAYER:
        if value is None:
            continue
        values[metric] = None if gone.intersection(needs) else value(stats, extras)
    return values
