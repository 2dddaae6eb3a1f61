"""Configuration ingestion, run orchestration, and file outputs.

Scenario configs are line-oriented `key = value` text with `#` comments
and dotted keys. Minimal example:

    bundle = torus
    t_end = 2.0

Everything else has documented defaults (see README). Subcommands:

    xcf run --config cfg.txt [--resume snap.json]
    xcf curvature --config cfg.txt
    xcf check --series series.csv --kind torus [--n 256] [--period 6.283...]
    xcf eps-sweep --config cfg.txt --epsilons 1e-2,1e-3,1e-4

The environment variable XCF_OUT overrides output.dir. All floats are
written in shortest round-trip decimal form so that CSV rows and
snapshots reload bit-exactly; a run resumed from a snapshot reproduces
the remaining record rows byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .claims import ClaimTolerances, ClaimVerdict, NOT_APPLICABLE, evaluate_claims
from .diagnostics import SERIES_HEADER, DiagnosticsRecord, read_series, series_table
from .diagnostics import write_series_row
from ._periodic import first_nonfinite
from .flow import FlowConfig, _lands, _reached, evolve, next_record_index, record_landings
from .flow import validate_initial
from .geometry import (
    MIN_N, BundleKind, FieldError, MetricProfile, NumericOverflowError, curvature_field, require,
)

__all__ = [
    "ConfigError",
    "NotApplicableError",
    "ScenarioConfig",
    "load_config",
    "sinusoid_profile",
    "build_profile",
    "save_snapshot",
    "load_snapshot",
    "read_series",
    "run_scenario",
    "curvature_dump",
    "epsilon_sweep",
    "check_series",
    "main",
]

CURVATURE_HEADER = "i,x,f,g,w,w_s,K12,K23,Ric11,Ric22,R,P11,P22,h11,h22"

# dx comes from the profile that runs and theta has its own key
_TOLERANCE_KEYS = {f.name for f in dataclasses.fields(ClaimTolerances)} - {"dx", "theta"}
_FLOW_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(FlowConfig)
    if f.name not in ("kind", "tolerances")
}
# the errors that `main` reports as "error: ..." with exit status 2
_REPORTED = (ValueError, ArithmeticError, RuntimeError, OSError)
# a worker's input pipe: 255 profiles to record, landed or interpolated, at n = 256
_FEED_BYTES = 1 << 20
# an eps-sweep member's landing grid in record gaps: its records between are interpolated.
# On the sweep's setup every series field stays within 5.3e-4 of the record-bound run's
# n/2 -> n grid difference at n = 256 and 512, and 1e-3 at n = 2048, against the 1e-2 that
# TestEpsilonSweepDense holds; landing on t_end alone reached 1.45e-2 at n = 512
_SWEEP_LANDING_GAPS = 10


class ConfigError(ValueError):
    """Scenario text failed to parse or validate."""

    def __init__(self, message: str, line: int = 0):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}")

    def __reduce__(self):  # rebuilt from its arguments, not from its message
        return type(self), (self.message, self.line), self.__dict__


class NotApplicableError(ValueError):
    """The requested operation does not apply to this bundle family."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: flow parameters, grid, initial profile and outputs.

    snapshot_every defaults to t_end / 2; inf means snapshots at the start
    and the end only. Each check raises a FieldError that names its config
    key. flow.tolerances.dx is left as given: `run_scenario` sets it to the
    spacing of the profile that runs, which a snapshot may give.
    """

    flow: FlowConfig
    n: int
    period: float
    family: str  # "sinusoid" | "file"
    base: float
    amplitude: float
    wavenumber: int
    profile_path: str | None
    out_dir: str
    snapshot_every: float | None = None

    def __post_init__(self):
        require(self.n >= MIN_N, "grid.n", f"be >= {MIN_N}", self.n)
        require(self.period > 0.0, "grid.period", "be positive", self.period)
        require(self.period < math.inf, "grid.period", "be finite", self.period)
        require(self.family in ("sinusoid", "file"), "profile.family",
                "be 'sinusoid' or 'file'", self.family)
        if self.family == "sinusoid":
            if not 0.0 <= self.amplitude < self.base:
                raise FieldError(
                    f"sinusoid profiles need base > amplitude >= 0, "
                    f"got base={self.base!r} amplitude={self.amplitude!r}",
                    "profile.amplitude", "profile.base",
                )
            require(self.base < math.inf, "profile.base", "be finite", self.base)
            require(self.wavenumber >= 1, "profile.wavenumber", "be a positive integer",
                    self.wavenumber)
        elif self.profile_path is None:
            raise FieldError("profile.family = file requires profile.path", "profile.family")
        if self.snapshot_every is None:
            object.__setattr__(self, "snapshot_every", 0.5 * self.flow.t_end)
        require(self.snapshot_every > 0.0, "output.snapshot_every", "be positive",
                self.snapshot_every)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


def _integer(text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


# what each value parser accepts, for its error message
_EXPECTED = {float: "a number", _integer: "an integer", BundleKind: "'torus' or 'sphere'"}


def _entries(text: str) -> dict[str, tuple[str, int]]:
    """Raw key/value pairs with their source line numbers."""
    items: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError("expected `key = value`", lineno)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        items[key] = (value, lineno)
    return items


def load_config(text: str) -> ScenarioConfig:
    """Parse scenario text into a ScenarioConfig.

    This only parses: ScenarioConfig, FlowConfig and ClaimTolerances
    check their own fields. Every error is a ConfigError with the
    offending line number (0 for whole-file problems such as a missing
    required key: bundle, t_end).
    """
    entries = _entries(text)
    lines: dict[str, int] = {}

    def take(key, parse, default):
        """Pop and parse key; `default` when absent, required if MISSING."""
        if key not in entries:
            if default is dataclasses.MISSING:
                raise ConfigError(f"missing required key {key!r}", 0)
            return default
        value, lines[key] = entries.pop(key)
        try:
            return parse(value)
        except ValueError:
            raise ConfigError(
                f"{key} must be {_EXPECTED[parse]}, got {value!r}", lines[key]
            ) from None

    kind = take("bundle", BundleKind, dataclasses.MISSING)
    flow_args = {key: take(key, float, default) for key, default in _FLOW_DEFAULTS.items()}
    scenario_args = dict(
        n=take("grid.n", _integer, 256),
        period=take("grid.period", float, 2.0 * math.pi),
        family=take("profile.family", str, "sinusoid"),
        base=take("profile.base", float, 2.0),
        amplitude=take("profile.amplitude", float, 0.1),
        wavenumber=take("profile.wavenumber", _integer, 1),
        profile_path=take("profile.path", str, None),
        out_dir=take("output.dir", str, "xcf_out"),
        snapshot_every=take("output.snapshot_every", float, None),
    )
    tol_args = {"theta": take("theta", float, ClaimTolerances.theta)}
    for key in [k for k in entries if k.startswith("tol.")]:
        name = key[4:]
        if name not in _TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance key {key!r}", entries[key][1])
        tol_args[name] = take(key, float, None)
        lines[name] = lines[key]  # ClaimTolerances names the field alone
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {key!r}", lineno)

    try:
        flow = FlowConfig(kind=kind, tolerances=ClaimTolerances(**tol_args), **flow_args)
        return ScenarioConfig(flow=flow, **scenario_args)
    except FieldError as exc:
        raise ConfigError(str(exc), next((lines[k] for k in exc.keys if k in lines), 0)) from None


def sinusoid_profile(
    n: int, period: float, base: float, amplitude: float, wavenumber: int
) -> MetricProfile:
    """g = base + amplitude * sin(wavenumber * (2 pi / period) * x), f = 1, at t = 0.

    The sine makes wavenumber whole turns around the circle, so g is
    periodic at any period; at period 2 pi the factor 2 pi / period is
    exactly 1.0 and the samples are those of sin(wavenumber * x). period
    is checked first, by MetricProfile's rule, as the sine divides by it.
    """
    require(0.0 < period < math.inf, "period", "be finite and positive", period)
    x = np.arange(n) * (period / n)
    return MetricProfile(
        n=n,
        period=period,
        t=0.0,
        f=np.ones(n),
        g=base + amplitude * np.sin(wavenumber * (2.0 * math.pi / period) * x),
    )


def build_profile(config: ScenarioConfig) -> MetricProfile:
    if config.family == "sinusoid":
        return sinusoid_profile(
            config.n, config.period, config.base, config.amplitude, config.wavenumber
        )
    return load_snapshot(config.profile_path)


def save_snapshot(profile: MetricProfile, path: str | Path) -> None:
    payload = {
        "n": profile.n,
        "period": profile.period,
        "t": profile.t,
        # tolist gives builtin floats, whose JSON text round-trips bit for bit
        "f": profile.f.tolist(),
        "g": profile.g.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_snapshot(path: str | Path) -> MetricProfile:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("snapshot is not a JSON object")
        n, period, t, f, g = (data[key] for key in ("n", "period", "t", "f", "g"))  # in order
        samples = [v for values in (f, g) if isinstance(values, list) for v in values]
        # float() would take a string or a boolean, and numpy a sample of either
        if not {type(period), type(t)} <= {int, float} or {str, bool} & set(map(type, samples)):
            raise TypeError("period and t must be numbers, and f and g lists of numbers")
        # n as it is: MetricProfile's integer rule rejects 16.7; it makes f and g float arrays
        return MetricProfile(n=n, period=period, t=t, f=f, g=g)
    except KeyError as exc:
        raise ValueError(f"{path}: snapshot has no field {exc.args[0]!r}") from None
    except TypeError as exc:  # such as "t": null or "6.28", "f": {...} or [true] or "n": [16]
        raise ValueError(f"{path}: snapshot has a field of the wrong type: {exc}") from None
    except ValueError as exc:  # text that is not UTF-8 or not JSON, or a value that
        # MetricProfile rejects, such as "n": 16.7 or "f": "abc"
        raise ValueError(f"{path}: {exc}") from None


def _out_dir(config: ScenarioConfig) -> Path:
    out = Path(os.environ.get("XCF_OUT") or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _claim_line(v: ClaimVerdict) -> str:
    """One verdict as written to claims.txt and printed by `check`."""
    status = "n/a" if v.status == NOT_APPLICABLE else v.status
    return (
        f"{v.claim_id} {status} measured={_fmt(v.measured)} "
        f"tol={_fmt(v.tolerance)} # {v.note}"
    )


def _write_claims(path: Path, verdicts: list[ClaimVerdict]) -> None:
    path.write_text("\n".join(map(_claim_line, verdicts)) + "\n", encoding="utf-8")


def _claims_exit_status(verdicts: list[ClaimVerdict]) -> int:
    return 0 if all(v.status != "fail" for v in verdicts) else 1


def _cpus() -> int:
    """CPUs in the affinity mask where processes can be forked, else 1."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


class _Workers:
    """Forked worker processes, each reaped when the `with` block ends.

    Reaping sends SIGKILL and then waits, so no worker outlives the block,
    whatever ends it; a worker that has already exited is only waited for.
    """

    def __init__(self):
        self._pids: list[int] = []
        self._ends: list = []  # this process's ends of the workers' pipes

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
        for end in self._ends:
            with contextlib.suppress(OSError):  # bytes that a broken pipe did not take
                end.close()
        for pid in self._pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)

    def fork(self, work, feed: bool = False):
        """Run work(report), or work(report, feed), in a forked worker.

        report is the buffered write end of a pipe to this process and feed
        the buffered read end of one from it, which holds up to
        _FEED_BYTES where the system allows, so that a sender is seldom
        held up by a worker that is busy. The worker ignores SIGINT, so a
        terminal's Ctrl-C interrupts this process alone, and leaves by
        os._exit when work returns or raises, so it flushes nothing it
        inherited.
        Returns this process's ends: the report's read end, and the feed's
        write end or None.
        """
        report_r, report_w = os.pipe()
        feed_r, feed_w = os.pipe() if feed else (None, None)
        if feed:
            import fcntl

            with contextlib.suppress(AttributeError, OSError):  # Linux only, up to a limit
                fcntl.fcntl(feed_w, fcntl.F_SETPIPE_SZ, _FEED_BYTES)
        pid = os.fork()
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent only
                os.close(report_r)
                if feed:
                    os.close(feed_w)  # else the feed would never end
                with open(report_w, "wb") as report:  # buffered: writes every byte or raises
                    if feed:
                        work(report, open(feed_r, "rb"))
                    else:
                        work(report)
            finally:
                os._exit(0)
        self._pids.append(pid)
        os.close(report_w)
        if feed:
            os.close(feed_r)
        ends = open(report_r, "rb"), open(feed_w, "wb") if feed else None
        self._ends += filter(None, ends)
        return ends


def _landing_gaps(config: ScenarioConfig) -> float:
    """The record gaps between two landings of `xcf run`, the `landing_gaps` of `evolve`.

    On the torus, snapshot_every / record_every when that is a whole
    number within the tolerance of `flow._reached`, so that the steps land
    on the snapshot grid and every snapshot is a landed state; inf when
    snapshot_every is inf; else 1, a landing at every record time. A
    sphere run lands on every record time: on its snapshot grid, profile
    A at n = 256, t_end 2 and the default cadence moved L by 2.4e-2 of its
    n/2 -> n grid difference from the record-bound run, above the 1e-2
    that torus-cli's setup keeps.
    """
    if config.flow.kind is BundleKind.SPHERE:
        return 1
    ratio = config.snapshot_every / config.flow.record_every
    if ratio == math.inf:
        return math.inf
    whole = round(ratio)
    return whole if whole > 1 and _reached(ratio, whole) and _reached(whole, ratio) else 1


@contextlib.contextmanager
def _recording(out: Path, config: ScenarioConfig, gaps: float, rows: bytearray):
    """Yield `run_scenario`'s record sink, which writes series.csv and snapshots.

    The sink appends each record's packed row to rows, the series table's
    packed rows, and its text row to series.csv. It snapshots landed
    states only: the first record, and each record that `evolve` with
    landing_gaps=gaps lands on (`flow._lands`) and that reached the
    multiple of snapshot_every after the last snapshot. Leaving the block,
    also by an error, snapshots the last landed record unless it was
    saved; a run that recorded nothing leaves none.
    """
    every, t_end = config.flow.record_every, config.flow.t_end
    last = saved = None  # the last landed profile; the last snapshot's profile
    saved_k = 0  # next_record_index of the last snapshot's time
    with open(out / "series.csv", "w", encoding="utf-8") as series:
        series.write(SERIES_HEADER + "\n")

        def sink(rec: DiagnosticsRecord, prof: MetricProfile) -> None:
            nonlocal last, saved, saved_k
            write_series_row(series, rec, rows)
            if not (saved is None or _lands(prof.t, every, gaps, t_end)):
                return  # an interpolated profile
            k = next_record_index(prof.t, config.snapshot_every)
            if saved is None or k > saved_k:
                save_snapshot(prof, out / f"snap_{prof.t!r}.json")
                saved, saved_k = prof, k
            last = prof

        try:
            yield sink
        finally:
            if last is not saved:  # the end
                save_snapshot(last, out / f"snap_{last.t!r}.json")


def _report(report, cells, error: Exception | None) -> None:
    """Write a worker's report: the count of its float64 cells, the cells, then its pickled error."""
    report.write((memoryview(cells).nbytes // 8).to_bytes(8, sys.byteorder))
    report.write(cells)
    report.write(pickle.dumps(error))


def _read_report(report) -> tuple[memoryview, Exception | None, bool]:
    """(cells, error, whole) of a `_report` read to its end: the bytes of the cells that
    arrived, read in place into one buffer of the announced size; the worker's error, None
    unless it arrived whole; and whether both did, which a worker that died reporting misses."""
    head = report.read(8)
    size = 8 * int.from_bytes(head, sys.byteorder) if len(head) == 8 else 0
    cells = memoryview(bytearray(size))
    cells = cells[:report.readinto(cells)]  # reads until the buffer is full or the pipe ends
    if len(head) == 8 and len(cells) == size:  # else it died before its error
        with contextlib.suppress(EOFError, pickle.UnpicklingError):  # a short or no error
            return cells, pickle.load(report), True
    return cells, None, False


def _received(feed, n: int, period: float):
    """The landed profiles that `_record_lane` sends, each as its 1 + 2n float64 (t, f, g)."""
    while True:
        buf = np.empty(1 + 2 * n)
        if feed.readinto(buf) < buf.nbytes:  # the sender has closed its end
            return
        yield MetricProfile._trusted(n, period, float(buf[0]), buf[1:n + 1], buf[n + 1:])


def _record_lane(profile: MetricProfile, config: ScenarioConfig, out: Path, gaps: float):
    """Step here and make the records, series rows and snapshots in one forked process.

    `evolve` with landing_gaps=gaps sends the profile of each record time
    down a pipe, landed or interpolated alike; the record process runs
    `record_landings` with the `_recording` sink on them, which tells the
    landed ones by their time, and, when they end, reports the series
    table's packed rows and its error. The pipe's format does not depend
    on the landing grid. Returns the packed rows as `_read_report` reads
    them, in place. The record process's
    error wins over this process's, as a record error raised after a
    failing step does in `evolve`. On any error of the steps, such as
    KeyboardInterrupt, the records made before it are finished first, so
    the outputs are those of one CPU; an interrupt that arrives while
    this process waits for the report kills the record process.
    """
    def record(report, feed):
        rows, error = bytearray(), None
        try:
            with _recording(out, config, gaps, rows) as sink:
                record_landings(_received(feed, profile.n, profile.period), config.flow.kind, sink)
        except Exception as exc:
            error = exc
        feed.close()  # a sender still writing gets a broken pipe, not a full one
        _report(report, rows, error)

    def send(prof: MetricProfile) -> None:  # as the 1 + 2n float64 that _received reads
        feed.write(np.float64(prof.t))
        feed.write(prof.f)
        feed.write(prof.g)

    with _Workers() as workers:
        report, feed = workers.fork(record, feed=True)
        error = None
        try:
            evolve(profile, config.flow, landed=send, landing_gaps=gaps)
        except BaseException as exc:  # KeyboardInterrupt too: the records before it come first
            error = exc
        with contextlib.suppress(OSError):  # a broken pipe: the report tells why
            feed.close()
        rows, lane_error, whole = _read_report(report)
        if not whole:  # the record process died
            raise RuntimeError("the record process ended without reporting") from error
        error = lane_error or error
    if error is not None:
        raise error
    return rows


def run_scenario(config: ScenarioConfig, resume: str | Path | None = None) -> int:
    """Run one scenario and write series.csv, snapshots, and claims.txt.

    With resume, the profile comes entirely from the snapshot file (the
    config's profile and grid sections are ignored) and the series
    covers t >= the snapshot time. The claims take dx from the profile
    that runs. Returns 0 iff every applicable claim passes. The steps
    land on the snapshot grid where `_landing_gaps` finds one, and the
    records between landings are interpolated. With two or more CPUs,
    `_record_lane` makes the records, series rows and snapshots in a
    forked process; the outputs are the same.
    """
    out = _out_dir(config)
    profile = load_snapshot(resume) if resume is not None else build_profile(config)
    # fail before any file is written; torus profiles pass, and evolve warns once
    if config.flow.kind is BundleKind.SPHERE:
        validate_initial(profile, config.flow.kind)

    gaps = _landing_gaps(config)
    if _cpus() >= 2:
        rows = _record_lane(profile, config, out, gaps)
    else:
        rows = bytearray()  # the series table's packed rows; no record is kept
        with _recording(out, config, gaps, rows) as sink:
            evolve(profile, config.flow, sink=sink, landing_gaps=gaps)

    tolerances = dataclasses.replace(config.flow.tolerances, dx=profile.dx)
    verdicts = evaluate_claims(series_table(rows), config.flow.kind, tolerances)
    _write_claims(out / "claims.txt", verdicts)
    return _claims_exit_status(verdicts)


def curvature_dump(config: ScenarioConfig) -> int:
    """One-shot per-node curvature table for the configured profile.

    Raises NumericOverflowError naming the first column, in table order,
    with a non-finite entry and its node.
    """
    out = _out_dir(config)
    profile = build_profile(config)
    field = curvature_field(profile, config.flow.kind)
    columns = [profile.x]
    # x comes from the profile; f, g, w, ..., h22 are fields or properties of the field
    with np.errstate(over="ignore", invalid="ignore"):
        for name in CURVATURE_HEADER.split(",")[2:]:
            columns.append(getattr(field, name))
            node = first_nonfinite(columns[-1])
            if node is not None:
                raise NumericOverflowError(f"curvature component {name}", node, profile.t)
    with open(out / "curvature.csv", "w", encoding="utf-8") as handle:
        handle.write(CURVATURE_HEADER + "\n")
        for i in range(profile.n):
            handle.write(",".join([str(i)] + [_fmt(arr[i]) for arr in columns]) + "\n")
    return 0


def epsilon_sweep(config: ScenarioConfig, epsilons: list[float]) -> int:
    """Compare regularised torus runs against the degenerate run.

    Every listed epsilon (plus the epsilon = 0 baseline) evolves the same
    initial data to t_end in its own subdirectory; eps_sweep.csv reports
    sup|g_eps(t_end) - g_0(t_end)| per listed epsilon, in the listed order.
    A member's steps land on every 10th record time and on t_end, and the
    series rows between are cubic Hermite interpolants of the step that
    passes over them (`evolve` with landing_gaps): interpolated states, not
    states of the discrete flow. g(t_end) is a landed state.
    Members run round-robin on one lane per CPU in the affinity mask, lanes
    after the first in forked workers; no output or error depends on that.
    An empty list, or an epsilon that FlowConfig rejects, is a ValueError
    raised before any member runs or any directory is made.
    """
    if config.flow.kind is not BundleKind.TORUS:
        raise NotApplicableError("epsilon sweep applies to torus runs only")
    require(len(epsilons) > 0, "epsilons", "list at least one epsilon", epsilons)
    # FlowConfig checks every epsilon before any member runs
    flows = {
        eps: dataclasses.replace(config.flow, epsilon=eps)
        for eps in dict.fromkeys([0.0, *map(float, epsilons)])
    }
    out = _out_dir(config)
    initial = build_profile(config)
    members = list(flows)
    lanes = min(len(members), _cpus())
    finals: dict[float, np.ndarray] = {}

    def run(chosen: list[float]) -> Exception | None:  # into finals; the error that stops it
        for eps in chosen:
            sub = out / f"eps_{eps!r}"
            sub.mkdir(parents=True, exist_ok=True)
            try:
                with open(sub / "series.csv", "w", encoding="utf-8") as series:
                    series.write(SERIES_HEADER + "\n")
                    final, _ = evolve(initial, flows[eps], sink=lambda rec, prof: write_series_row(
                        series, rec), landing_gaps=_SWEEP_LANDING_GAPS)
            except Exception as exc:
                return exc
            finals[eps] = final.g

    def work(chosen: list[float], report) -> None:  # a worker: its finals go back bit for bit
        warnings.simplefilter("ignore")  # the first lane issues them for the same data
        error = run(chosen)
        _report(report, b"".join(g.tobytes() for g in finals.values()), error)

    with _Workers() as workers:
        reports = [(workers.fork(functools.partial(work, members[lane::lanes]))[0],
                    members[lane::lanes]) for lane in range(1, lanes)]
        errors = [run(members[::lanes])]  # per lane; None where a worker reported none
        for report, chosen in reports:  # a worker's report ends as it exits
            with report:
                cells, error, _ = _read_report(report)
            # whole rows only: a worker that died while writing reported the members before
            rows = np.frombuffer(cells, count=len(cells) // initial.g.nbytes * initial.n)
            finals.update(zip(chosen, rows.reshape(-1, initial.n)))
            errors.append(error)
        # each lane stops at its first failure, so the first member without a final failed first
        first = next((i for i, eps in enumerate(members) if eps not in finals), None)
        if first is not None:
            raise errors[first % lanes] or RuntimeError(
                f"the worker of epsilons {members[first % lanes::lanes]} ended without reporting")

    with open(out / "eps_sweep.csv", "w", encoding="utf-8") as handle:
        handle.write("epsilon,sup_gap\n")
        for eps in map(float, epsilons):
            gap = float(np.max(np.abs(finals[eps] - finals[0.0])))
            handle.write(f"{_fmt(eps)},{_fmt(gap)}\n")
    return 0


def check_series(
    series_path: str | Path,
    kind: BundleKind,
    tolerances: ClaimTolerances | None = None,
) -> int:
    """Re-run the claim checker on an existing series CSV.

    `read_series` loads the file as a series table, which `evaluate_claims`
    takes as it is. The series format carries no grid metadata, so the
    grid spacing of the monotonicity slack is `tolerances.dx`; the
    default tolerances assume the standard grid, n = 256 on a period of
    2 pi.
    """
    verdicts = evaluate_claims(read_series(series_path), kind, tolerances)
    for v in verdicts:
        print(_claim_line(v))
    return _claims_exit_status(verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xcf",
        description="Cross curvature flow simulator and claim checker "
        "for circle-symmetric 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a scenario and write series/snapshots/claims")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--resume", help="snapshot JSON to resume from")

    p_curv = sub.add_parser("curvature", help="dump the per-node curvature table")
    p_curv.add_argument("--config", required=True)

    p_check = sub.add_parser("check", help="re-run the claim checker on a series CSV")
    p_check.add_argument("--series", required=True)
    p_check.add_argument("--kind", required=True, choices=[k.value for k in BundleKind])
    p_check.add_argument("--n", type=int, default=256, help="grid size for the monotonicity slack")
    p_check.add_argument("--period", type=float, default=2.0 * math.pi)

    p_eps = sub.add_parser("eps-sweep", help="compare regularised runs against epsilon = 0")
    p_eps.add_argument("--config", required=True)
    p_eps.add_argument("--epsilons", required=True, help="comma-separated epsilon list")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            require(args.n >= MIN_N, "--n", f"be >= {MIN_N}", args.n)
            require(0.0 < args.period < math.inf, "--period", "be finite and positive", args.period)
            tolerances = ClaimTolerances(dx=args.period / args.n)
            return check_series(args.series, BundleKind(args.kind), tolerances)
        config = load_config(Path(args.config).read_text(encoding="utf-8"))
        if args.command == "run":
            return run_scenario(config, resume=args.resume)
        if args.command == "curvature":
            return curvature_dump(config)
        try:
            epsilons = [float(part) for part in args.epsilons.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"--epsilons must be comma-separated numbers: {exc}") from None
        return epsilon_sweep(config, epsilons)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

