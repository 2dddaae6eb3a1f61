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
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .claims import ClaimTolerances, ClaimVerdict, NOT_APPLICABLE, evaluate_claims
from .diagnostics import DiagnosticsRecord
from .flow import FlowConfig, FlowConfigError, evolve, next_record_index, validate_initial
from .geometry import BundleKind, MetricProfile, curvature_field

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

SERIES_FIELDS = (
    "t", "L", "V", "g_max", "g_min", "sup_gs", "sup_gss", "E2",
    "l2_gss", "l2_gsss", "zero_count", "dL_dt_formula", "dV_dt_formula",
    "K12_sup", "K23_mean", "K23_spread", "R_mean",
)
SERIES_HEADER = ",".join(SERIES_FIELDS)

CURVATURE_HEADER = "i,x,f,g,w,w_s,K12,K23,Ric11,Ric22,R,P11,P22,h11,h22"

_TOLERANCE_FIELDS = {f.name for f in dataclasses.fields(ClaimTolerances)}
_FLOW_KEYS = ("t_end", "epsilon", "safety", "dt_max", "record_every")


class ConfigError(ValueError):
    """Scenario text failed to parse or validate."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NotApplicableError(ValueError):
    """The requested operation does not apply to this bundle family."""


@dataclass(frozen=True)
class ScenarioConfig:
    flow: FlowConfig
    n: int
    period: float
    family: str  # "sinusoid" | "file"
    base: float
    amplitude: float
    wavenumber: int
    profile_path: str | None
    out_dir: str
    snapshot_every: float


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


class _Entries:
    """Raw key/value pairs with their source line numbers."""

    def __init__(self, text: str):
        self.items: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError("expected `key = value`", lineno)
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError("expected `key = value`", lineno)
            if key in self.items:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            self.items[key] = (value, lineno)

    def take(self, key: str) -> tuple[str, int] | None:
        return self.items.pop(key, None)

    def take_float(self, key: str, default: float | None) -> tuple[float, int]:
        got = self.take(key)
        if got is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}", 0)
            return default, 0
        value, lineno = got
        try:
            return float(value), lineno
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None

    def take_int(self, key: str, default: int) -> tuple[int, int]:
        got = self.take(key)
        if got is None:
            return default, 0
        value, lineno = got
        try:
            parsed = float(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None
        if parsed != int(parsed):
            raise ConfigError(f"{key} must be an integer, got {value!r}", lineno)
        return int(parsed), lineno

    def take_str(self, key: str, default: str | None) -> tuple[str | None, int]:
        got = self.take(key)
        if got is None:
            return default, 0
        return got[0], got[1]


def load_config(text: str) -> ScenarioConfig:
    """Parse and fully validate scenario text.

    Unknown keys, missing required keys (bundle, t_end) and invariant
    violations raise ConfigError with the offending line number (0 for
    whole-file problems such as a missing key).
    """
    entries = _Entries(text)

    bundle_raw, bundle_line = entries.take_str("bundle", None)
    if bundle_raw is None:
        raise ConfigError("missing required key 'bundle'", 0)
    try:
        kind = BundleKind(bundle_raw)
    except ValueError:
        raise ConfigError(
            f"bundle must be 'torus' or 'sphere', got {bundle_raw!r}", bundle_line
        ) from None

    # FlowConfig owns the defaults and checks of its fields: pass only the
    # keys present, and report its errors at the offending key's line
    flow_args, flow_lines = {}, {}
    for key in _FLOW_KEYS:
        if key in entries.items:
            flow_args[key], flow_lines[key] = entries.take_float(key, None)
    if "t_end" not in flow_args:
        raise ConfigError("missing required key 't_end'", 0)
    try:
        flow = FlowConfig(kind=kind, **flow_args)
    except FlowConfigError as exc:
        raise ConfigError(str(exc), flow_lines.get(exc.key, 0)) from None

    n, n_line = entries.take_int("grid.n", 256)
    if n < 8:
        raise ConfigError(f"grid.n must be >= 8, got {n}", n_line)
    period, period_line = entries.take_float("grid.period", 2.0 * math.pi)
    if period <= 0.0:
        raise ConfigError(f"grid.period must be positive, got {period!r}", period_line)

    family, family_line = entries.take_str("profile.family", "sinusoid")
    if family not in ("sinusoid", "file"):
        raise ConfigError(
            f"profile.family must be 'sinusoid' or 'file', got {family!r}", family_line
        )
    base, base_line = entries.take_float("profile.base", 2.0)
    amplitude, amp_line = entries.take_float("profile.amplitude", 0.1)
    wavenumber, k_line = entries.take_int("profile.wavenumber", 1)
    profile_path, path_line = entries.take_str("profile.path", None)
    if family == "sinusoid":
        if not 0.0 <= amplitude < base:
            raise ConfigError(
                f"sinusoid profiles need base > amplitude >= 0, "
                f"got base={base!r} amplitude={amplitude!r}",
                amp_line or base_line,
            )
        if wavenumber < 1:
            raise ConfigError(
                f"profile.wavenumber must be a positive integer, got {wavenumber}", k_line
            )
    elif profile_path is None:
        raise ConfigError("profile.family = file requires profile.path", family_line)

    out_dir, _ = entries.take_str("output.dir", "xcf_out")
    snapshot_every, snap_line = entries.take_float("output.snapshot_every", 0.5 * flow.t_end)
    if snapshot_every <= 0.0:
        raise ConfigError(
            f"output.snapshot_every must be positive, got {snapshot_every!r}", snap_line
        )

    theta, theta_line = entries.take_float("theta", 0.1)
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"theta must be in (0, 1], got {theta!r}", theta_line)
    overrides: dict[str, float] = {"theta": theta, "dx": period / n}
    for key in [k for k in entries.items if k.startswith("tol.")]:
        field = key[4:]
        value, lineno = entries.take(key)
        if field not in _TOLERANCE_FIELDS:
            raise ConfigError(f"unknown tolerance key {key!r}", lineno)
        try:
            overrides[field] = float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None

    if entries.items:
        key, (_, lineno) = next(iter(entries.items.items()))
        raise ConfigError(f"unknown key {key!r}", lineno)

    return ScenarioConfig(
        flow=dataclasses.replace(flow, tolerances=ClaimTolerances(**overrides)),
        n=n,
        period=period,
        family=family,
        base=base,
        amplitude=amplitude,
        wavenumber=wavenumber,
        profile_path=profile_path,
        out_dir=out_dir,
        snapshot_every=snapshot_every,
    )


def sinusoid_profile(
    n: int, period: float, base: float, amplitude: float, wavenumber: int
) -> MetricProfile:
    """g = base + amplitude * sin(wavenumber * x), f = 1, at t = 0."""
    x = np.arange(n) * (period / n)
    return MetricProfile(
        n=n,
        period=period,
        t=0.0,
        f=np.ones(n),
        g=base + amplitude * np.sin(wavenumber * x),
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
        "f": [float(v) for v in profile.f],
        "g": [float(v) for v in profile.g],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_snapshot(path: str | Path) -> MetricProfile:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return MetricProfile(
        n=int(data["n"]),
        period=float(data["period"]),
        t=float(data["t"]),
        f=np.asarray(data["f"], dtype=float),
        g=np.asarray(data["g"], dtype=float),
    )


def _series_row(rec: DiagnosticsRecord) -> str:
    parts = []
    for name in SERIES_FIELDS:
        value = getattr(rec, name)
        parts.append(str(int(value)) if name == "zero_count" else _fmt(value))
    return ",".join(parts)


def read_series(path: str | Path) -> list[DiagnosticsRecord]:
    """Load a series CSV back into records (E2_rate_formula is NaN)."""
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            kwargs = {name: float(row[name]) for name in SERIES_FIELDS}
            kwargs["zero_count"] = int(row["zero_count"])
            records.append(DiagnosticsRecord(**kwargs))
    return records


def _out_dir(config: ScenarioConfig) -> Path:
    out = Path(os.environ.get("XCF_OUT") or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _SnapshotSchedule:
    """Write snapshots at the start, at every snapshot_every crossing, and at the end."""

    def __init__(self, out: Path, every: float, t_start: float):
        self.out = out
        self.every = every
        self.next_k = next_record_index(t_start, every)
        self.last_t: float | None = None

    def offer(self, profile: MetricProfile, force: bool = False) -> None:
        crossed = profile.t >= self.next_k * self.every - 1e-12 * max(1.0, abs(profile.t))
        if (force or crossed) and self.last_t != profile.t:
            save_snapshot(profile, self.out / f"snap_{profile.t!r}.json")
            self.last_t = profile.t
            self.next_k = next_record_index(profile.t, self.every)


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


def run_scenario(config: ScenarioConfig, resume: str | Path | None = None) -> int:
    """Run one scenario and write series.csv, snapshots, and claims.txt.

    With resume, the profile comes entirely from the snapshot file (the
    config's profile and grid sections are ignored) and the series
    covers t >= the snapshot time. Returns 0 iff every applicable claim
    passes.
    """
    out = _out_dir(config)
    profile = load_snapshot(resume) if resume is not None else build_profile(config)
    validate_initial(profile, config.flow.kind)

    records: list[DiagnosticsRecord] = []
    snaps = _SnapshotSchedule(out, config.snapshot_every, profile.t)
    final_profile = profile
    with open(out / "series.csv", "w", encoding="utf-8") as series:
        series.write(SERIES_HEADER + "\n")

        def sink(rec: DiagnosticsRecord, prof: MetricProfile) -> None:
            nonlocal final_profile
            records.append(rec)
            series.write(_series_row(rec) + "\n")
            snaps.offer(prof, force=len(records) == 1)
            final_profile = prof

        try:
            final_profile, _ = evolve(profile, config.flow, sink=sink)
        finally:
            snaps.offer(final_profile, force=True)

    verdicts = evaluate_claims(records, config.flow.kind, config.flow.tolerances)
    _write_claims(out / "claims.txt", verdicts)
    return _claims_exit_status(verdicts)


def curvature_dump(config: ScenarioConfig) -> int:
    """One-shot per-node curvature table for the configured profile."""
    out = _out_dir(config)
    profile = build_profile(config)
    field = curvature_field(profile, config.flow.kind)
    x = profile.x
    with open(out / "curvature.csv", "w", encoding="utf-8") as handle:
        handle.write(CURVATURE_HEADER + "\n")
        for i in range(profile.n):
            row = [str(i)] + [
                _fmt(arr[i])
                for arr in (
                    x, profile.f, profile.g, field.w, field.w_s, field.K12,
                    field.K23, field.Ric11, field.Ric22, field.R, field.P11,
                    field.P22, field.h11, field.h22,
                )
            ]
            handle.write(",".join(row) + "\n")
    return 0


def epsilon_sweep(config: ScenarioConfig, epsilons: list[float]) -> int:
    """Compare regularised torus runs against the degenerate run.

    Every listed epsilon (plus the epsilon = 0 baseline) evolves the
    same initial data to t_end in its own subdirectory; eps_sweep.csv
    reports sup|g_eps(t_end) - g_0(t_end)| per listed epsilon, in the
    listed order.
    """
    if config.flow.kind is not BundleKind.TORUS:
        raise NotApplicableError("epsilon sweep applies to torus runs only")
    for eps in epsilons:
        if eps < 0.0:
            raise ValueError(f"epsilon values must be >= 0, got {eps!r}")
    out = _out_dir(config)
    initial = build_profile(config)

    finals: dict[float, np.ndarray] = {}

    def run_member(eps: float) -> np.ndarray:
        if eps in finals:
            return finals[eps]
        sub = out / f"eps_{eps!r}"
        sub.mkdir(parents=True, exist_ok=True)
        flow = dataclasses.replace(config.flow, epsilon=eps)
        with open(sub / "series.csv", "w", encoding="utf-8") as series:
            series.write(SERIES_HEADER + "\n")
            final, _ = evolve(
                initial, flow,
                sink=lambda rec, prof: series.write(_series_row(rec) + "\n"),
            )
        finals[eps] = final.g
        return final.g

    g_base = run_member(0.0)
    with open(out / "eps_sweep.csv", "w", encoding="utf-8") as handle:
        handle.write("epsilon,sup_gap\n")
        for eps in epsilons:
            gap = float(np.max(np.abs(run_member(float(eps)) - g_base)))
            handle.write(f"{_fmt(eps)},{_fmt(gap)}\n")
    return 0


def check_series(
    series_path: str | Path,
    kind: BundleKind,
    n: int = 256,
    period: float = 2.0 * math.pi,
    tolerances: ClaimTolerances | None = None,
) -> int:
    """Re-run the claim checker on an existing series CSV.

    The series format carries no grid metadata, so n and period (used
    only for the grid-scaled monotonicity slack) default to the standard
    grid and can be overridden.
    """
    records = read_series(series_path)
    tol = tolerances if tolerances is not None else ClaimTolerances(dx=period / n)
    verdicts = evaluate_claims(records, kind, tol)
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
        if args.command == "run":
            config = load_config(Path(args.config).read_text(encoding="utf-8"))
            return run_scenario(config, resume=args.resume)
        if args.command == "curvature":
            config = load_config(Path(args.config).read_text(encoding="utf-8"))
            return curvature_dump(config)
        if args.command == "check":
            return check_series(args.series, BundleKind(args.kind), args.n, args.period)
        if args.command == "eps-sweep":
            config = load_config(Path(args.config).read_text(encoding="utf-8"))
            epsilons = [float(part) for part in args.epsilons.split(",") if part.strip()]
            return epsilon_sweep(config, epsilons)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
