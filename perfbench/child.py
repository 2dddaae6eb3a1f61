"""Run one benchmark workload in a fresh process; run.py starts it.

    python3 -I child.py WORKLOAD MODE INPUTS OUT RESULT SPAWNED

MODE is `plain` (timed, untraced), `trace` (timed, traced) or `setup`
(stops at the first call into evolve). A plain sample also runs the
reference kernel every REF_PERIOD_S of wall time, and a setup probe
runs it SETUP_REF_CALLS times after it stops (ReferenceClock).

INPUTS holds the generated profile and configs, OUT receives the program's outputs, RESULT is the
JSON file this process writes, and SPAWNED is the time.monotonic()
reading the parent took just before starting it. On Linux that clock
is CLOCK_MONOTONIC, which every process shares, so setup_s spans
interpreter start, imports, config parse, profile build and
validate_initial.
"""

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402

EPSILONS = "1e-2,1e-3,1e-4"
RESUME_AT = 3.0
SPHERE_T_END = 50.0
REF_PERIOD_S = 0.05
SETUP_REF_CALLS = 10


class ReferenceClock:
    """Times a fixed kernel to follow the host's speed.

    The kernel mixes small numpy operations with an interpreter loop, as
    xcflow's own steps do. As a context manager it runs the kernel from a
    SIGALRM handler every REF_PERIOD_S of wall time, so its mean time per
    call follows the host's speed during a plain sample; the kernel's
    time is then taken out of the sample's. `calibrate` times it directly,
    right after a setup probe stops. run.py divides by the time per call.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 1.0, 256)
        self.calls = 0
        self.seconds = 0.0

    def kernel(self):
        np, y = self.np, self.x
        for _ in range(60):
            y = y + 0.001 * (np.roll(y, 1) - 2.0 * y + np.roll(y, -1))
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        return y, acc

    def calibrate(self, calls: int) -> float:
        """Median time per call of `calls` calls, after one untimed call."""
        self.kernel()
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def per_call(self) -> float | None:
        return self.seconds / self.calls if self.calls else None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.seconds += time.perf_counter() - start
        self.calls += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class SetupDone(Exception):
    """Raised at the first call into evolve in setup mode (cli.main does not catch it)."""


def sphere_converge(xcflow, inputs: Path, out: Path):
    data = json.loads((inputs / "profile.json").read_text(encoding="utf-8"))
    profile = xcflow.geometry.MetricProfile(
        data["n"], data["period"], data["t"], data["f"], data["g"]
    )
    config = xcflow.flow.FlowConfig(
        kind=xcflow.BundleKind.SPHERE, t_end=SPHERE_T_END, record_every=0.1,
        tolerances=xcflow.ClaimTolerances(dx=profile.dx),
    )
    records = []

    def stop(rec):  # the acceptance criterion: the extrema gap shrinks 10x
        return rec.g_max - rec.g_min <= 0.1 * (records[0].g_max - records[0].g_min)

    _, summary = xcflow.flow.evolve(
        profile, config, sink=lambda rec, prof: records.append(rec), stop_when=stop
    )
    verdicts = xcflow.claims.evaluate_claims(records, config.kind, config.tolerances)
    return records, summary, verdicts


def check_sphere(raw, out: Path):
    records, summary, verdicts = raw
    last = records[-1]
    found = checks.sphere_checks(
        {v.claim_id: v.status for v in verdicts}, last.t, SPHERE_T_END,
        0.5 * (last.g_max + last.g_min), last.L,
    )
    return found, {"steps": summary.steps, "records": len(records)}


def torus_cli(xcflow, inputs: Path, out: Path):
    config = str(inputs / "torus.cfg")
    full, resumed = out / "full", out / "resumed"
    full_exit = xcflow.cli.main(["run", "--config", config])
    snap = min(full.glob("snap_*.json"), key=lambda p: abs(float(p.stem[5:]) - RESUME_AT))
    os.environ["XCF_OUT"] = str(resumed)
    try:
        resume_exit = xcflow.cli.main(["run", "--config", config, "--resume", str(snap)])
    finally:
        del os.environ["XCF_OUT"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        check_exit = xcflow.cli.main(
            ["check", "--series", str(full / "series.csv"), "--kind", "torus", "--n", "256"]
        )
    return full_exit, resume_exit, check_exit, printed.getvalue(), snap


def check_torus(raw, out: Path):
    full_exit, resume_exit, check_exit, printed, snap = raw
    full, resumed = out / "full", out / "resumed"
    full_rows = (full / "series.csv").read_bytes().splitlines()
    resumed_rows = (resumed / "series.csv").read_bytes().splitlines()
    found = checks.torus_checks(
        full_exit, resume_exit, check_exit, printed.splitlines(),
        (full / "claims.txt").read_text(encoding="utf-8").splitlines(),
        full_rows, resumed_rows, json.loads(snap.read_text(encoding="utf-8"))["t"],
    )
    counts = {
        "full_rows": len(full_rows) - 1,
        "resumed_rows": len(resumed_rows) - 1,
        "snapshot_files": len(list(out.glob("*/snap_*.json"))),
    }
    return found, counts


def eps_sweep(xcflow, inputs: Path, out: Path):
    return xcflow.cli.main(["eps-sweep", "--config", str(inputs / "eps.cfg"), "--epsilons", EPSILONS])


def check_eps(exit_code, out: Path):
    lines = (out / "eps_sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [tuple(float(v) for v in line.split(",")) for line in lines]
    found = checks.eps_checks(exit_code, rows, [float(e) for e in EPSILONS.split(",")])
    records = sum(len(p.read_bytes().splitlines()) - 1 for p in out.glob("eps_*/series.csv"))
    return found, {"records": records}


WORKLOADS = {
    "sphere-converge": (sphere_converge, check_sphere),
    "torus-cli": (torus_cli, check_torus),
    "eps-sweep": (eps_sweep, check_eps),
}


def main() -> int:
    workload, mode, inputs, out, result_path, spawned = sys.argv[1:]
    inputs, out, spawned = Path(inputs), Path(out), float(spawned)
    run, check = WORKLOADS[workload]

    import xcflow

    if not Path(xcflow.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"xcflow imported from {xcflow.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    trace = tracer.Tracer() if mode == "trace" else None
    if trace is not None:
        trace.install()
    first_evolve = []

    def on_first_evolve():
        if not first_evolve:
            first_evolve.append(time.monotonic())
            if mode == "setup":
                raise SetupDone

    for module in (xcflow.flow, xcflow.cli):
        def evolve(*args, _inner=module.evolve, **kwargs):
            on_first_evolve()
            return _inner(*args, **kwargs)

        module.evolve = evolve

    result = {"numpy": sys.modules["numpy"].__version__, "python": sys.version.split()[0]}
    def body():
        return run(xcflow, inputs, out)

    if trace is not None:
        body = trace.wrap(body, tracer.ROOT_SPAN)
    clock = ReferenceClock()
    start = time.perf_counter()
    try:
        with clock if mode == "plain" else contextlib.nullcontext():
            raw = body()
    except SetupDone:
        raw = None
    wall = time.perf_counter() - start - clock.seconds
    result["setup_s"] = first_evolve[0] - spawned if first_evolve else None
    # a setup probe measures the host's speed right after set-up
    result["ref_s_per_call"] = (clock.calibrate(SETUP_REF_CALLS) if mode == "setup"
                                else clock.per_call())
    if mode != "setup":
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, counts = check(raw, out)
        counts["series_bytes"] = sum(p.stat().st_size for p in out.rglob("series.csv"))
        result["checks"] = [list(c) for c in found]
        result["counts"] = counts
    if trace is not None:
        trace.dump(out / "spans.json")
        trace.extras["series_bytes"] = result["counts"]["series_bytes"]
        result["extras"] = trace.extras
        result["missing"] = trace.missing
        result["spans"] = str(out / "spans.json")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
