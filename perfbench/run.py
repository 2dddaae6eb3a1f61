"""xcflow benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload sphere-converge --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; xcflow is imported from its `src/`.
Every sample runs the workload in a fresh single-threaded child process
(child.py). A run first makes SETUP_PROBES children that stop at the
first call into evolve, then runs whole samples while the next one still
fits in --seconds. With --trace 1 the samples alternate untraced and
traced children and the run reports the per-layer metrics of tracer.py.

The host's speed drifts by a fifth and more over tens of seconds, so a
plain sample runs a fixed reference kernel every 50 ms of its wall time,
and a setup probe times it right after it stops (child.ReferenceClock).
wall_s and setup_s are scaled by the kernel's nominal time per call,
REF_NOMINAL_S, over its time per call in that child: they read as the
times on a host of that fixed speed. The kernel's own time is taken out
of wall_s.

The seed rotates the initial profile g = 2 + 0.1 sin x around the circle
by a whole number of grid nodes. The discrete flow commutes with that
rotation, so step and record counts, stop time and verdicts do not
depend on the seed; only the order of floating-point sums does.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every correctness check of every
sample is one attempted operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

# workload -> grid size of its initial profile
GRID = {"sphere-converge": 256, "torus-cli": 256, "eps-sweep": 2048}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_PROBES = 10
# The reference kernel's time per call (child.ReferenceClock) that wall_s
# and setup_s are scaled to: a child's time x REF_NOMINAL_S / the kernel's
# time per call in that child.
REF_NOMINAL_S = 0.002
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    import numpy as np

    n = GRID[workload]
    period = 2.0 * np.pi
    shift = random.Random(seed).randrange(n)
    # the same samples as xcflow.sinusoid_profile(n, period, 2.0, 0.1, 1), rotated
    g = np.roll(2.0 + 0.1 * np.sin(np.arange(n) * (period / n)), -shift)
    inputs.mkdir()
    profile = inputs / "profile.json"
    profile.write_text(json.dumps(
        {"n": n, "period": period, "t": 0.0, "f": [1.0] * n, "g": [float(v) for v in g]}
    ), encoding="utf-8")
    # children run in a sibling directory of `inputs`; a relative path keeps
    # a `#` in the checkout's path from starting a config comment
    common = (f"bundle = torus\ngrid.n = {n}\nprofile.family = file\n"
              f"profile.path = ../{inputs.name}/{profile.name}\n")
    (inputs / "torus.cfg").write_text(
        common + "t_end = 6\nrecord_every = 0.002\noutput.snapshot_every = 0.1\n"
        "output.dir = full\n", encoding="utf-8")
    (inputs / "eps.cfg").write_text(common + "t_end = 1\noutput.dir = .\n", encoding="utf-8")
    print(f"inputs: seed {seed} rotates the n={n} profile by {shift} nodes")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "XCF_OUT"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workload: str, mode: str, inputs: Path, work: Path, deadline: float) -> dict:
    """Run one child to completion and return its result (with spans loaded)."""
    out = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=work))
    result_path = work / f"{out.name}.json"
    spawned = time.monotonic()
    cmd = [sys.executable, "-I", str(HERE / "child.py"), workload, mode,
           str(inputs), str(out), str(result_path), repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=out, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "spans" in result:
            result["spans"] = tracer.load_spans(result["spans"])
        return result
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child did not finish before the run limit") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def machine_info() -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:  # no git on this machine
            pass
    return [f"nproc {os.cpu_count()}", f"cpu {cpu}", f"platform {platform.platform()}",
            f"commit {commit}"]


def scaled(sample, key: str) -> float | None:
    """sample[key] on a host on which the reference kernel takes REF_NOMINAL_S."""
    ref, value = sample.get("ref_s_per_call"), sample.get(key)
    return None if not ref or value is None else value * REF_NOMINAL_S / ref


def median_of(samples, key):
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else None


def measure(workload: str, trace: bool, seconds: float, inputs: Path, work: Path):
    """Probes and samples of one run; returns (probes, samples by mode, failure)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("plain", "trace") if trace else ("plain",)
    probes, samples, rounds = [], {m: [] for m in modes}, []
    try:
        # untimed warm-up: compiles bytecode and fills the file cache
        spawn(workload, "setup", inputs, work, deadline)
        if not trace:
            probes = [spawn(workload, "setup", inputs, work, deadline)
                      for _ in range(SETUP_PROBES)]
        while True:
            t0 = time.monotonic()
            for mode in modes:
                samples[mode].append(spawn(workload, mode, inputs, work, deadline))
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(rounds) > seconds:
                return probes, samples, None
    except ChildFailed as exc:
        return probes, samples, str(exc)


def trace_metrics(samples) -> tuple[dict, list[checks.Check], list[str]]:
    traced = samples["trace"]
    per_sample = []
    for s in traced:
        stats = tracer.summarise(s["spans"])
        per_sample.append(tracer.layer_metrics(stats, s["extras"], s["missing"]))
    values, found = {}, []
    for metric, unit, kind, _, _ in tracer.PER_LAYER:
        got = [m.get(metric) for m in per_sample]
        if metric == "trace.overhead_s":
            plain, traced_wall = median_of(samples["plain"], "wall_s"), median_of(traced, "wall_s")
            value = None if plain is None or traced_wall is None else traced_wall - plain
        elif not got or any(v is None for v in got):
            value = None
        else:
            value = got[0] if kind == "exact" else statistics.median(got)
        values[metric] = (value, unit)
    count_names = {p[0] for p in tracer.PER_LAYER if p[2] == "exact"}
    counted = [{m: v for m, v in sample.items() if m in count_names} for sample in per_sample]
    if counted:
        found.append(checks.counts_check(counted, "layer_counts_repeat"))
    missing = sorted({name for s in traced for name in s["missing"]})
    return values, found, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRID))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running child and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "xcflow" / "__init__.py").is_file():
        print(f"error: no xcflow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    for line in machine_info():
        print(line)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        write_inputs(args.workload, args.seed, work / "inputs")
        probes, samples, failure = measure(
            args.workload, bool(args.trace), args.seconds, work / "inputs", work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everyone = [s for group in samples.values() for s in group]
    if not everyone:
        print(f"error: no sample completed: {failure}", file=sys.stderr)
        return 1
    found = [checks.Check(*c) for s in everyone for c in s["checks"]]
    found.append(checks.counts_check([s["counts"] for s in everyone]))
    if failure is not None:
        found.append(checks.Check("child_completed", False, failure))
    print(f"python {everyone[0]['python']}, numpy {everyone[0]['numpy']}")
    print(f"samples: {len(probes)} setup probes, "
          + ", ".join(f"{len(v)} {k}" for k, v in samples.items()))
    for mode, group in samples.items():
        kind = "own time, reference kernel excluded" if mode == "plain" else "wall time"
        print(f"{mode} {kind} per sample (s): {[round(s['wall_s'], 4) for s in group]}")
    plain = samples["plain"]
    print("reference kernel per call (ms): "
          f"{[round(1e3 * s['ref_s_per_call'], 4) for s in plain if s['ref_s_per_call']]}")
    print(f"wall_s per sample (s): {[round(scaled(s, 'wall_s'), 4) for s in plain if s['ref_s_per_call']]}")
    print("counts: " + json.dumps(everyone[0]["counts"], sort_keys=True))

    if args.trace:
        values, more, missing = trace_metrics(samples)
        found += more
        for name in missing:
            print(f"missing: {name} is not in this version of xcflow; "
                  "the metrics that need it are null")
        print("layer self times (s): " + ", ".join(
            f"{layer} {values[f'{layer}.self_s'][0]:.4f}" for layer in tracer.LAYERS))
    else:
        walls = [w for w in (scaled(s, "wall_s") for s in samples["plain"]) if w is not None]
        setups = [w for w in (scaled(p, "setup_s") for p in probes) if w is not None]
        print(f"setup_s per probe, unscaled (s): {[round(p['setup_s'], 4) for p in probes]}")
        print(f"setup_s per probe (s): {[round(w, 4) for w in setups]}")
        measured = {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": median_of(samples["plain"], "peak_rss_mb"),
        }
        if None in measured.values():
            print("error: a metric could not be measured", file=sys.stderr)
            return 1
        values = {name: (measured[name], unit) for name, unit in END_TO_END}

    failed = sum(not c.ok for c in found)
    for c in found:
        if not c.ok:
            print(f"FAILED {c.name}: {c.detail}")
    for name, (value, unit) in values.items():
        print(f"{name} = {value} {unit}")
    print(f"fail_frac = {failed / len(found)} ({failed} of {len(found)} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(found),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
