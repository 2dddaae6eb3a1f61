"""Self-test of the benchmark: every check must be able to fail.

    python3 perfbench/selftest.py

Each correctness check gets an input it must pass and then, one at a
time, a tampered input it must fail. The span arithmetic, the scaling
of wall_s and the agreement between BENCHMARK.json and the code are
tested as well.
Exits 0 when every case behaves, 1 otherwise. Needs no xcflow.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

problems: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        problems.append(label)


def expect_checks(label: str, found: list[checks.Check], failing: str | None) -> None:
    """All checks pass when failing is None, else the named one fails."""
    bad = [c.name for c in found if not c.ok]
    expect(label, bad == [] if failing is None else failing in bad)


def sphere():
    good = dict(statuses={c: "pass" for c in checks.SPHERE_CLAIMS}, t_stop=9.200000000000001,
                t_end=50.0, alpha_hat=2.002499802265488, L=6.267607710464124)
    expect_checks("sphere: seed outputs pass", checks.sphere_checks(**good), None)
    tampered = {
        "sphere.claims_pass": {"statuses": {**good["statuses"], "S-L12": "fail"}},
        "sphere.stop_before_t_end": {"t_end": 9.200000000000001},
        "sphere.t_stop_near_seed": {"t_stop": 9.4},
        "sphere.alpha_hat_near_seed": {"alpha_hat": 2.002499802265488 + 1e-5},
        "sphere.L_near_seed": {"L": 6.267607710464124 - 1e-3},
    }
    for name, change in tampered.items():
        expect_checks(f"{name} catches {sorted(change)}",
                      checks.sphere_checks(**{**good, **change}), name)
    expect_checks("sphere.alpha_hat_near_seed catches NaN",
                  checks.sphere_checks(**{**good, "alpha_hat": float("nan")}),
                  "sphere.alpha_hat_near_seed")


def torus():
    rows = [b"t,L", b"2.998,6.1", b"3.0,6.2", b"3.002,6.3"]
    lines = ["T-L2 pass measured=0.0 tol=0.0001 # extrema drift"]
    good = dict(full_exit=0, resume_exit=1, check_exit=0, check_lines=lines,
                claims_lines=list(lines), full_rows=rows,
                resumed_rows=[rows[0]] + rows[2:], t_resume=3.0)
    expect_checks("torus: consistent outputs pass", checks.torus_checks(**good), None)
    tampered = {
        "torus.full_run_exit_0": {"full_exit": 1},
        "torus.resumed_run_completes": {"resume_exit": 2},
        "torus.check_exit_0": {"check_exit": 1},
        "torus.check_matches_claims": {"check_lines": [lines[0].replace("pass", "fail")]},
        "torus.resumed_rows_match": {"resumed_rows": [rows[0], rows[2], b"3.002,6.30001"]},
    }
    for name, change in tampered.items():
        expect_checks(f"{name} catches {sorted(change)}",
                      checks.torus_checks(**{**good, **change}), name)
    expect_checks("torus.resumed_rows_match catches a missing row",
                  checks.torus_checks(**{**good, "resumed_rows": rows[:1] + rows[2:3]}),
                  "torus.resumed_rows_match")


def eps():
    epsilons = [1e-2, 1e-3, 1e-4]
    rows = [(1e-2, 2.77e-4), (1e-3, 2.77e-5), (1e-4, 2.77e-6)]
    expect_checks("eps: shrinking gaps pass", checks.eps_checks(0, rows, epsilons), None)
    expect_checks("eps.exit_0 catches exit 2", checks.eps_checks(2, rows, epsilons), "eps.exit_0")
    reversed_gaps = [(e, g) for (e, _), (_, g) in zip(rows, reversed(rows))]
    expect_checks("eps.gaps_strictly_decreasing catches reversed gaps",
                  checks.eps_checks(0, reversed_gaps, epsilons), "eps.gaps_strictly_decreasing")
    slow = [(1e-2, 1.0), (1e-3, 0.8), (1e-4, 0.6)]
    expect_checks("eps.last_gap_shrinks catches last/first = 0.6",
                  checks.eps_checks(0, slow, epsilons), "eps.last_gap_shrinks")


def counts_and_spans():
    expect("counts_repeat passes equal counts",
           checks.counts_check([{"steps": 5}, {"steps": 5}]).ok)
    expect("counts_repeat catches nondeterminism",
           not checks.counts_check([{"steps": 5}, {"steps": 6}]).ok)
    spans = [
        (tracer.ROOT_SPAN, 0.0, 10.0, -1, True),
        ("flow.step", 1.0, 4.0, 0, True),
        ("flow.rhs", 2.0, 3.0, 1, True),
        ("flow.step", 5.0, 6.0, 0, False),
    ]
    stats = tracer.summarise(spans)
    expect("self time subtracts child spans",
           stats[tracer.ROOT_SPAN]["self"] == 6.0 and stats["flow.step"]["self"] == 3.0
           and stats["flow.rhs"]["self"] == 1.0 and stats["flow.step"]["failed"] == 1)
    extras = {"dt": [0.1], "snapshot_bytes": 0, "verdicts": 0, "failed_verdicts": 0,
              "series_bytes": 0}
    values = tracer.layer_metrics(stats, extras, ["xcflow.flow._rhs_arrays"])
    expect("a missing wrapped name gives null, not zero",
           values["flow.rhs_evals"] is None and values["flow.rhs_s"] is None
           and values["flow.steps"] == 1 and values["flow.retries"] == 1)
    expect("coverage is the share of the root span spent in wrapped calls",
           values["trace.coverage"] == 0.4)


def scaling():
    slow = {"wall_s": 8.0, "ref_s_per_call": 2.0 * run.REF_NOMINAL_S}
    fast = {"wall_s": 4.0, "ref_s_per_call": run.REF_NOMINAL_S}
    expect("wall_s scales a sample on a host at half speed to the same value",
           run.scaled(slow, "wall_s") == run.scaled(fast, "wall_s") == 4.0)
    expect("a sample without a reference call has no scaled wall_s",
           run.scaled({"wall_s": 4.0, "ref_s_per_call": None}, "wall_s") is None)


def benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("every workload of BENCHMARK.json is one of run.py",
           {w["name"] for w in spec["workloads"]} <= set(run.GRID))
    expect("BENCHMARK.json lists the end-to-end metrics of run.py",
           [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json lists the per-layer metrics of tracer.py",
           [(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(p[0], p[1]) for p in tracer.PER_LAYER])


if __name__ == "__main__":
    sphere()
    torus()
    eps()
    counts_and_spans()
    scaling()
    benchmark_json()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
