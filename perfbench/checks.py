"""Correctness checks on the outputs of the benchmark workloads.

Every check takes plain data that a workload produced and returns a
`Check`. Each check counts as one operation of the benchmark: a run is
correct only if none of them fails. `selftest.py` feeds every check a
tampered input and requires it to fail, so no check is vacuous.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SPHERE_CLAIMS = ("S-L8", "S-L9", "S-L10", "S-L12", "S-L13", "S-T14", "S-L15", "S-K")

# End state of sphere-converge as the first benchmarked commit computed it
# (RK4, safety 0.25, n = 256).
SPHERE_SEED = {"t_stop": 9.2, "alpha_hat": 2.002499802265488, "L": 6.267607710464124}
# t_stop may move by one record gap (0.1). alpha_hat and L may move by about
# ten times what halving the grid to n = 128 changes them (8.6e-8 and 1.0e-5),
# which also covers a stop one record earlier or later (2.4e-8 and 8.1e-6).
SPHERE_TOL = {"t_stop": 0.1 + 1e-9, "alpha_hat": 1e-6, "L": 1e-4}

# the resumed half of torus-cli exits 1 by design: T-T6 needs the whole horizon
RESUME_EXIT_CODES = (0, 1)
EPS_LAST_TO_FIRST = 0.25


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def sphere_checks(
    statuses: dict[str, str], t_stop: float, t_end: float, alpha_hat: float, L: float
) -> list[Check]:
    """statuses maps claim id to verdict status as evaluate_claims reported it."""
    not_passed = [c for c in SPHERE_CLAIMS if statuses.get(c) != "pass"]
    checks = [
        Check("sphere.claims_pass", not not_passed,
              f"not passing: {not_passed}" if not_passed else "8/8 pass"),
        Check("sphere.stop_before_t_end", t_stop < t_end, f"t_stop={t_stop!r} t_end={t_end!r}"),
    ]
    for key, value in (("t_stop", t_stop), ("alpha_hat", alpha_hat), ("L", L)):
        seed, tol = SPHERE_SEED[key], SPHERE_TOL[key]
        checks.append(Check(
            f"sphere.{key}_near_seed", abs(value - seed) <= tol,  # NaN fails
            f"{value!r} vs seed {seed!r} (tol {tol:g})",
        ))
    return checks


def _first_difference(got: list, want: list) -> int | None:
    """Index of the first entry where the lists differ; None if they are equal."""
    if got == want:
        return None
    return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))


def series_rows_from(rows: list[bytes], t_from: float) -> list[bytes]:
    """Data rows (header dropped) whose time column is >= t_from."""
    return [r for r in rows[1:] if float(r.split(b",", 1)[0]) >= t_from]


def torus_checks(
    full_exit: int,
    resume_exit: int,
    check_exit: int,
    check_lines: list[str],
    claims_lines: list[str],
    full_rows: list[bytes],
    resumed_rows: list[bytes],
    t_resume: float,
) -> list[Check]:
    """Rows are the raw lines of series.csv, header included."""
    expected = series_rows_from(full_rows, t_resume)
    got = resumed_rows[1:]
    return [
        Check("torus.full_run_exit_0", full_exit == 0, f"exit {full_exit}"),
        Check("torus.resumed_run_completes", resume_exit in RESUME_EXIT_CODES,
              f"exit {resume_exit}, expected one of {RESUME_EXIT_CODES}"),
        Check("torus.check_exit_0", check_exit == 0, f"exit {check_exit}"),
        Check("torus.check_matches_claims",
              bool(claims_lines) and check_lines == claims_lines,
              f"{len(check_lines)} check lines vs {len(claims_lines)} claims.txt lines, "
              f"first difference at {_first_difference(check_lines, claims_lines)}"),
        Check("torus.resumed_rows_match",
              bool(expected) and got == expected,
              f"{len(got)} resumed rows vs {len(expected)} full-run rows with t >= {t_resume!r}, "
              f"first difference at {_first_difference(got, expected)}"),
    ]


def eps_checks(exit_code: int, rows: list[tuple[float, float]], epsilons: list[float]) -> list[Check]:
    """rows are the (epsilon, sup_gap) pairs of eps_sweep.csv in file order."""
    gaps = [gap for _, gap in rows]
    listed = [eps for eps, _ in rows] == list(epsilons)
    decreasing = listed and all(a > b for a, b in zip(gaps, gaps[1:]))
    small = (
        bool(gaps) and math.isfinite(gaps[0]) and gaps[0] > 0.0
        and gaps[-1] <= EPS_LAST_TO_FIRST * gaps[0]
    )
    return [
        Check("eps.exit_0", exit_code == 0, f"exit {exit_code}"),
        Check("eps.gaps_strictly_decreasing", decreasing,
              f"epsilons {[e for e, _ in rows]} gaps {gaps}"),
        Check("eps.last_gap_shrinks", small,
              f"gaps {gaps}, need last <= {EPS_LAST_TO_FIRST} x first"),
    ]


def counts_check(counts_per_child: list[dict], name: str = "counts_repeat") -> Check:
    """The deterministic counts must repeat exactly across children of one run."""
    distinct = {tuple(sorted(c.items())) for c in counts_per_child}
    return Check(
        name, len(distinct) <= 1,
        "identical in every child" if len(distinct) <= 1
        else f"nondeterminism: {len(distinct)} different count sets {sorted(distinct)}",
    )
