"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Standard grids: n = 256, period 2 pi, default safety. Profile A is the
torus run of f = 1, g = 2 + 0.1 sin x; profile B is the same initial
data under the sphere family. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from xcflow import (
    BundleKind,
    ClaimTolerances,
    FlowConfig,
    cross_curvature,
    cross_curvature_oracle,
    curvature_field,
    epsilon_sweep,
    evaluate_claims,
    evolve,
    load_config,
    run_scenario,
    s_derivative,
    sinusoid_profile,
)
from xcflow.geometry import MetricProfile

TWO_PI = 2.0 * math.pi
TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE


def report(num, label, ok, detail):
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def profile_a(n=256):
    return sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)


@pytest.fixture(scope="module")
def torus_run():
    """Criterion-3 run: profile A, t_end = 2.0, eps = 0, records + profiles."""
    tol = ClaimTolerances(dx=TWO_PI / 256, delta_l_frac=1e-4)
    cfg = FlowConfig(kind=TORUS, t_end=2.0, record_every=0.02, tolerances=tol)
    pairs = []
    start = time.time()
    evolve(profile_a(), cfg, sink=lambda rec, prof: pairs.append((rec, prof)))
    return cfg, pairs, time.time() - start


@pytest.fixture(scope="module")
def sphere_run():
    """Criterion-5 run: profile B until the extrema gap shrinks 10x (or t = 50)."""
    tol = ClaimTolerances(dx=TWO_PI / 256)
    cfg = FlowConfig(kind=SPHERE, t_end=50.0, record_every=0.1, tolerances=tol)
    pairs = []
    state = {}

    def stop(rec):
        if "gap0" not in state:
            state["gap0"] = rec.g_max - rec.g_min
            return False
        return rec.g_max - rec.g_min <= 0.1 * state["gap0"]

    start = time.time()
    evolve(profile_a(), cfg, sink=lambda rec, prof: pairs.append((rec, prof)), stop_when=stop)
    return cfg, pairs, time.time() - start


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    start = time.time()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(64, 257))
        x = np.arange(n) * (TWO_PI / n)

        def trig(base, amp):
            v = np.full(n, base)
            for k in range(1, 4):
                a, b = rng.uniform(-amp / 3, amp / 3, 2)
                v += a * np.sin(k * x) + b * np.cos(k * x)
            return v

        profile = MetricProfile(n, TWO_PI, 0.0, trig(1.5, 0.3), trig(2.0, 0.3))
        kind = TORUS if trial % 2 == 0 else SPHERE
        field = curvature_field(profile, kind)
        h11, h22 = cross_curvature(field)
        o11, o22 = cross_curvature_oracle(field)
        for a, b in ((h11, o11), (h22, o22)):
            denom = np.maximum(np.abs(a), np.abs(b))
            bad = np.abs(a - b) > 1e-12 * denom
            assert not bad.any()
            rel = np.abs(a - b) / np.where(denom > 0, denom, 1.0)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "oracle equivalence", ok, f"worst_rel={worst:.3e} runtime={elapsed:.2f}s")


def test_criterion_2_curvature_accuracy():
    start = time.time()

    def sup_errors(n):
        p = profile_a(n)
        x = p.x
        g = 2.0 + 0.1 * np.sin(x)
        gs = 0.1 * np.cos(x)
        gss = -0.1 * np.sin(x)
        K12 = -gss / g
        K23 = -(gs**2) / g**2
        exact = {"K12": K12, "K23": K23, "h11": K12**2, "h22": K12 * K23,
                 "R": 4.0 * K12 + 2.0 * K23}
        field = curvature_field(p, TORUS)
        return {name: float(np.max(np.abs(getattr(field, name) - ref)))
                for name, ref in exact.items()}

    e128, e256 = sup_errors(128), sup_errors(256)
    sup_err = max(e256.values())
    min_ratio = min(e128[name] / e256[name] for name in e256)
    elapsed = time.time() - start
    ok = sup_err <= 5e-4 and min_ratio >= 3.5 and elapsed < 1.0
    report(2, "curvature accuracy", ok,
           f"sup_err={sup_err:.3e} min_ratio={min_ratio:.2f} runtime={elapsed:.2f}s")


def test_criterion_3_torus_monotonicity_suite(torus_run):
    cfg, pairs, elapsed = torus_run
    records = [rec for rec, _ in pairs]
    verdicts = {v.claim_id: v for v in evaluate_claims(records, TORUS, cfg.tolerances)}

    required = ("T-L2", "T-L3", "T-L5", "T-C7", "T-R")
    statuses = {cid: verdicts[cid].status for cid in required}
    drift_ok = verdicts["T-L2"].measured <= 1e-4

    def worst_rate_residual(values, formulas):
        worst = 0.0
        for k in range(1, len(records) - 1):
            fd = (values[k + 1] - values[k - 1]) / (records[k + 1].t - records[k - 1].t)
            worst = max(worst, abs(fd - formulas[k]) / abs(formulas[k]))
        return worst

    res_l = worst_rate_residual([r.L for r in records], [r.dL_dt_formula for r in records])
    res_v = worst_rate_residual([r.V for r in records], [r.dV_dt_formula for r in records])

    ok = all(s == "pass" for s in statuses.values()) and drift_ok \
        and res_l <= 1e-3 and res_v <= 1e-3 and elapsed < 30.0
    report(3, "torus monotonicity suite", ok,
           f"verdicts={statuses} drift={verdicts['T-L2'].measured:.2e} "
           f"rate_residuals=(dL {res_l:.2e}, dV {res_v:.2e}) runtime={elapsed:.1f}s")


def test_criterion_4_torus_growth_proxy(torus_run):
    cfg, pairs, _ = torus_run
    records = [rec for rec, _ in pairs]
    gain = (records[-1].L - records[0].L) / records[0].L
    t_cut = records[0].t + 0.75 * (records[-1].t - records[0].t)
    tail_min = min(r.dL_dt_formula for r in records if r.t >= t_cut)
    verdicts = {v.claim_id: v for v in evaluate_claims(records, TORUS, cfg.tolerances)}
    ok = gain >= 1e-4 and tail_min > 0.0 and verdicts["T-T6"].status == "pass"
    report(4, "torus growth proxy", ok,
           f"rel_gain={gain:.3e} final_quarter_min_dLdt={tail_min:.3e}")


def test_criterion_5_sphere_convergence_suite(sphere_run):
    cfg, pairs, elapsed = sphere_run
    records = [rec for rec, _ in pairs]
    verdicts = {v.claim_id: v for v in evaluate_claims(records, SPHERE, cfg.tolerances)}
    required = ("S-L8", "S-L9", "S-L12", "S-L13", "S-T14", "S-L15")
    statuses = {cid: verdicts[cid].status for cid in required}
    alpha_hat = 0.5 * (records[-1].g_max + records[-1].g_min)
    gap_ratio = (records[-1].g_max - records[-1].g_min) / (records[0].g_max - records[0].g_min)
    ok = all(s == "pass" for s in statuses.values()) and 1.9 <= alpha_hat <= 2.1 \
        and records[-1].t < 50.0 and gap_ratio <= 0.1 and elapsed < 60.0
    report(5, "sphere convergence suite", ok,
           f"verdicts={statuses} alpha_hat={alpha_hat:.5f} t_end={records[-1].t:.2f} "
           f"gap_ratio={gap_ratio:.3f} runtime={elapsed:.1f}s")


def test_criterion_6_epsilon_consistency(tmp_path):
    start = time.time()
    cfg = load_config(
        f"bundle = torus\nt_end = 1.0\noutput.dir = {tmp_path / 'sweep'}\n"
    )
    epsilon_sweep(cfg, [1e-2, 1e-3, 1e-4])
    lines = (tmp_path / "sweep" / "eps_sweep.csv").read_text().splitlines()[1:]
    gaps = [float(line.split(",")[1]) for line in lines]
    elapsed = time.time() - start
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.25 * gaps[0] and elapsed < 60.0
    report(6, "epsilon consistency", ok,
           f"gaps={[f'{g:.3e}' for g in gaps]} contraction={gaps[2] / gaps[0]:.3e} "
           f"runtime={elapsed:.1f}s")


def test_criterion_7_curvature_limits(sphere_run):
    _, pairs, _ = sphere_run
    records = [rec for rec, _ in pairs]
    last = records[-1]
    alpha_hat = 0.5 * (last.g_max + last.g_min)
    pair_gap = abs(last.R_mean - 2.0 * last.K23_mean)
    alpha_gap = abs(last.K23_mean - 1.0 / alpha_hat**2)
    ok = last.K12_sup <= 1e-2 and last.K23_spread <= 1e-2 \
        and pair_gap <= 1e-3 and alpha_gap <= 1e-2
    report(7, "curvature limit check", ok,
           f"K12_sup={last.K12_sup:.3e} K23_spread={last.K23_spread:.3e} "
           f"|R-2K23|={pair_gap:.3e} |K23-1/a^2|={alpha_gap:.3e}")


def test_criterion_8_commutator_and_rate_identities(torus_run, sphere_run):
    def worst_ratios(pairs, kind):
        worst_logf, worst_e2 = 0.0, 0.0
        for k in range(1, len(pairs) - 1):
            r_prev, p_prev = pairs[k - 1]
            r_mid, p_mid = pairs[k]
            r_next, p_next = pairs[k + 1]
            dt2 = r_next.t - r_prev.t
            fd_logf = (np.log(p_next.f) - np.log(p_prev.f)) / dt2
            gss = s_derivative(p_mid, s_derivative(p_mid, p_mid.g))
            formula = kind.flow_sign * gss**2 / p_mid.g**2
            allowed = np.maximum(1e-2 * np.abs(formula), 1e-6)
            worst_logf = max(worst_logf, float(np.max(np.abs(fd_logf - formula) / allowed)))
            fd_e2 = (r_next.E2 - r_prev.E2) / dt2
            allowed_e2 = max(1e-2 * abs(r_mid.E2_rate_formula), 1e-6)
            worst_e2 = max(worst_e2, abs(fd_e2 - r_mid.E2_rate_formula) / allowed_e2)
        return worst_logf, worst_e2

    t_logf, t_e2 = worst_ratios(torus_run[1], TORUS)
    s_logf, s_e2 = worst_ratios(sphere_run[1], SPHERE)
    ok = max(t_logf, t_e2, s_logf, s_e2) <= 1.0
    report(8, "commutator and rate identities", ok,
           f"violation ratios: torus(logf {t_logf:.2e}, dE2 {t_e2:.2e}) "
           f"sphere(logf {s_logf:.2e}, dE2 {s_e2:.2e})")


def test_criterion_9_determinism_and_resume(tmp_path):
    def scenario(out_dir):
        return load_config(
            "bundle = torus\nt_end = 2.0\ntol.delta_l_frac = 1e-4\n"
            f"output.dir = {out_dir}\n"
        )

    status_a = run_scenario(scenario(tmp_path / "a"))
    status_b = run_scenario(scenario(tmp_path / "b"))
    series_a = (tmp_path / "a" / "series.csv").read_bytes()
    series_b = (tmp_path / "b" / "series.csv").read_bytes()
    identical = series_a == series_b

    snap = tmp_path / "a" / "snap_1.0.json"
    run_scenario(scenario(tmp_path / "c"), resume=snap)
    rows_a = (tmp_path / "a" / "series.csv").read_text().splitlines()[1:]
    rows_c = (tmp_path / "c" / "series.csv").read_text().splitlines()[1:]
    tail_a = [row for row in rows_a if float(row.split(",")[0]) >= 1.0]
    resumed_ok = rows_c == tail_a

    ok = identical and resumed_ok and status_a == status_b == 0
    report(9, "determinism and resumability", ok,
           f"rerun_identical={identical} resumed_rows={len(rows_c)} "
           f"resume_bitwise={resumed_ok} exit={status_a}")
