import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import xcflow.flow as flow_mod
from xcflow import (
    ALL_CLAIMS,
    SERIES_FIELDS,
    SPHERE_CLAIMS,
    TORUS_CLAIMS,
    BundleKind,
    ClaimTolerances,
    DiagnosticsRecord,
    FlowConfig,
    InsufficientDataError,
    evaluate_claims,
    evolve,
    sinusoid_profile,
)
from xcflow.cli import _claim_line
from xcflow.claims import _max, _max_log_slope, _rate_residual_ratio

TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE

DEFAULTS = dict(
    L=6.28, V=25.0, g_max=2.1, g_min=1.9, sup_gs=0.1, sup_gss=0.1,
    E2=0.008, l2_gss=0.03, l2_gsss=0.03, zero_count=2,
    dL_dt_formula=0.0, dV_dt_formula=0.0, K12_sup=0.001, K23_mean=0.25,
    K23_spread=0.001, R_mean=0.504,
)


def record(t, **over):
    kwargs = dict(DEFAULTS)
    kwargs.update(over)
    return DiagnosticsRecord(t=t, **kwargs)


def stream(n=5, dt=0.5, **columns):
    """Records at t = 0, dt, ...; columns map names to per-record values."""
    out = []
    for k in range(n):
        over = {}
        for name, values in columns.items():
            value = values(k) if callable(values) else values[k]
            over[name] = value
        out.append(record(k * dt, **over))
    return out


def verdict(records, kind, claim_id, tol=None):
    found = {v.claim_id: v for v in evaluate_claims(records, kind, tol)}
    return found[claim_id]


def test_claim_id_partition():
    assert set(TORUS_CLAIMS) | set(SPHERE_CLAIMS) == set(ALL_CLAIMS)
    assert not set(TORUS_CLAIMS) & set(SPHERE_CLAIMS)
    ids = [v.claim_id for v in evaluate_claims(stream(), TORUS)]
    assert ids == list(ALL_CLAIMS)


def test_other_kind_marked_not_applicable():
    for v in evaluate_claims(stream(), TORUS):
        if v.claim_id in SPHERE_CLAIMS:
            assert v.status == "not-applicable"
    for v in evaluate_claims(stream(), SPHERE):
        if v.claim_id in TORUS_CLAIMS:
            assert v.status == "not-applicable"


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        evaluate_claims(stream(n=2), TORUS)


def test_unordered_records_rejected():
    records = stream()
    with pytest.raises(ValueError, match="ordered"):
        evaluate_claims(list(reversed(records)), TORUS)


def test_status_matches_measured_vs_tolerance():
    for kind in (TORUS, SPHERE):
        for v in evaluate_claims(stream(), kind):
            if v.status == "pass":
                assert v.measured <= v.tolerance
            elif v.status == "fail":
                assert not (v.measured <= v.tolerance)


class TestTorusClaims:
    def test_extrema_conserved_passes_with_zero(self):
        v = verdict(stream(), TORUS, "T-L2")
        assert v.status == "pass"
        assert v.measured == 0.0

    def test_extrema_drift_fails(self):
        records = stream(g_max=lambda k: 2.1 + 0.5 * k)
        v = verdict(records, TORUS, "T-L2")
        assert v.status == "fail"
        assert v.measured == pytest.approx(2.0)  # worst drift at the last record

    def test_constant_initial_marks_na(self):
        records = stream(g_max=[2.0] * 5, g_min=[2.0] * 5)
        assert verdict(records, TORUS, "T-L2").status == "not-applicable"
        assert verdict(records, TORUS, "T-T6").status == "not-applicable"

    def test_slope_monotone(self):
        ok = stream(sup_gs=lambda k: 0.1 - 0.001 * k)
        assert verdict(ok, TORUS, "T-L3").status == "pass"
        bad = stream(sup_gs=[0.1, 0.1, 0.12, 0.12, 0.12])
        v = verdict(bad, TORUS, "T-L3")
        assert v.status == "fail"
        assert v.measured == pytest.approx(0.02)

    def test_growth_cap(self):
        ok = stream(sup_gss=lambda k: 0.1 * math.exp(-0.1 * k))
        assert verdict(ok, TORUS, "T-L4").status == "pass"
        bad = stream(sup_gss=lambda k: 0.1 * math.exp(20.0 * 0.5 * k))
        v = verdict(bad, TORUS, "T-L4")
        assert v.status == "fail"
        assert v.measured == pytest.approx(20.0)

    def test_length_monotone_and_rate(self):
        # growing L whose centred difference matches the stated rate
        ok = stream(L=lambda k: 6.28 + 0.01 * k, dL_dt_formula=[0.02] * 5)
        assert verdict(ok, TORUS, "T-L5").status == "pass"
        shrinking = stream(L=lambda k: 6.28 - 0.01 * k, dL_dt_formula=[-0.02] * 5)
        assert verdict(shrinking, TORUS, "T-L5").status == "fail"
        wrong_rate = stream(L=[6.28] * 5, dL_dt_formula=[1.0] * 5)
        assert verdict(wrong_rate, TORUS, "T-L5").status == "fail"

    def test_zero_monotonicity_slack_fails_any_decrease(self):
        tol = ClaimTolerances(mono_base=0.0, mono_dx2=0.0)
        shrinking = stream(L=lambda k: 6.28 - 0.01 * k, dL_dt_formula=[-0.02] * 5)
        v = verdict(shrinking, TORUS, "T-L5", tol)
        assert v.status == "fail"
        assert v.measured == math.inf

    def test_growth_proxy(self):
        ok = stream(L=lambda k: 6.28 * (1.0 + 0.01 * k), dL_dt_formula=[0.0628] * 5)
        assert verdict(ok, TORUS, "T-T6").status == "pass"
        flat = stream(L=[6.28] * 5, dL_dt_formula=[0.0] * 5)
        assert verdict(flat, TORUS, "T-T6").status == "fail"

    def test_volume_claim(self):
        ok = stream(V=lambda k: 25.0 + 0.1 * k)
        assert verdict(ok, TORUS, "T-C7").status == "pass"
        shrinking = stream(V=lambda k: 25.0 - 0.1 * k)
        assert verdict(shrinking, TORUS, "T-C7").status == "fail"
        below_bound = stream(V=[20.0] * 5)  # < g_min(0)^2 L(end) = 22.67
        assert verdict(below_bound, TORUS, "T-C7").status == "fail"

    def test_zero_count_invariance(self):
        assert verdict(stream(), TORUS, "T-R").status == "pass"
        bad = stream(zero_count=[2, 2, 4, 4, 4])
        v = verdict(bad, TORUS, "T-R")
        assert v.status == "fail"
        assert v.measured == 2.0


class TestSphereClaims:
    def test_extrema_squeeze(self):
        ok = stream(g_max=lambda k: 2.1 - 0.02 * k, g_min=lambda k: 1.9 + 0.02 * k)
        assert verdict(ok, SPHERE, "S-L8").status == "pass"
        bad = stream(g_max=lambda k: 2.1 + 0.02 * k)
        assert verdict(bad, SPHERE, "S-L8").status == "fail"

    def test_slope_bound(self):
        assert verdict(stream(), SPHERE, "S-L9").status == "pass"
        v = verdict(stream(sup_gs=[0.1, 0.2, 0.3, 0.2, 0.1]), SPHERE, "S-L9")
        assert v.status == "fail"
        assert v.measured == pytest.approx(0.3)
        assert v.tolerance == 0.25

    def test_length_decreases(self):
        # shrinking L whose centred difference matches the stated rate
        ok = stream(L=lambda k: 6.28 - 0.01 * k, dL_dt_formula=[-0.02] * 5)
        assert verdict(ok, SPHERE, "S-L12").status == "pass"
        assert verdict(stream(L=lambda k: 6.28 + 0.01 * k), SPHERE, "S-L12").status == "fail"

    def test_bend_norm_decay(self):
        ok = stream(l2_gss=[0.03, 0.01, 0.005, 0.003, 0.002])
        assert verdict(ok, SPHERE, "S-L13").status == "pass"
        slow = stream(l2_gss=[0.03, 0.02, 0.015, 0.01, 0.008])
        v = verdict(slow, SPHERE, "S-L13")
        assert v.status == "fail"
        assert v.tolerance == pytest.approx(0.003)

    def test_flattening_and_limit_sandwich(self):
        ok = stream(
            g_max=[2.1, 2.05, 2.02, 2.005, 2.001],
            g_min=[1.9, 1.95, 1.98, 1.995, 1.999],
        )
        assert verdict(ok, SPHERE, "S-T14").status == "pass"
        stuck = stream()
        assert verdict(stuck, SPHERE, "S-T14").status == "fail"

    def test_third_derivative_decay(self):
        ok = stream(l2_gsss=[0.03, 0.01, 0.005, 0.003, 0.002])
        assert verdict(ok, SPHERE, "S-L15").status == "pass"
        assert verdict(stream(l2_gsss=[0.03] * 5), SPHERE, "S-L15").status == "fail"

    def test_curvature_limits(self):
        # ends nearly round: K23 ~ 1/alpha^2 = 0.25, R ~ 2 K23
        ok = stream(
            g_max=[2.1, 2.05, 2.01, 2.002, 2.0005],
            g_min=[1.9, 1.95, 1.99, 1.998, 1.9995],
            K12_sup=[0.05, 0.01, 0.005, 0.002, 0.001],
            K23_mean=[0.25] * 5,
            K23_spread=[0.005] * 5,
            R_mean=[0.5002] * 5,
        )
        assert verdict(ok, SPHERE, "S-K").status == "pass"
        bent = stream(K12_sup=[0.5] * 5)
        assert verdict(bent, SPHERE, "S-K").status == "fail"
        lopsided = stream(R_mean=[0.53] * 5)  # R_mean - 2 K23_mean = 0.03 > 1e-3
        assert verdict(lopsided, SPHERE, "S-K").status == "fail"


def test_determinism():
    records = stream()
    a = evaluate_claims(records, SPHERE)
    b = evaluate_claims(records, SPHERE)
    for va, vb in zip(a, b):
        assert va.claim_id == vb.claim_id
        assert va.status == vb.status
        assert (va.measured == vb.measured) or (
            math.isnan(va.measured) and math.isnan(vb.measured)
        )


@pytest.mark.parametrize("kind", [TORUS, SPHERE], ids=["torus", "sphere"])
def test_table_gives_the_record_verdicts(kind):
    rng = np.random.default_rng(3)
    columns = {  # every float column jitters, so that each claim reads its own
        name: (value * (1.0 + 0.01 * rng.standard_normal(9))).tolist()
        for name, value in DEFAULTS.items() if name != "zero_count"
    }
    records = stream(n=9, dt=0.25, zero_count=[2, 2, 2, 4, 2, 2, 2, 2, 2], **columns)
    table = np.array([[getattr(r, name) for name in SERIES_FIELDS] for r in records])
    from_records = evaluate_claims(records, kind)
    assert {v.status for v in from_records} >= {"pass", "fail"}
    assert list(map(repr, evaluate_claims(table, kind))) == list(map(repr, from_records))


@pytest.mark.parametrize("shape", [(5, len(SERIES_FIELDS) - 1), (5, len(SERIES_FIELDS) + 1),
                                   (5 * len(SERIES_FIELDS),)])
def test_table_of_wrong_width_rejected(shape):
    with pytest.raises(ValueError, match=f"a series table has {len(SERIES_FIELDS)} columns"):
        evaluate_claims(np.zeros(shape), TORUS)


def test_tightening_never_flips_fail_to_pass():
    rng = np.random.default_rng(9)
    noisy = stream(
        n=9, dt=0.25,
        L=lambda k: 6.28 + 0.01 * k + 0.001 * rng.standard_normal(),
        sup_gs=lambda k: 0.1 + 0.01 * rng.standard_normal(),
        l2_gss=lambda k: max(0.001, 0.03 - 0.004 * k),
    )
    loose = ClaimTolerances()
    tight = dataclasses.replace(
        loose,
        mono_base=loose.mono_base / 100, mono_dx2=0.0,
        extrema_drift=loose.extrema_drift / 100, growth_cap=loose.growth_cap / 100,
        theta=loose.theta / 10, rate_rel=loose.rate_rel / 100,
        rate_abs=loose.rate_abs / 100, tol_k=loose.tol_k / 100,
        tol_r_pair=loose.tol_r_pair / 100, tol_alpha_k23=loose.tol_alpha_k23 / 100,
        delta_l_frac=min(1.0, loose.delta_l_frac * 100),
    )
    for kind in (TORUS, SPHERE):
        before = {v.claim_id: v.status for v in evaluate_claims(noisy, kind, loose)}
        after = {v.claim_id: v.status for v in evaluate_claims(noisy, kind, tight)}
        for cid in ALL_CLAIMS:
            if before[cid] == "fail":
                assert after[cid] in ("fail", "not-applicable")


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ClaimTolerances)])
def test_tolerance_fields_checked(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be") as err:
        ClaimTolerances(**{name: value})
    assert err.value.keys == (name,)


def test_tolerance_bounds():
    zeros = {f.name: 0.0 for f in dataclasses.fields(ClaimTolerances)}
    for name in ("dx", "rate_abs", "theta"):  # divisors, and theta in (0, 1]
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ClaimTolerances(**{**zeros, "dx": 1.0, "rate_abs": 1.0, "theta": 1.0, name: 0.0})
    ClaimTolerances(**{**zeros, "dx": 1.0, "rate_abs": 1.0, "theta": 1.0})
    with pytest.raises(ValueError, match=r"theta must be in \(0, 1\], got 5.0"):
        ClaimTolerances(theta=5)


@pytest.mark.parametrize("at, t", [(2, math.nan), (-1, math.inf), (0, -math.inf)],
                         ids=["nan", "last-inf", "first-minus-inf"])
def test_nan_time_rejected(at, t):
    # an infinite end time is in order, yet no claim reads it
    records = stream(n=4)
    records[at] = dataclasses.replace(records[at], t=t)
    with pytest.raises(ValueError, match="ordered"):
        evaluate_claims(records, TORUS)


def test_nan_rate_formula_fails_length_claim():
    # L grows at rate 1; one interior record carries no usable rate formula
    records = stream(
        L=lambda k: 6.28 + 0.5 * k,
        dL_dt_formula=lambda k: math.nan if k == 2 else 1.0,
    )
    v = verdict(records, TORUS, "T-L5")
    assert v.status == "fail" and math.isnan(v.measured)


def test_nan_extremum_fails_squeeze_claim():
    records = stream(g_min=lambda k: math.nan if k == 2 else 1.9)
    v = verdict(records, SPHERE, "S-L8")
    assert v.status == "fail" and math.isnan(v.measured)


@pytest.mark.parametrize("kind, claim_id", [(TORUS, "T-L4"), (SPHERE, "S-L10")])
def test_nan_growth_fails_log_slope_claim(kind, claim_id):
    v = verdict(stream(sup_gss=lambda k: math.nan if k == 2 else 0.1), kind, claim_id)
    assert v.status == "fail" and math.isnan(v.measured)


def pinned_tables():
    """Crafted record streams whose claim lines tests/claim_lines.txt holds: a torus and a
    sphere stream, a constant-g one (T-L2 and T-T6 vacuous) and one with a NaN sup|g_ss|."""
    torus = stream(
        n=6, dt=0.25,
        L=lambda k: 6.28 + 0.03 * k + (0.002 if k == 3 else 0.0),
        dL_dt_formula=[0.12, 0.12, 0.121, 0.12, 0.119, 0.12],
        V=lambda k: 25.0 + 0.2 * k - (0.05 if k == 4 else 0.0),
        g_max=lambda k: 2.1 + 1e-5 * k, g_min=[1.9, 1.9, 1.9, 1.9, 1.9, 1.90003],
        sup_gs=[0.1, 0.099, 0.1005, 0.098, 0.097, 0.096],
        sup_gss=lambda k: 0.1 * math.exp(0.3 * k),
        zero_count=[2, 2, 2, 2, 4, 2],
    )
    sphere = stream(
        n=6, dt=0.25,
        g_max=[2.1, 2.06, 2.03, 2.012, 2.004, 2.001],
        g_min=[1.9, 1.94, 1.97, 1.988, 1.996, 1.9985],
        L=lambda k: 6.28 - 0.01 * k, dL_dt_formula=[-0.04, -0.04, -0.04, -0.0401, -0.04, -0.04],
        sup_gs=[0.1, 0.08, 0.06, 0.05, 0.04, 0.03],
        sup_gss=lambda k: 0.1 * math.exp(-0.5 * k),
        l2_gss=[0.03, 0.015, 0.008, 0.004, 0.002, 0.001],
        l2_gsss=[0.03, 0.02, 0.015, 0.01, 0.008, 0.006],
        K12_sup=[0.05, 0.02, 0.01, 0.005, 0.003, 0.002],
        K23_mean=[0.25] * 6, K23_spread=[0.004] * 6, R_mean=[0.5004] * 6,
    )
    constant = stream(g_max=[2.0] * 5, g_min=[2.0] * 5, L=[6.28] * 5)
    nan_growth = stream(sup_gss=lambda k: math.nan if k == 2 else 0.1 + 0.01 * k)
    return {"torus": torus, "sphere": sphere, "constant-g": constant, "nan-sup_gss": nan_growth}


def pinned_claim_lines():
    """Every claim line of every pinned table, in both kinds, under a `# table kind` header."""
    lines = []
    for name, records in pinned_tables().items():
        for kind in (TORUS, SPHERE):
            lines.append(f"# {name} {kind.value}")
            lines.extend(map(_claim_line, evaluate_claims(records, kind)))
    return "\n".join(lines) + "\n"


def test_claim_lines_pinned():
    # crafted tables, not flow runs: the text depends on the claims alone
    want = (Path(__file__).parent / "claim_lines.txt").read_text(encoding="utf-8")
    assert pinned_claim_lines() == want


def _rate_residual_loop(t, values, formula, tol):
    """Reference: the per-record loop that `_rate_residual_ratio` does as arrays."""
    worst = 0.0
    for k in range(1, len(values) - 1):
        fd = (values[k + 1] - values[k - 1]) / (t[k + 1] - t[k - 1])
        allowed = max(tol.rate_rel * abs(formula[k]), tol.rate_abs)
        worst = _max(worst, abs(fd - formula[k]) / allowed)
    return worst


@pytest.mark.parametrize("nan_at", [None, "values", "formula"])
def test_rate_residual_ratio_matches_loop(nan_at):
    rng = np.random.default_rng(7)
    tol = ClaimTolerances()
    for _ in range(20):
        size = int(rng.integers(3, 40))
        t = np.cumsum(rng.uniform(0.01, 0.5, size))
        values = 6.0 + np.cumsum(rng.normal(0.0, 1e-3, size))
        # formula magnitudes on both sides of rate_abs / rate_rel
        formula = rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-6.0, 0.0, size)
        if nan_at is not None:
            {"values": values, "formula": formula}[nan_at][int(rng.integers(1, size - 1))] = math.nan
        got = _rate_residual_ratio(t, values, formula, tol)
        want = _rate_residual_loop(t, values, formula, tol)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.isnan(got) == (nan_at is not None)


def _max_log_slope_loop(t, values):
    """Reference: the per-record loop that `_max_log_slope` does as arrays."""
    if np.isnan(values).any():
        return math.nan
    worst = -math.inf
    for k in range(len(values) - 1):
        a, b = values[k], values[k + 1]
        if a > 0.0 and b > 0.0:
            worst = max(worst, (math.log(b) - math.log(a)) / (t[k + 1] - t[k]))
    return worst


@pytest.mark.parametrize("cells", ["positive", "falling", "zeros", "negatives", "inf", "all-zero",
                                   "nan"])
def test_max_log_slope_matches_loop(cells):
    rng = np.random.default_rng(11)
    for _ in range(200):
        size = int(rng.integers(2, 30))
        # the time step across 0 may overflow to inf, which gives a slope of +0 or -0
        t = np.sort(rng.choice([-1.0, 1.0], size) * rng.uniform(0.6, 1.0, size))
        t *= rng.choice([1.0, 1.7e308])
        values = np.exp(rng.normal(0.0, 1.0, size)) * rng.choice([1.0, 1e300], size)
        values[rng.random(size) < 0.3] = values[0]  # equal neighbours: slopes of +0
        if cells == "falling":  # the largest slope is 0, often both +0 and -0: the first counts
            values = np.sort(values)[::-1].copy()
        chosen = rng.random(size) < (1.0 if cells == "all-zero" else 0.3)
        if cells == "negatives":
            values[chosen] *= -1.0
        elif cells not in ("positive", "falling"):
            values[chosen] = {"zeros": 0.0, "inf": math.inf, "all-zero": 0.0, "nan": math.nan}[cells]
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = _max_log_slope(t, values), _max_log_slope_loop(t, values)
        assert (math.isnan(got) and math.isnan(want)) or (
            got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def sphere_length_verdict():
    """S-L12 of a sphere run at n=64 from g = 2 + 0.1 sin x, f = 1, to t=4 at record gap 0.1."""
    p = sinusoid_profile(64, 2.0 * math.pi, 2.0, 0.1, 1)
    records = []
    evolve(p, FlowConfig(kind=SPHERE, t_end=4.0, record_every=0.1),
           sink=lambda rec, _: records.append(rec))
    return verdict(records, SPHERE, "S-L12", ClaimTolerances(dx=p.dx))


def rows_scaled(factor):
    """A sphere flow run at factor times the speed: every row of out scales, a (3, n) out's
    diffusion coefficient too, so that stable_dt bounds the mutant's own step."""
    def mutant(real, state, f, g, t, out):
        real(state, f, g, t, out)
        out *= factor
    return mutant


def f_frozen(real, state, f, g, t, out):
    real(state, f, g, t, out)
    out[0] = 0.0


@pytest.mark.parametrize("mutant", [rows_scaled(0.5), rows_scaled(2.0), f_frozen],
                         ids=["time-x0.5", "time-x2", "f-frozen"])
def test_wrong_sphere_flows_fail_the_length_claim(monkeypatch, mutant):
    # L alone never increases under these flows; its rate identity catches them
    assert sphere_length_verdict().status == "pass"
    real = flow_mod._rhs_arrays
    monkeypatch.setattr(flow_mod, "_rhs_arrays", lambda *args: mutant(real, *args))
    v = sphere_length_verdict()
    assert v.status == "fail" and v.measured > 100.0
