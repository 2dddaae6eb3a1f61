import dataclasses
import math
import tracemalloc
import typing

import numpy as np
import pytest

from xcflow import (
    BundleKind,
    DiagnosticsRecord,
    FlowConfig,
    count_sign_changes,
    evolve,
    functionals,
    s_derivative,
    sinusoid_profile,
)

from xcflow.diagnostics import WORK_SLOTS

from conftest import TWO_PI, make_profile, random_trig_profile
from records_reference import reference_records

TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE

# frozen quadrature oracle values for f = 1, g = 2 + 0.1 sin x
# (adaptive quadrature of the analytic integrands over one period)
E2_QUAD = 0.007898314149888822          # (1/g^2) g_ss^2
DV_QUAD = 0.03145524560828636           # (2/3)(1/g^2) g_s^4 + g_ss^2
E2_RATE_TORUS_QUAD = -3.4905138756295704e-05
E2_RATE_SPHERE_QUAD = -0.004013690783199925


class TestFunctionals:
    def test_unit_speed_circle_length(self):
        for n in (16, 64, 256):
            rec = functionals([make_profile(n=n, g=2.0)], TORUS)[0]
            assert rec.L == pytest.approx(TWO_PI, abs=1e-12)

    def test_torus_volume(self):
        rec = functionals([make_profile(n=64, g=2.0)], TORUS)[0]
        assert rec.V == pytest.approx(8.0 * math.pi, abs=1e-10)

    def test_sphere_volume_uses_round_fibre_area(self):
        rec = functionals([make_profile(n=64, g=2.0)], SPHERE)[0]
        assert rec.V == pytest.approx(4.0 * math.pi * 8.0 * math.pi, abs=1e-9)

    def test_profile_a_values(self, profile_a):
        rec = functionals([profile_a], TORUS)[0]
        assert rec.sup_gs == pytest.approx(0.1, abs=1e-4)
        assert rec.sup_gss == pytest.approx(0.1, abs=1e-4)
        assert rec.l2_gss == pytest.approx(0.01 * math.pi, abs=1e-4)
        assert rec.l2_gsss == pytest.approx(0.01 * math.pi, abs=1e-4)
        assert rec.zero_count == 2
        assert rec.g_max == pytest.approx(2.1, abs=1e-4)
        assert rec.g_min == pytest.approx(1.9, abs=1e-4)
        assert rec.E2 == pytest.approx(E2_QUAD, rel=1e-3)

    def test_sphere_volume_rate_reported_absent(self, profile_b):
        rec = functionals([profile_b], SPHERE)[0]
        assert math.isnan(rec.dV_dt_formula)

    def test_curvature_summaries(self, profile_b):
        rec = functionals([profile_b], SPHERE)[0]
        assert rec.K12_sup == pytest.approx(0.1 / 1.9, rel=1e-2)
        assert rec.K23_mean == pytest.approx(0.25, abs=0.02)
        assert rec.K23_spread > 0.0
        assert rec.R_mean == pytest.approx(2 * rec.K23_mean, abs=0.05)

    def test_fields_have_their_builtin_types(self, kind):
        # the series writer prints each value's repr, which is the shortest
        # round-trip text only for builtin floats and ints
        declared = typing.get_type_hints(DiagnosticsRecord)
        rng = np.random.default_rng(11)
        profiles = [random_trig_profile(rng, n=64) for _ in range(3)]
        for rec in functionals(profiles, kind) + functionals(profiles[:1], kind):
            for field in dataclasses.fields(rec):
                assert type(getattr(rec, field.name)) is declared[field.name], field.name


class TestRateFormulas:
    def test_constant_profile_rates_vanish(self):
        p = make_profile(n=64, g=2.0)
        rt = functionals([p], TORUS)[0]
        assert rt.dL_dt_formula == 0.0
        assert rt.dV_dt_formula == 0.0
        assert rt.E2_rate_formula == 0.0
        rs = functionals([p], SPHERE)[0]
        assert rs.dL_dt_formula == 0.0
        assert math.isnan(rs.dV_dt_formula)
        assert rs.E2_rate_formula == 0.0

    def test_torus_rates_against_quadrature_oracle(self, profile_a):
        rec = functionals([profile_a], TORUS)[0]
        assert rec.dL_dt_formula == pytest.approx(E2_QUAD, rel=1e-3)
        assert rec.dV_dt_formula == pytest.approx(DV_QUAD, rel=1e-3)
        assert rec.E2_rate_formula == pytest.approx(E2_RATE_TORUS_QUAD, rel=2e-3)

    def test_sphere_rates_against_quadrature_oracle(self, profile_b):
        rec = functionals([profile_b], SPHERE)[0]
        assert rec.dL_dt_formula == pytest.approx(-E2_QUAD, rel=1e-3)
        assert math.isnan(rec.dV_dt_formula)
        assert rec.E2_rate_formula == pytest.approx(E2_RATE_SPHERE_QUAD, rel=2e-3)

    def test_sign_properties(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rec = functionals([random_trig_profile(rng)], kind)[0]
            if kind is TORUS:
                assert rec.dL_dt_formula >= 0.0
                assert rec.dV_dt_formula >= 0.0
            else:
                assert rec.dL_dt_formula <= 0.0

    def test_length_rate_matches_run(self, profile_a):
        # centred difference of measured L along a run vs the closed form
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.02)
        records = []
        evolve(profile_a, cfg, sink=lambda r, _: records.append(r))
        for k in range(1, len(records) - 1):
            fd = (records[k + 1].L - records[k - 1].L) / (records[k + 1].t - records[k - 1].t)
            formula = records[k].dL_dt_formula
            assert abs(fd - formula) <= max(1e-3 * abs(formula), 1e-6)


def integrate_ds(values, profile):
    """Periodic trapezoid quadrature of node samples against ds = f dx."""
    return float(np.sum(values * profile.f) * profile.dx)


def reference_rates(profile, kind):
    """(dL/dt, dV/dt, dE2/dt) with the integrands written term by term, each power spelled out.

    dV/dt is NaN on the sphere, as in the record.
    """
    w = s_derivative(profile, profile.g)
    gss = s_derivative(profile, w)
    gsss = s_derivative(profile, gss)
    g = profile.g
    dL = kind.flow_sign * integrate_ds(gss**2 / (g * g), profile)
    if kind is TORUS:
        dV = integrate_ds((2.0 / 3.0) * w**4 / (g * g) + gss**2, profile)
        e2_rate = integrate_ds(
            -(38.0 / 3.0) * w**2 * gss**3 / g**5
            - gss**4 / (3.0 * g**4)
            - 2.0 * w**2 * gsss**2 / g**4
            + 12.0 * w**4 * gss**2 / g**6,
            profile,
        )
        return dL, dV, e2_rate
    one_m_w2 = 1.0 - w**2
    e2_rate = integrate_ds(
        -2.0 * one_m_w2 * gsss**2 / g**4
        + gss**4 / (3.0 * g**4)
        + ((38.0 / 3.0) * w**2 - 6.0) * gss**3 / g**5
        + 12.0 * w**2 * one_m_w2 * gss**2 / g**6,
        profile,
    )
    return dL, math.nan, e2_rate


class TestRateFormulasReference:
    @pytest.mark.parametrize("amp", [0.1, 0.4])
    def test_every_field_matches_term_by_term(self, kind, amp):
        rng = np.random.default_rng(17)
        for _ in range(6):
            p = random_trig_profile(rng, amp=amp, modes=4)
            rec = functionals([p], kind)[0]
            got = (rec.dL_dt_formula, rec.dV_dt_formula, rec.E2_rate_formula)
            for name, a, b in zip(("dL_dt", "dV_dt", "E2_rate"), got, reference_rates(p, kind)):
                if math.isnan(b):
                    assert math.isnan(a), name
                else:
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0), name
            # E2 and dL/dt come from one sum
            assert rec.E2 == kind.flow_sign * rec.dL_dt_formula


class TestQuadrature:
    # L = integral of ds = sum of f dx is the record's plain ds-quadrature
    def test_spectral_exactness_for_trig_polynomials(self):
        for n in (64, 256):
            x = np.arange(n) * (TWO_PI / n)
            p = make_profile(n=n, f=3.5 + np.cos(5 * x) - 2.0 * np.sin(7 * x), g=2.0)
            assert functionals([p], TORUS)[0].L == pytest.approx(3.5 * TWO_PI, abs=1e-12)

    def test_arc_length_weighting(self):
        p = make_profile(n=64, f=3.0, g=2.0)
        assert functionals([p], TORUS)[0].L == pytest.approx(3.0 * TWO_PI, abs=1e-12)


class TestZeroCount:
    def test_sinusoid(self, profile_a):
        rec = functionals([profile_a], TORUS)[0]
        assert rec.zero_count == 2

    def test_higher_wavenumber(self):
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 3)
        assert functionals([p], TORUS)[0].zero_count == 6

    def test_constant_counts_zero(self):
        assert count_sign_changes(np.zeros(16)) == 0

    def test_exact_zeros_skipped(self):
        v = np.array([1.0, 0.0, 1.0, -1.0, 0.0, -1.0, 1.0, 1.0])
        # touches at the exact zeros add nothing; crossings remain
        assert count_sign_changes(v) == 2

    def test_batched_rows_with_exact_zeros(self):
        # g is flat where its sine bump is negative, so g_s has runs of exact
        # zeros, some wrapping past the last node; a mirror-symmetric g has
        # isolated ones (and g_ss six sign changes to g_s's two), and a
        # constant g has nothing else
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        rng = np.random.default_rng(11)
        gs = [2.0 + 0.1 * np.maximum(np.sin(k * x + rng.uniform(0.0, TWO_PI)), 0.0)
              for k in (1, 2, 3, 1, 2)]
        gs.insert(2, np.full(n, 2.0))
        mirrored = np.minimum(np.arange(n), n - np.arange(n)) * (TWO_PI / n)
        gs.append(2.0 + 0.1 * np.cos(mirrored) + 0.02 * np.cos(3.0 * mirrored))
        profiles = [make_profile(n=n, g=g) for g in gs]
        counts = []
        for p, rec in zip(profiles, functionals(profiles, TORUS)):
            w = s_derivative(p, p.g)
            assert np.any(w == 0.0)
            assert rec.zero_count == count_sign_changes(w)
            counts.append(rec.zero_count)
        assert counts == [2, 4, 0, 6, 2, 4, 2]

    def test_always_even(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(8, 64)))
            assert count_sign_changes(v) % 2 == 0


def traced_peak(call) -> int:
    """Bytes that the interpreter and numpy held at the peak of call(), above what they held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def landed_profiles(kind, n, count):
    """The first `count` landed profiles of a run from g = 2 + 0.1 sin x, 0.005 apart."""
    landed = []
    cfg = FlowConfig(kind=kind, t_end=0.005 * (count - 1), record_every=0.005)
    evolve(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg, landed=landed.append)
    assert len(landed) == count
    return landed


class TestWorkspace:
    """`functionals` in a workspace: every record that of the expression form, bit for bit."""

    @pytest.mark.parametrize("n, rows, used", [(256, 16, 16), (256, 16, 5), (2048, 2, 2)],
                             ids=["16-row-batch", "partial-batch", "n2048-2-rows"])
    def test_batch_equals_the_expression_form(self, kind, n, rows, used):
        profiles = landed_profiles(kind, n, used)
        work = np.full(WORK_SLOTS * rows * n, np.nan)  # a slot is written before it is read
        want = [repr(rec) for rec in reference_records(profiles, kind)]
        assert [repr(rec) for rec in functionals(profiles, kind, work)] == want
        # the same workspace again, dirty now, and without one
        assert [repr(rec) for rec in functionals(profiles, kind, work)] == want
        assert [repr(rec) for rec in functionals(profiles, kind)] == want

    @pytest.mark.parametrize("n, rows", [(256, 16), (2048, 2)])
    def test_allocates_no_array_of_the_batch(self, kind, n, rows):
        profiles = [sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)] * rows
        work = np.empty(WORK_SLOTS * rows * n)
        functionals(profiles, kind, work)  # one-time allocations of numpy and the interpreter
        assert traced_peak(lambda: functionals(profiles, kind, work)) < rows * n * 8
