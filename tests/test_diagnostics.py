import dataclasses
import math
import typing

import numpy as np
import pytest

from xcflow import (
    BundleKind,
    DiagnosticsRecord,
    FlowConfig,
    RateFormulas,
    count_sign_changes,
    evolve,
    functionals,
    integrate_ds,
    rate_formulas,
    s_derivative,
    sinusoid_profile,
)

from conftest import TWO_PI, make_profile, random_trig_profile

TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE

# frozen quadrature oracle values for f = 1, g = 2 + 0.1 sin x
# (adaptive quadrature of the analytic integrands over one period)
E2_QUAD = 0.007898314149888822          # (1/g^2) g_ss^2
DV_QUAD = 0.03145524560828636           # (2/3)(1/g^2) g_s^4 + g_ss^2
E2_RATE_TORUS_QUAD = -3.4905138756295704e-05
E2_RATE_SPHERE_QUAD = -0.004013690783199925
L3_RATE_SPHERE_QUAD = -0.01557953568463606


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

    def test_rate_fields_mirror_formulas(self, profile_a):
        rec = functionals([profile_a], TORUS)[0]
        rates = rate_formulas(profile_a, TORUS)
        assert rec.dL_dt_formula == rates.dL_dt
        assert rec.dV_dt_formula == rates.dV_dt
        assert rec.E2_rate_formula == rates.e2_rate

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
        rt = rate_formulas(p, TORUS)
        assert rt.dL_dt == 0.0
        assert rt.dV_dt == 0.0
        assert rt.e2_rate == 0.0
        assert rt.l2_gsss_rate is None
        rs = rate_formulas(p, SPHERE)
        assert rs.dL_dt == 0.0
        assert rs.dV_dt is None
        assert rs.e2_rate == 0.0
        assert rs.l2_gsss_rate == 0.0

    def test_torus_rates_against_quadrature_oracle(self, profile_a):
        rates = rate_formulas(profile_a, TORUS)
        assert rates.dL_dt == pytest.approx(E2_QUAD, rel=1e-3)
        assert rates.dV_dt == pytest.approx(DV_QUAD, rel=1e-3)
        assert rates.e2_rate == pytest.approx(E2_RATE_TORUS_QUAD, rel=2e-3)
        assert rates.l2_gsss_rate is None

    def test_sphere_rates_against_quadrature_oracle(self, profile_b):
        rates = rate_formulas(profile_b, SPHERE)
        assert rates.dL_dt == pytest.approx(-E2_QUAD, rel=1e-3)
        assert rates.dV_dt is None
        assert rates.e2_rate == pytest.approx(E2_RATE_SPHERE_QUAD, rel=2e-3)
        assert rates.l2_gsss_rate == pytest.approx(L3_RATE_SPHERE_QUAD, rel=2e-3)

    def test_sign_properties(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_trig_profile(rng)
            rates = rate_formulas(p, kind)
            if kind is TORUS:
                assert rates.dL_dt >= 0.0
                assert rates.dV_dt >= 0.0
            else:
                assert rates.dL_dt <= 0.0

    def test_length_rate_matches_run(self, profile_a):
        # centred difference of measured L along a run vs the closed form
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.02)
        records = []
        evolve(profile_a, cfg, sink=lambda r, _: records.append(r))
        for k in range(1, len(records) - 1):
            fd = (records[k + 1].L - records[k - 1].L) / (records[k + 1].t - records[k - 1].t)
            formula = records[k].dL_dt_formula
            assert abs(fd - formula) <= max(1e-3 * abs(formula), 1e-6)


def reference_rates(profile, kind):
    """The rate integrands written term by term, each power spelled out."""
    w = s_derivative(profile, profile.g)
    gss = s_derivative(profile, w)
    gsss = s_derivative(profile, gss)
    gssss = s_derivative(profile, gsss)
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
        return RateFormulas(dL, dV, e2_rate, None)
    one_m_w2 = 1.0 - w**2
    e2_rate = integrate_ds(
        -2.0 * one_m_w2 * gsss**2 / g**4
        + gss**4 / (3.0 * g**4)
        + ((38.0 / 3.0) * w**2 - 6.0) * gss**3 / g**5
        + 12.0 * w**2 * one_m_w2 * gss**2 / g**6,
        profile,
    )
    l3_rate = integrate_ds(
        -2.0 * one_m_w2 * gssss**2 / g**2
        + 24.0 * w**2 * one_m_w2 * gsss**2 / g**4
        - 44.0 * (3.0 / 11.0 - w**2) * gss * gsss**2 / g**3
        + gss**2 * gsss**2 / g**2
        + 8.0 * w * gss * gsss * gssss / g**2
        - 120.0 * w**4 * one_m_w2 * gss**2 / g**6
        + 248.0 * w**2 * (15.0 / 31.0 - w**2) * gss**3 / g**5
        - 96.0 * (1.0 / 8.0 - w**2) * gss**4 / g**4
        + 32.0 * w * gss**3 * gsss / g**3,
        profile,
    )
    return RateFormulas(dL, None, e2_rate, l3_rate)


class TestRateFormulasReference:
    @pytest.mark.parametrize("amp", [0.1, 0.4])
    def test_every_field_matches_term_by_term(self, kind, amp):
        rng = np.random.default_rng(17)
        for _ in range(6):
            p = random_trig_profile(rng, amp=amp, modes=4)
            got, want = rate_formulas(p, kind), reference_rates(p, kind)
            for name in ("dL_dt", "dV_dt", "e2_rate", "l2_gsss_rate"):
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None, name
                else:
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0), name
            # E2 and dL/dt come from one sum
            assert functionals([p], kind)[0].E2 == kind.flow_sign * got.dL_dt


class TestQuadrature:
    def test_spectral_exactness_for_trig_polynomials(self):
        for n in (64, 256):
            p = make_profile(n=n, g=2.0)
            v = 1.5 + np.cos(5 * p.x) - 2.0 * np.sin(7 * p.x)
            assert integrate_ds(v, p) == pytest.approx(1.5 * TWO_PI, abs=1e-12)

    def test_arc_length_weighting(self):
        p = make_profile(n=64, f=3.0, g=2.0)
        assert integrate_ds(np.ones(64), p) == pytest.approx(3.0 * TWO_PI, abs=1e-12)


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
