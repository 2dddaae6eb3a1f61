import dataclasses
import math

import numpy as np
import pytest

import xcflow.flow as flow_mod
from xcflow import (
    BundleKind,
    FlowConfig,
    MetricProfile,
    NumericOverflowError,
    SlopeConditionError,
    StationaryFlowWarning,
    StepFailureError,
    curvature_field,
    evolve,
    rhs,
    s_derivative,
    sinusoid_profile,
    stable_dt,
    step,
    validate_initial,
)

import metric_oracle
from conftest import TWO_PI, make_profile, random_trig_profile

TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE


def steep_profile(n=16):
    x = np.arange(n) * (TWO_PI / n)
    return MetricProfile(n=n, period=TWO_PI, t=0.0, f=np.ones(n), g=1.2 + 1.0 * np.sin(x))


class TestFlowConfig:
    def test_default_record_every(self):
        cfg = FlowConfig(kind=TORUS, t_end=2.0)
        assert cfg.record_every == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs", [
            {"epsilon": -1.0},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"record_every": 0.0},
            {"record_every": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(kind=TORUS, t_end=1.0, **kwargs)

    def test_rejects_bad_t_end(self):
        with pytest.raises(ValueError):
            FlowConfig(kind=TORUS, t_end=0.0)

    def test_fields(self):
        # the step is set by the stencil's bound and the record gap alone
        names = [f.name for f in dataclasses.fields(FlowConfig)]
        assert names == ["kind", "t_end", "epsilon", "record_every", "tolerances"]


class TestValidateInitial:
    def test_sphere_accepts_small_slope(self, profile_b):
        assert validate_initial(profile_b, SPHERE) is profile_b

    def test_sphere_rejects_steep_slope(self):
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.3, 1)
        with pytest.raises(SlopeConditionError) as err:
            validate_initial(p, SPHERE)
        assert err.value.bound == 0.25
        assert err.value.sup_gs == pytest.approx(0.3, abs=1e-3)
        assert "0.25" in str(err.value)

    def test_torus_constant_warns(self):
        p = make_profile(n=64, g=2.0)
        with pytest.warns(StationaryFlowWarning):
            validate_initial(p, TORUS)

    def test_torus_nonconstant_is_silent(self, profile_a):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_initial(profile_a, TORUS)


class TestRhs:
    def test_torus_against_analytic(self, profile_a):
        df, dg = rhs(profile_a, TORUS, 0.0)
        # node 32 sits at x = pi/4
        x0 = math.pi / 4
        gx = 0.1 * math.cos(x0)
        gxx = -0.1 * math.sin(x0)
        g = 2.0 + 0.1 * math.sin(x0)
        assert df[32] == pytest.approx(gxx**2 / g**2, abs=1e-6)
        assert dg[32] == pytest.approx(gx**2 * gxx / g**2, abs=1e-7)
        assert df[32] == pytest.approx(1.16609e-3, abs=1e-6)
        assert dg[32] == pytest.approx(-8.2455e-5, abs=1e-7)

    def test_sphere_against_analytic(self, profile_b):
        df, dg = rhs(profile_b, SPHERE, 0.0)
        # node 64 sits at x = pi/2: w ~ 0, g_xx = -0.1, g = 2.1
        assert dg[64] == pytest.approx(-0.1 / 4.41, abs=5e-6)
        assert df[64] == pytest.approx(-0.01 / 4.41, abs=1e-6)
        assert dg[64] == pytest.approx(-0.0226757, abs=5e-6)

    def test_fixed_point(self):
        p = make_profile(n=64, g=2.0)
        df, dg = rhs(p, TORUS, 0.0)
        assert np.all(df == 0.0)
        assert np.all(dg == 0.0)

    def test_sphere_ignores_epsilon(self, profile_b):
        df0, dg0 = rhs(profile_b, SPHERE, 0.0)
        df1, dg1 = rhs(profile_b, SPHERE, 0.5)
        assert np.array_equal(df0, df1)
        assert np.array_equal(dg0, dg1)

    def test_metric_flow_reduction(self, kind):
        # d/dt g_ij = +/- 2 h_ij on g = diag(f^2, g^2, ...): f_t = +/- f h11, g_t = +/- g h22
        rng = np.random.default_rng(606)
        for _ in range(20):
            p = random_trig_profile(rng)
            field = curvature_field(p, kind)
            h = metric_oracle.evaluate(kind, p.f, p.g, field.w, field.w_s)
            for got, want in zip(rhs(p, kind, 0.0), (p.f * h["h11"], p.g * h["h22"])):
                want = kind.flow_sign * want
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(got), np.abs(want)))

    @pytest.mark.parametrize("eps", [1e-2, 0.5])
    def test_torus_epsilon_enters_only_g(self, eps):
        rng = np.random.default_rng(607)
        for _ in range(20):
            p = random_trig_profile(rng)
            field = curvature_field(p, TORUS)
            df0, dg0 = rhs(p, TORUS, 0.0)
            df, dg = rhs(p, TORUS, eps)
            assert np.array_equal(df, df0)
            # eps (d/dx w) / (f g^2) = eps w_s / g^2
            want = eps * field.w_s / (p.g * p.g)
            assert np.all(np.abs(dg - dg0 - want) <= 1e-12 * np.maximum(np.abs(dg), np.abs(want)))

    def test_overflow_reports_node_and_time(self):
        p = make_profile(n=16, f=1e-300, g=2.0 + 0.1 * np.sin(np.arange(16) * TWO_PI / 16), t=1.5)
        with pytest.raises(NumericOverflowError, match="t=1.5"):
            rhs(p, TORUS, 0.0)


class TestStableDt:
    def test_frozen_example(self):
        p = make_profile(n=64, g=2.0)
        # dx^2 / D_max with D_max = eps / g^2
        dt = stable_dt(p, TORUS, epsilon=0.01)
        assert dt == pytest.approx(3.855314, abs=1e-6)

    def test_degenerate_returns_dt_max(self):
        # no diffusion anywhere: no bound, evolve steps the whole record gap
        p = make_profile(n=64, g=2.0)
        assert stable_dt(p, TORUS, epsilon=0.0) == math.inf

    def test_sphere_matches_grid_maximisation(self, profile_b):
        dt = stable_dt(profile_b, SPHERE)
        w = s_derivative(profile_b, profile_b.g)
        d_max = np.max((1.0 - w**2) / profile_b.g**2)
        assert dt == pytest.approx(profile_b.dx**2 / d_max, rel=1e-12)

    @pytest.mark.parametrize("kind, eps", [(SPHERE, 0.0), (TORUS, 1e-2)])
    def test_default_step_inside_rk4_interval(self, kind, eps):
        # central-difference Jacobian of the RHS in (f, g); the decaying
        # modes must satisfy dt |lambda| <= 1.05 at the stable step, well
        # inside RK4's real-axis interval (-2.785, 0). Modes with
        # Re(lambda) >= 0 are the flow's own slow growth.
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        n, y0 = p.n, np.concatenate((p.f, p.g))

        def rhs_flat(y):
            with np.errstate(all="ignore"):
                return np.concatenate(flow_mod._rhs_arrays(y[:n], y[n:], p.dx, kind, eps, 0.0))

        jac = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            h = 1e-6 * y0[j]
            dy = np.zeros(2 * n)
            dy[j] = h
            jac[:, j] = (rhs_flat(y0 + dy) - rhs_flat(y0 - dy)) / (2.0 * h)
        lam = np.linalg.eigvals(jac)
        decaying = lam[lam.real < 0.0]
        assert decaying.size > n // 2
        assert np.max(np.abs(decaying)) * stable_dt(p, kind, eps) <= 1.05


class TestStep:
    def test_fixed_point_is_exact(self):
        p = make_profile(n=64, g=2.0)
        out = step(p, TORUS, 0.0, 0.5)
        assert np.array_equal(out.f, p.f)
        assert np.array_equal(out.g, p.g)
        assert out.t == 0.5

    def test_euler_consistency(self, profile_a):
        dt = stable_dt(profile_a, TORUS)
        out = step(profile_a, TORUS, 0.0, dt)
        _, k1g = rhs(profile_a, TORUS, 0.0)
        assert np.max(np.abs((out.g - profile_a.g) / dt - k1g)) < 2e-7

    def test_fourth_order_step_doubling(self):
        # profile steep enough that the one-step error is far above roundoff
        p = steep_profile()
        dt = 0.3 * stable_dt(p, TORUS)

        def advance(prof, h, m):
            for _ in range(m):
                prof = step(prof, TORUS, 0.0, h)
            return prof

        y1 = advance(p, dt, 1)
        y2 = advance(p, dt / 2, 2)
        y4 = advance(p, dt / 4, 4)
        d1 = max(np.max(np.abs(y1.g - y2.g)), np.max(np.abs(y1.f - y2.f)))
        d2 = max(np.max(np.abs(y2.g - y4.g)), np.max(np.abs(y2.f - y4.f)))
        assert d1 > 1e-10  # measurable regime
        assert 10.0 < d1 / d2 < 24.0

    def test_rejects_nonpositive_dt(self, profile_a):
        with pytest.raises(ValueError):
            step(profile_a, TORUS, 0.0, 0.0)

    def test_positivity_failure(self, profile_a):
        with pytest.raises(StepFailureError):
            step(profile_a, TORUS, 0.0, 1e8)

    def test_nonfinite_result_is_a_step_failure(self, profile_a, monkeypatch):
        def huge(f, g, dx, kind, epsilon, t, out):
            out[:] = 1e308  # finite slopes whose weighted sum overflows
            return out[0], out[1]

        monkeypatch.setattr(flow_mod, "_rhs_arrays", huge)
        with pytest.raises(StepFailureError):
            step(profile_a, TORUS, 0.0, 1.0)

    def test_result_shares_no_memory_with_input(self, profile_a, kind):
        out = step(profile_a, kind, 0.0, stable_dt(profile_a, kind))
        for new in (out.f, out.g):
            for old in (profile_a.f, profile_a.g):
                assert not np.shares_memory(new, old)


class TestEvolve:
    @pytest.mark.parametrize("kind, eps", [(SPHERE, 0.0), (TORUS, 1e-2)])
    def test_default_step_resolves_time(self, kind, eps, monkeypatch):
        # the stable step must leave every record where a 4x smaller one puts it
        rows, steps = [], []
        bound = flow_mod.stable_dt
        for scale in (1.0, 0.25):
            monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: scale * bound(*args))
            records = []
            cfg = FlowConfig(kind=kind, t_end=1.0, epsilon=eps)
            p = sinusoid_profile(128, TWO_PI, 2.0, 0.1, 1)
            _, summary = evolve(p, cfg, sink=lambda r, _: records.append(r))
            assert summary.retries == 0
            assert len(records) == 101
            rows.append(np.array([dataclasses.astuple(r) for r in records]))
            steps.append(summary.steps)
        if kind is SPHERE:  # the torus step bound exceeds the record gap
            assert steps[0] < steps[1]
        # NaN entries (dV_dt_formula on the sphere) compare equal
        np.testing.assert_allclose(rows[0], rows[1], rtol=0.0, atol=1e-12)

    def test_stationary_run(self):
        p = make_profile(n=64, g=2.0)
        cfg = FlowConfig(kind=TORUS, t_end=1.0, record_every=0.25)
        records = []
        with pytest.warns(StationaryFlowWarning):
            final, summary = evolve(p, cfg, sink=lambda r, _: records.append(r))
        assert np.array_equal(final.f, p.f)
        assert np.array_equal(final.g, p.g)
        assert final.t == pytest.approx(1.0)
        assert summary.records == len(records) == 5
        assert [r.t for r in records] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert all(r.L == records[0].L for r in records)

    def test_stationary_run_steps_whole_gaps(self):
        # stable_dt is inf without diffusion, so each record gap is one step
        p = make_profile(n=64, g=2.0)
        cfg = FlowConfig(kind=TORUS, t_end=5.0, record_every=2.5)
        with pytest.warns(StationaryFlowWarning):
            final, summary = evolve(p, cfg)
        assert summary.steps == 2
        assert final.t == 5.0

    def test_determinism(self, profile_a):
        cfg = FlowConfig(kind=TORUS, t_end=0.5, record_every=0.05)

        def run():
            rows = []
            evolve(profile_a, cfg, sink=lambda r, _: rows.append(r))
            return rows

        a, b = run(), run()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra == rb  # bitwise equality of every field

    def test_records_cover_start_and_end(self, profile_a):
        cfg = FlowConfig(kind=TORUS, t_end=0.3, record_every=0.07)
        records = []
        _, summary = evolve(profile_a, cfg, sink=lambda r, _: records.append(r))
        assert records[0].t == 0.0
        assert records[-1].t == pytest.approx(0.3)
        gaps = np.diff([r.t for r in records])
        assert np.all(gaps <= 0.07 + 1e-12)
        assert summary.t_final == pytest.approx(0.3)

    def test_positivity_preserved(self, profile_a):
        cfg = FlowConfig(kind=TORUS, t_end=1.0, record_every=0.5)
        seen = []
        evolve(profile_a, cfg, sink=lambda r, prof: seen.append(prof))
        for prof in seen:
            assert np.all(prof.f > 0.0)
            assert np.all(prof.g > 0.0)

    def test_sink_profiles_unchanged_after_run(self, profile_a, kind):
        # profiles handed out must not be reused as work buffers later on
        before = (profile_a.f.copy(), profile_a.g.copy())
        seen = []

        def sink(rec, prof):
            seen.append((prof, prof.t, prof.f.copy(), prof.g.copy()))

        cfg = FlowConfig(kind=kind, t_end=0.2, record_every=0.02)
        evolve(profile_a, cfg, sink=sink)
        assert len(seen) == 11
        for prof, t, f, g in seen:
            assert prof.t == t
            assert np.array_equal(prof.f, f)
            assert np.array_equal(prof.g, g)
        assert np.array_equal(profile_a.f, before[0])
        assert np.array_equal(profile_a.g, before[1])

    def test_long_horizon_start(self, profile_a):
        # t / every rounds below the record index of t itself here
        t0 = 0.07 * 2.6e8
        start = MetricProfile(profile_a.n, profile_a.period, t0, profile_a.f, profile_a.g)
        cfg = FlowConfig(kind=TORUS, t_end=t0 + 0.21, epsilon=1e-2, record_every=0.07)
        records = []
        final, _ = evolve(start, cfg, sink=lambda r, _: records.append(r))
        assert [r.t for r in records] == [t0] + [k * 0.07 for k in (260000001, 260000002)] + [
            t0 + 0.21
        ]
        assert final.t == t0 + 0.21

    def test_step_rounding_onto_record_time_is_recorded(self, monkeypatch):
        # at t = 2^20 a step of 0.5 - 2^-40 rounds onto the next record time
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: 0.5 - 2.0**-40)
        t0 = 2.0**20
        cfg = FlowConfig(kind=TORUS, t_end=t0 + 1.5, record_every=0.5)
        records = []
        with pytest.warns(StationaryFlowWarning):
            evolve(make_profile(n=64, g=2.0, t=t0), cfg, sink=lambda r, _: records.append(r.t))
        assert records == [t0, t0 + 0.5, t0 + 1.0, t0 + 1.5]

    def test_stop_when(self, profile_a):
        cfg = FlowConfig(kind=TORUS, t_end=10.0, record_every=0.1)
        records = []
        final, _ = evolve(
            profile_a, cfg,
            sink=lambda r, _: records.append(r),
            stop_when=lambda r: r.t >= 0.3,
        )
        assert final.t == pytest.approx(records[-1].t)
        assert records[-1].t == pytest.approx(0.3, abs=1e-9)

    def test_retry_then_succeed(self, profile_a, monkeypatch):
        real_step = flow_mod.step
        fails = {"left": 2}

        def flaky(profile, kind, epsilon, dt):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise StepFailureError(profile.t, dt)
            return real_step(profile, kind, epsilon, dt)

        monkeypatch.setattr(flow_mod, "step", flaky)
        cfg = FlowConfig(kind=TORUS, t_end=0.1, record_every=0.1)
        _, summary = evolve(profile_a, cfg)
        assert summary.retries == 2
        assert summary.t_final == pytest.approx(0.1)

    def test_retry_exhaustion_reports_last_good_time(self, profile_a, monkeypatch):
        def always_fail(profile, kind, epsilon, dt):
            raise StepFailureError(profile.t, dt)

        monkeypatch.setattr(flow_mod, "step", always_fail)
        cfg = FlowConfig(kind=TORUS, t_end=0.1, record_every=0.1)
        with pytest.raises(StepFailureError, match="last good t=0.0"):
            evolve(profile_a, cfg)

    def test_commutator_identity_per_step(self, profile_a, kind):
        # d/dt log f tracks +/- (1/g^2) g_ss^2 along discrete steps
        profile = profile_a
        cfg_eps = 0.0
        for _ in range(5):
            dt = stable_dt(profile, kind, cfg_eps)
            advanced = step(profile, kind, cfg_eps, dt)
            lhs = (advanced.f - profile.f) / (dt * profile.f)
            gss = s_derivative(profile, s_derivative(profile, profile.g))
            formula = kind.flow_sign * gss**2 / profile.g**2
            scale = np.max(np.abs(formula))
            assert np.max(np.abs(lhs - formula)) <= 1e-3 * scale + 1e-12
            profile = advanced

    def test_epsilon_runs_approach_degenerate(self, profile_a):
        finals = {}
        for eps in (0.0, 1e-2, 1e-3, 1e-4):
            cfg = FlowConfig(kind=TORUS, t_end=0.5, record_every=0.5, epsilon=eps)
            final, _ = evolve(profile_a, cfg)
            finals[eps] = final.g
        gaps = [float(np.max(np.abs(finals[e] - finals[0.0]))) for e in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_refinement_convergence(self):
        def run(n):
            p = sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)
            cfg = FlowConfig(kind=TORUS, t_end=0.5, record_every=0.5)
            final, _ = evolve(p, cfg)
            return final.g

        g64, g128, g256 = run(64), run(128), run(256)
        d1 = np.max(np.abs(g128[::2] - g64))
        d2 = np.max(np.abs(g256[::2] - g128))
        assert d1 / d2 >= 3.0  # second order in space
