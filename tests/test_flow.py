import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import xcflow.flow as flow_mod
from xcflow.diagnostics import _series_values
from xcflow import (
    SERIES_FIELDS,
    BundleKind,
    FieldError,
    FlowConfig,
    MetricProfile,
    NumericOverflowError,
    SlopeConditionError,
    StationaryFlowWarning,
    StepFailureError,
    curvature_field,
    evaluate_claims,
    evolve,
    functionals,
    load_snapshot,
    rhs,
    s_derivative,
    save_snapshot,
    sinusoid_profile,
    stable_dt,
    step,
    validate_initial,
)

import metric_oracle
from conftest import TWO_PI, make_profile, random_trig_profile, torus_fuzz_case
from records_reference import reference_records
from rk4_reference import rk4_run, rk4_step

TORUS = BundleKind.TORUS
SPHERE = BundleKind.SPHERE


def steep_profile(n=16):
    x = np.arange(n) * (TWO_PI / n)
    return MetricProfile(n=n, period=TWO_PI, t=0.0, f=np.ones(n), g=1.2 + 1.0 * np.sin(x))


def rkl2_amplification(s, z):
    """RKL2's stability polynomial R_s(z) = a_s + b_s P_s(1 + w1 z), P_s the Legendre polynomial.

    Meyer, Balsara & Aslam 2014; |P_s| <= 1 on [-1, 1] gives the span.
    """
    b_s = (s * s + s - 2) / (2.0 * s * (s + 1))
    legendre_s = np.polynomial.legendre.legval(1.0 + 4.0 / (s * s + s - 2) * z, [0] * s + [1])
    return 1.0 - b_s + b_s * legendre_s


def step_doubling(step_fn, p, dt):
    """Max differences of one step of dt against two of dt/2, and two of dt/2 against four of dt/4."""
    def advance(h, m):
        prof = p
        for _ in range(m):
            prof = step_fn(prof, TORUS, 0.0, h)
        return np.array((prof.f, prof.g))

    y1, y2, y4 = advance(dt, 1), advance(dt / 2, 2), advance(dt / 4, 4)
    return np.max(np.abs(y1 - y2)), np.max(np.abs(y2 - y4))


def record_difference(records, reference):
    """Max |difference| over every field of two record streams with NaN in the same places."""
    a, b = (np.array([dataclasses.astuple(r) for r in recs]) for recs in (records, reference))
    assert np.array_equal(np.isnan(a), np.isnan(b))
    return np.nanmax(np.abs(a - b))


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

    @pytest.mark.parametrize("name, value", [  # None is record_every's default, 0.01 * t_end
        (name, value) for name in ("t_end", "epsilon", "record_every")
        for value in (True, "1.0", None) if (name, value) != ("record_every", None)
    ])
    def test_fields_must_be_numbers(self, name, value):
        # True once stayed a bool and "1.0" raised a bare TypeError from a comparison
        with pytest.raises(FieldError) as err:
            FlowConfig(**{"kind": TORUS, "t_end": 1.0, name: value})
        assert str(err.value) == f"{name} must be a number, got {value!r}"
        assert err.value.keys == (name,)

    def test_numbers_stored_as_floats(self):
        cfg = FlowConfig(kind=TORUS, t_end=2, epsilon=0, record_every=np.float32(0.5))
        assert [type(v) for v in (cfg.t_end, cfg.epsilon, cfg.record_every)] == [float] * 3
        assert FlowConfig(kind=TORUS, t_end=2).record_every == 0.02

    def test_fields(self):
        # the step is set by the stencil's bound and the record gap alone
        names = [f.name for f in dataclasses.fields(FlowConfig)]
        assert names == ["kind", "t_end", "epsilon", "record_every", "tolerances"]


@pytest.mark.parametrize("entry", [
    lambda p: FlowConfig(kind="sphere", t_end=1.0),
    lambda p: validate_initial(p, "sphere"),
    lambda p: rhs(p, "sphere"),
    lambda p: stable_dt(p, "sphere"),
    lambda p: step(p, "sphere", 0.0, 1e-3),
    lambda p: evaluate_claims(np.arange(3.0)[:, None] * np.ones(len(SERIES_FIELDS)), "sphere"),
], ids=["FlowConfig", "validate_initial", "rhs", "stable_dt", "step", "evaluate_claims"])
def test_kind_must_be_a_bundle_kind(entry):
    # a string is not converted: "sphere" once ran the torus flow and its claims
    with pytest.raises(FieldError, match="^kind must be a BundleKind, got 'sphere'$") as err:
        entry(steep_profile())  # sup|g_s| > 1/4, which a sphere run must reject
    assert err.value.keys == ("kind",)


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

    @pytest.mark.parametrize("df_node, dg_node, what, node", [
        (9, None, "df/dt", 9),
        (None, 2, "dg/dt", 2),
        (9, 2, "df/dt", 9),  # df/dt's row is named first, at its own node
    ], ids=["df-only", "dg-only", "both"])
    def test_overflow_names_field_and_node(self, monkeypatch, df_node, dg_node, what, node):
        # w and D w from the slope kernel; at f = 1, g = 2, eps = 0:
        # df/dt = (D w)^2 / 4 and dg/dt = w^2 D w / 4
        n = 16
        w, dxw = np.zeros(n), np.ones(n)
        if df_node is not None:
            dxw[df_node] = 1e200  # (D w)^2 overflows; w^2 D w = 0 there
        if dg_node is not None:
            w[dg_node] = 1e200  # w^2 overflows; D w = 1 keeps df/dt finite
        monkeypatch.setattr(flow_mod, "slope", lambda f, g, dx, w_out, dxw_out: (
            np.copyto(w_out, w), np.copyto(dxw_out, dxw)))
        p = make_profile(n=n, f=1.0, g=2.0, t=1.5)
        with pytest.raises(NumericOverflowError) as caught:
            rhs(p, TORUS, 0.0)
        assert (caught.value.what, caught.value.node, caught.value.t) == (what, node, 1.5)
        assert str(caught.value) == f"non-finite {what} at node {node} (t=1.5)"


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
    def test_default_step_inside_rkl2_region(self, kind, eps, monkeypatch):
        # central-difference Jacobian of the RHS in (f, g). At each (dt, s)
        # that evolve picks from this profile, for record gaps from far
        # below the bound to past the cap, the decaying modes must satisfy
        # |R_s(dt lambda)| <= 1. Modes with Re(lambda) >= 0 are the flow's
        # own slow growth.
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        n, y0 = p.n, np.concatenate((p.f, p.g))

        state = flow_mod._StepState(p, kind, eps)

        def rhs_flat(y):
            out = np.empty((2, n))
            with np.errstate(all="ignore"):
                flow_mod._rhs_arrays(state, y[:n], y[n:], 0.0, out)
            return out.ravel()

        jac = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            h = 1e-6 * y0[j]
            dy = np.zeros(2 * n)
            dy[j] = h
            jac[:, j] = (rhs_flat(y0 + dy) - rhs_flat(y0 - dy)) / (2.0 * h)
        lam = np.linalg.eigvals(jac)
        decaying = lam[lam.real < 0.0]
        assert decaying.size > n // 2

        picks = []  # (dt, s) of every step evolve takes from p
        real_stages = flow_mod._stages

        def spy(dt, bound):
            picks.append((dt, real_stages(dt, bound)))
            return picks[-1][1]

        monkeypatch.setattr(flow_mod, "_stages", spy)
        bound = stable_dt(p, kind, eps)
        for gap in bound * np.geomspace(0.05, 40.0, 30):
            evolve(p, FlowConfig(kind=kind, t_end=gap, epsilon=eps, record_every=gap))
            dt, s = picks[0]
            picks.clear()
            assert np.max(np.abs(rkl2_amplification(s, dt * decaying))) <= 1.0
        # the last gaps ran into the cap
        assert (dt, s) == (flow_mod._span(flow_mod._MAX_STAGES) * bound, flow_mod._MAX_STAGES)


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

        d1, d2 = step_doubling(rk4_step, p, dt)
        assert d1 > 1e-10  # measurable regime
        assert 10.0 < d1 / d2 < 24.0

    def test_second_order_step_doubling(self, monkeypatch):
        # s held at 4 for dt, dt/2 and dt/4, all inside its span of 9 bounds
        monkeypatch.setattr(flow_mod, "_stages", lambda dt, bound: 4)
        p = steep_profile()
        d1, d2 = step_doubling(step, p, 0.1 * stable_dt(p, TORUS))
        assert d1 > 1e-10
        assert 3.0 < d1 / d2 < 5.5

    @pytest.mark.parametrize("s", [2, 3, 6])
    def test_linear_step_is_the_stability_polynomial(self, s, monkeypatch):
        # on y' = lambda (y - 2) the step must multiply y - 2 by R_s(dt lambda)
        lam = -np.geomspace(1e-3, 1.0, 32)  # per unit of stable_dt

        def linear(state, f, g, t, out):
            np.multiply(lam, np.array((f, g)) - 2.0, out=out)

        monkeypatch.setattr(flow_mod, "_rhs_arrays", linear)
        y0 = 2.0 + 0.5 * np.cos(np.arange(32))
        p = MetricProfile(n=32, period=TWO_PI, t=0.0, f=y0, g=y0[::-1].copy())
        dt = flow_mod._span(s)  # the whole span of s stages at a bound of 1
        state = flow_mod._StepState(p, TORUS, 0.0)
        state.k0[:] = lam * (np.array((p.f, p.g)) - 2.0)
        state.bound = 1.0
        out = step(p, TORUS, 0.0, dt, state)
        amp = rkl2_amplification(s, dt * lam)
        assert np.allclose(out.f - 2.0, amp * (p.f - 2.0), rtol=0.0, atol=1e-14)
        assert np.allclose(out.g - 2.0, amp * (p.g - 2.0), rtol=0.0, atol=1e-14)

    def test_rejects_nonpositive_dt(self, profile_a):
        with pytest.raises(ValueError):
            step(profile_a, TORUS, 0.0, 0.0)
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
                step(profile_a, TORUS, 0.0, dt)

    def test_positivity_failure(self, profile_a):
        with pytest.raises(StepFailureError):
            step(profile_a, TORUS, 0.0, 1e8)

    def test_positivity_failure_names_field_and_node(self, profile_a):
        # dt = 1e8 takes the capped stage count; Y_1 = Y_0 + mu~_1 dt L(Y_0) already
        # loses positivity, and the error names Y_1's smallest entry
        y1 = np.array((profile_a.f, profile_a.g)) + (
            flow_mod._rkl2_coefficients(flow_mod._MAX_STAGES)[0] * 1e8
            * np.array(rhs(profile_a, TORUS, 0.0)))
        row, node = divmod(int(np.argmin(y1)), profile_a.n)
        assert y1[row, node] <= 0.0
        with pytest.raises(StepFailureError) as caught:
            step(profile_a, TORUS, 0.0, 1e8)
        assert str(caught.value).endswith(
            f"failed: positivity lost at an internal stage: {'fg'[row]} at node {node}")
        assert (caught.value.field, caught.value.node) == ("fg"[row], node)

    def test_public_steps_share_no_memory(self, profile_a, kind):
        dt = stable_dt(profile_a, kind)
        first = step(profile_a, kind, 0.0, dt)
        f, g = first.f.copy(), first.g.copy()
        second = step(profile_a, kind, 0.0, dt)
        for new in (second.f, second.g):
            for old in (first.f, first.g):
                assert not np.shares_memory(new, old)
        assert first.f.tobytes() == f.tobytes() == second.f.tobytes()
        assert first.g.tobytes() == g.tobytes() == second.g.tobytes()

    def test_nonfinite_result_is_a_step_failure(self, profile_a, monkeypatch):
        def huge(state, f, g, t, out):
            out[:] = 1e308  # finite slopes that carry y0 + dt * 1e308 past the largest float

        monkeypatch.setattr(flow_mod, "_rhs_arrays", huge)
        with pytest.raises(StepFailureError):
            step(profile_a, TORUS, 0.0, 10.0)

    def test_result_shares_no_memory_with_input(self, profile_a, kind):
        out = step(profile_a, kind, 0.0, stable_dt(profile_a, kind))
        for new in (out.f, out.g):
            for old in (profile_a.f, profile_a.g):
                assert not np.shares_memory(new, old)


class TestEvolve:
    @pytest.mark.parametrize("kind, eps", [(SPHERE, 0.0), (TORUS, 1e-2)])
    def test_default_step_resolves_time(self, kind, eps):
        # every record within 5% of the grid difference of RK4 at the bound
        cfg = FlowConfig(kind=kind, t_end=1.0, epsilon=eps)
        p = sinusoid_profile(128, TWO_PI, 2.0, 0.1, 1)
        records = []
        _, summary = evolve(p, cfg, sink=lambda r, _: records.append(r))
        assert len(records) == 101
        time_ref, _, rk4_steps = rk4_run(p, cfg)
        grid_ref, _, _ = rk4_run(sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1), cfg)
        # one RKL2 step per record gap; RK4 needs two on the sphere, whose
        # bound is below the gap, and one on the torus, whose bound exceeds it
        assert (summary.steps, rk4_steps) == (100, 200 if kind is SPHERE else 100)
        time_error = record_difference(records, time_ref)
        assert time_error <= 0.05 * record_difference(time_ref, grid_ref)

    def test_step_bound_torus_resolves_time(self):
        # gaps of 0.5 against a bound of 0.48: RKL2 spans each gap with one
        # 2-stage step, RK4 needs two steps; the time error must stay within
        # 5% of the grid difference of the same records
        cfg = FlowConfig(kind=TORUS, t_end=2.0, epsilon=1e-2, record_every=0.5)
        p = sinusoid_profile(128, TWO_PI, 2.0, 0.1, 1)
        records = []
        _, summary = evolve(p, cfg, sink=lambda r, _: records.append(r))
        time_ref, _, rk4_steps = rk4_run(p, cfg)
        grid_ref, _, _ = rk4_run(sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1), cfg)
        assert (summary.steps, rk4_steps) == (4, 8)
        time_error = record_difference(records, time_ref)
        assert time_error <= 0.05 * record_difference(time_ref, grid_ref)

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

    @pytest.mark.parametrize("capped", [False, True], ids=["gap", "cap"])
    def test_capped_step_rounding_onto_record_time_is_recorded(self, monkeypatch, capped):
        # at t = 2^20, record gap 0.5: with stable_dt = 0.5 - 2^-40 every step is the
        # whole gap (dt = min(gap, 20 stable_dt)) and lands by dt == gap; with stable_dt
        # divided by the cap's span of 20 the cap sets dt just below 0.5, and t + dt
        # rounds onto the record time
        span = flow_mod._span(flow_mod._MAX_STAGES)
        bound = (0.5 - 2.0**-40) / (span if capped else 1.0)
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: bound)
        real_step, steps = flow_mod.step, []

        def spy(profile, kind, epsilon, dt, start=None):
            steps.append(dt)
            return real_step(profile, kind, epsilon, dt, start)

        monkeypatch.setattr(flow_mod, "step", spy)
        t0 = 2.0**20
        cfg = FlowConfig(kind=TORUS, t_end=t0 + 1.5, record_every=0.5)
        records = []
        with pytest.warns(StationaryFlowWarning):
            evolve(make_profile(n=64, g=2.0, t=t0), cfg, sink=lambda r, _: records.append(r.t))
        assert records == [t0, t0 + 0.5, t0 + 1.0, t0 + 1.5]
        assert len(steps) == 3
        if capped:
            assert all(0.5 - 2.0**-33 < dt < 0.5 for dt in steps)
        else:
            assert all(dt == 0.5 for dt in steps)

    def test_step_short_of_t_end_by_rounding_lands(self, monkeypatch):
        # the one step falls 5e-13 short of t_end, inside the tolerance: it must
        # land on t_end and be recorded, not end the run unrecorded
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: (1.0 - 5e-13) / 20)
        cfg = FlowConfig(kind=TORUS, t_end=1.0, record_every=1.0)
        records = []
        final, summary = evolve(sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1), cfg,
                                sink=lambda r, _: records.append(r.t))
        assert records == [0.0, 1.0]
        assert final.t == 1.0
        assert summary.steps == 1

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

    def test_failing_step_reports_its_start_time(self, profile_a, monkeypatch):
        # no step is retried: the first step's own error leaves evolve, and the run stops
        real_step, steps = flow_mod.step, []

        def counted(*args):
            steps.append(args[0].t)
            return real_step(*args)

        monkeypatch.setattr(flow_mod, "step", counted)
        monkeypatch.setattr(flow_mod, "_rhs_arrays", sinking_stage(0))
        cfg = FlowConfig(kind=TORUS, t_end=0.1, record_every=0.05)
        with pytest.raises(StepFailureError, match=r"from t=0\.0 failed") as caught:
            evolve(profile_a, cfg)
        assert steps == [0.0]
        assert caught.value.t == 0.0 and caught.value.__cause__ is None

    def test_failing_step_names_field_and_node(self, profile_a, monkeypatch):
        # a 4-stage step (dt = 8 stable_dt) whose second stage slope sinks g at node 5:
        # the check of the stage that slope makes finds it
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: 0.1 / 8)
        monkeypatch.setattr(flow_mod, "_rhs_arrays", sinking_stage(1))
        cfg = FlowConfig(kind=TORUS, t_end=0.1, record_every=0.1)
        with pytest.raises(StepFailureError) as caught:
            evolve(profile_a, cfg)
        assert str(caught.value).endswith(
            "from t=0.0 failed: positivity lost at an internal stage: g at node 5")
        # kept on the error itself for a caller and for pickling
        assert (caught.value.field, caught.value.node) == ("g", 5)

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


class TestNextRecordIndex:
    def test_grid_time(self):
        assert flow_mod.next_record_index(0.3, 0.1) == 4  # 3 * 0.1 is 0.30000000000000004
        assert flow_mod.next_record_index(0.5, 0.25) == 3
        assert flow_mod.next_record_index(0.0, 0.25) == 1

    def test_just_below_a_grid_time(self):
        # within 1e-12 * max(1, |T|) below T = 2.0 counts as at it; further below, before it
        assert flow_mod.next_record_index(2.0 - 1e-12, 0.5) == 5
        assert flow_mod.next_record_index(2.0 - 1e-6, 0.5) == 4

    def test_long_horizon(self):
        # t / every rounds below the index of t itself here
        assert flow_mod.next_record_index(0.07 * 2.6e8, 0.07) == 260000001

    def test_infinite_every_is_never_reached(self):
        assert flow_mod.next_record_index(1e300, math.inf) == 1


class TestStageCap:
    def test_time_error_within_grid_difference(self, monkeypatch):
        # sphere-converge's run: profile B to t=9.2 at a record gap of 0.1. At
        # n=256 the RKL2 end state must lie within 5% of RK4's n=128 -> 256
        # difference from RK4 on the same grid, in max|g| and in L: about 20%
        # of the 256 -> 512 difference, as the refinement ratio is 4.0. At a
        # fixed cap the time error falls as dx^4 and the grid difference as
        # dx^2, so finer grids only gain. The cap is the largest that meets
        # this: one stage more fails.
        cfg = FlowConfig(kind=SPHERE, t_end=9.2, record_every=0.1)

        def end_state(final):
            return final.g, functionals([final], SPHERE)[0].L

        (g128, L128), (g256, L256) = (
            end_state(rk4_run(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg)[1]) for n in (128, 256)
        )
        grid_g, grid_L = np.max(np.abs(g256[::2] - g128)), abs(L256 - L128)

        def ratios():
            final, _ = evolve(sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1), cfg)
            g, L = end_state(final)
            return np.max(np.abs(g - g256)) / grid_g, abs(L - L256) / grid_L

        assert max(ratios()) <= 0.05
        monkeypatch.setattr(flow_mod, "_MAX_STAGES", flow_mod._MAX_STAGES + 1)
        assert max(ratios()) > 0.05


def run_both_ways(profile, cfg):
    """([(record repr, profile)], final profile, summary, functionals batch sizes) of
    `evolve` batched (no stop_when) and one record at a time (a stop_when that never stops);
    either way, made in the arena of the steps, every record is that of the expression form."""
    runs = []
    for stop_when in (None, lambda rec: False):
        seen, sizes = [], []

        def counted(profiles, kind, work=None):
            sizes.append(len(profiles))
            return functionals(profiles, kind, work)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_mod, "functionals", counted)
            final, summary = evolve(
                profile, cfg, sink=lambda rec, prof: seen.append((repr(rec), prof)),
                stop_when=stop_when,
            )
        want = reference_records([prof for _, prof in seen], cfg.kind)
        assert [rec for rec, _ in seen] == [repr(rec) for rec in want]
        runs.append((seen, final, summary, sizes))
    return runs


def assert_same_run(batched, single):
    (seen_b, final_b, summary_b, _), (seen_s, final_s, summary_s, sizes_s) = batched, single
    assert [rec for rec, _ in seen_b] == [rec for rec, _ in seen_s]
    for (_, a), (_, b) in zip(seen_b, seen_s):
        assert a.t == b.t and np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)
    assert final_b.t == final_s.t
    assert np.array_equal(final_b.f, final_s.f) and np.array_equal(final_b.g, final_s.g)
    assert summary_b == summary_s
    assert set(sizes_s) == {1}


class TestRecordBatches:
    @pytest.mark.parametrize("n, batch", [(64, 64), (256, 16)])
    @pytest.mark.parametrize("kind, eps", [(TORUS, 0.0), (TORUS, 1e-2), (SPHERE, 0.0)])
    def test_batched_equals_one_at_a_time(self, kind, eps, n, batch):
        # 101 records: not a multiple of the batch size, so the last batch is partial
        cfg = FlowConfig(kind=kind, t_end=1.0, epsilon=eps)
        batched, single = run_both_ways(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg)
        assert_same_run(batched, single)
        assert len(batched[0]) == 101
        assert batched[3] == [batch] * (101 // batch) + [101 % batch]

    def test_batch_size_at_n_2048(self):
        cfg = FlowConfig(kind=TORUS, t_end=0.5, epsilon=1e-2, record_every=0.1)
        batched, single = run_both_ways(sinusoid_profile(2048, TWO_PI, 2.0, 0.1, 1), cfg)
        assert_same_run(batched, single)
        assert batched[3] == [2, 2, 2]

    def test_resume_from_mid_run_snapshot(self, kind, tmp_path):
        cfg = FlowConfig(kind=kind, t_end=1.0, epsilon=1e-2)
        full = run_both_ways(sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1), cfg)
        assert_same_run(*full)
        seen = full[0][0]
        mid = 37  # t = 0.37, inside the first batch of 64 records
        save_snapshot(seen[mid][1], tmp_path / "snap.json")
        resumed = run_both_ways(load_snapshot(tmp_path / "snap.json"), cfg)
        assert_same_run(*resumed)
        assert [rec for rec, _ in resumed[0][0]] == [rec for rec, _ in seen[mid:]]

    @pytest.mark.parametrize("f_bad, what", [(1e-120, "record field E2"),
                                             (1e-200, "curvature component w_s at node")])
    def test_overflowing_record_in_a_batch(self, monkeypatch, f_bad, what):
        # every step lands on the next record time; the one onto t = 0.02
        # collapses f, so the third record overflows
        good = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)

        def fake_step(profile, kind, epsilon, dt, start=None):
            t = profile.t + dt
            f = np.full(256, f_bad) if t == pytest.approx(0.02) else good.f
            return MetricProfile(256, TWO_PI, t, f, good.g)

        monkeypatch.setattr(flow_mod, "step", fake_step)
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: math.inf)
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.01)
        outcomes = []
        for stop_when in (None, lambda rec: False):
            seen = []
            with pytest.raises(NumericOverflowError) as caught:
                evolve(good, cfg, sink=lambda rec, prof: seen.append((repr(rec), prof)),
                       stop_when=stop_when)
            outcomes.append(([prof.t for _, prof in seen], str(caught.value)))
            # the good records, made one at a time in the arena after the batch failed
            want = reference_records([prof for _, prof in seen], TORUS)
            assert [rec for rec, _ in seen] == [repr(rec) for rec in want]
        bad = MetricProfile(256, TWO_PI, 0.02, np.full(256, f_bad), good.g)
        with pytest.raises(NumericOverflowError) as alone:
            functionals([bad], TORUS)
        assert what in str(alone.value)
        assert outcomes == [([0.0, 0.01], str(alone.value))] * 2

    @pytest.mark.parametrize("kind", [TORUS, SPHERE])
    def test_first_bad_row_raises_its_own_error(self, kind):
        rows = [sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1) for _ in range(4)]
        rows = [dataclasses.replace(p, t=0.1 * i) for i, p in enumerate(rows)]
        e2_row = dataclasses.replace(rows[2], f=np.full(64, 1e-120))
        w_s_row = dataclasses.replace(rows[3], f=np.full(64, 1e-200))
        for stack in ([rows[0], rows[1], e2_row, w_s_row], [rows[0], rows[1], w_s_row, e2_row]):
            with pytest.raises(NumericOverflowError) as alone:
                functionals([stack[2]], kind)
            with pytest.raises(NumericOverflowError) as batched:
                functionals(stack, kind)
            assert str(batched.value) == str(alone.value)

    def test_step_failure_flushes_pending_records(self, profile_a, monkeypatch):
        real_step = flow_mod.step

        def failing(profile, kind, epsilon, dt, start=None):
            if profile.t >= 0.5:
                raise StepFailureError(profile.t, dt)
            return real_step(profile, kind, epsilon, dt, start)

        monkeypatch.setattr(flow_mod, "step", failing)
        cfg = FlowConfig(kind=TORUS, t_end=1.0, record_every=0.01)
        outcomes = []
        for stop_when in (None, lambda rec: False):
            seen = []
            with pytest.raises(StepFailureError) as caught:
                evolve(profile_a, cfg, sink=lambda rec, _: seen.append(repr(rec)),
                       stop_when=stop_when)
            outcomes.append((seen, str(caught.value)))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == 51  # t = 0, 0.01, ..., 0.5: three past the last full batch
        assert "from t=0.5 failed" in outcomes[0][1]


def rate_dt(profile, kind, eps):
    """`flow._rate_dt` spelled with the public `rhs`: the rate span over the largest
    max |L| / min y of the two rows, or inf where L vanishes."""
    rate = max(np.max(np.abs(slope)) / np.min(y)
               for slope, y in zip(rhs(profile, kind, eps), (profile.f, profile.g)))
    return flow_mod._RATE_SPAN / rate if rate > 0.0 else math.inf


def public_steps(profile, cfg):
    """(record reprs, final profile, RunSummary) of `evolve`'s loop spelled with the
    public `rhs`, `stable_dt` and `step`, which take no step state and allocate every buffer."""
    kind, eps, every, t_end = cfg.kind, cfg.epsilon, cfg.record_every, cfg.t_end
    landed, summary = [profile], flow_mod.RunSummary()
    k, span = flow_mod.next_record_index(profile.t, every), flow_mod._span(flow_mod._MAX_STAGES)
    while not flow_mod._reached(profile.t, t_end):
        target = min(k * every, t_end)
        dt = min(target - profile.t, span * stable_dt(profile, kind, eps),
                 rate_dt(profile, kind, eps))
        advanced = step(profile, kind, eps, dt)
        summary.steps += 1
        if flow_mod._reached(advanced.t, target):
            profile = MetricProfile._trusted(advanced.n, advanced.period, target,
                                             advanced.f, advanced.g)
            landed.append(profile)
            k += 1
        else:
            profile = advanced
    summary.records, summary.t_final = len(landed), profile.t
    return [repr(rec) for rec in functionals(landed, kind)], profile, summary


def sinking_stage(at):
    """An `_rhs_arrays` that sinks g at node 5 in the at-th stage slope of every step, so
    that a step past ~1e-9 loses positivity there. The start's slope, whose out has 3 rows,
    stays true: spoilt, it would shrink the step's rate bound to ~1e-10."""
    real, stage = flow_mod._rhs_arrays, []

    def rhs_arrays(state, f, g, t, out):
        real(state, f, g, t, out)
        if len(out) == 3:
            stage.clear()
            return
        stage.append(t)
        if len(stage) - 1 == at:
            out[1, 5] = -1e10

    return rhs_arrays


# (kind, eps, record gaps per run, record gap in units of the initial stable_dt, or None
# for a gap of 0.01)
STATE_CASES = [
    (TORUS, 0.0, 50, None),  # record-bound: one step per record gap
    (TORUS, 1e-2, 20, 2.5 * flow_mod._span(flow_mod._MAX_STAGES)),  # step-bound
    (SPHERE, 0.0, 20, 2.5 * flow_mod._span(flow_mod._MAX_STAGES)),  # at the stage cap
]
STATE_IDS = ["torus-record-bound", "torus-step-bound", "sphere-cap"]


class TestStepState:
    """`evolve` steps in one state per run; its outputs are those of stateless public calls."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("kind, eps, gaps, units", STATE_CASES, ids=STATE_IDS)
    def test_evolve_is_a_loop_of_public_steps(self, n, kind, eps, gaps, units):
        p = sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)
        every = 0.01 if units is None else units * stable_dt(p, kind, eps)
        cfg = FlowConfig(kind=kind, t_end=gaps * every, epsilon=eps, record_every=every)
        seen = []
        final, summary = evolve(p, cfg, sink=lambda rec, _: seen.append(repr(rec)))
        want, want_final, want_summary = public_steps(p, cfg)
        assert summary == want_summary
        assert summary.records == gaps + 1
        if units is None:
            assert summary.steps == gaps  # one step per record gap
        else:
            assert summary.steps >= 2 * gaps  # the bound, not the gap, sets dt
        assert seen == want
        assert final.t == want_final.t
        assert final.f.tobytes() == want_final.f.tobytes()
        assert final.g.tobytes() == want_final.g.tobytes()

    @pytest.mark.parametrize("kind, eps, gaps, units", STATE_CASES, ids=STATE_IDS)
    @pytest.mark.parametrize("way", ["landed", "sink", "sink-one-at-a-time"])
    def test_no_landed_array_is_written_later(self, kind, eps, gaps, units, way):
        # at n = 256 a batch of records holds 16 landings, so the sink sees the first
        # batch while later steps are still to come
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)
        every = 0.01 if units is None else units * stable_dt(p, kind, eps)
        cfg = FlowConfig(kind=kind, t_end=gaps * every, epsilon=eps, record_every=every)
        arrived = []  # each landed profile with f and g as they arrived

        def keep(prof):
            arrived.append((prof, prof.f.copy(), prof.g.copy()))

        if way == "landed":
            final, _ = evolve(p, cfg, landed=keep)
        else:
            stop_when = (lambda rec: False) if way == "sink-one-at-a-time" else None
            final, _ = evolve(p, cfg, sink=lambda rec, prof: keep(prof), stop_when=stop_when)
        assert len(arrived) == gaps + 1 and arrived[-1][0] is final
        for prof, f, g in arrived:
            assert np.array_equal(prof.f, f) and np.array_equal(prof.g, g)

    @pytest.mark.parametrize("field", ["f", "g"])
    @pytest.mark.parametrize("way", ["landed", "sink"])
    def test_writing_into_a_landed_profile_raises(self, way, field):
        # every landing after the start is a step's read-only result, which the next
        # step takes as its Y0 unchecked: a write raises instead of changing that step
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.05, record_every=0.01)
        seen = []

        def write(prof):
            seen.append(prof.t)
            if prof is not p:
                getattr(prof, field)[3] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            if way == "landed":
                evolve(p, cfg, landed=write)
            else:  # one record per landing, right after its step
                evolve(p, cfg, sink=lambda rec, prof: write(prof), stop_when=lambda rec: False)
        assert seen == [0.0, 0.01]

    def test_step_checks_a_profile_it_did_not_make(self):
        # Y0 goes unchecked only when it is the state's own last result
        good = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        f = good.f.copy()
        f[5] = 0.0
        bad = MetricProfile._trusted(good.n, good.period, 0.0, f, good.g)
        state = flow_mod._StepState.started(good, TORUS, 0.0)
        with pytest.raises(StepFailureError) as caught:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step(bad, TORUS, 0.0, 0.5 * state.bound, state)
        assert str(caught.value).endswith(
            "failed: positivity lost at an internal stage: f at node 5")
        assert (caught.value.field, caught.value.node) == ("f", 5)

    @pytest.mark.parametrize("s", range(2, 7))
    def test_only_the_second_stage_has_no_y0_weight(self, s):
        # 1 - mu_j - nu_j is exactly 0 at j = 2, so step skips that term there only
        _, rows = flow_mod._rkl2_coefficients(s)
        weights = [1.0 - float(mu) - float(nu) for mu, nu, *_ in rows]
        assert [w == 0.0 for w in weights] == [True] + [False] * (s - 2)
        assert [c0 is None for _, _, c0, _, _ in rows] == [True] + [False] * (s - 2)
        assert all(float(row[2]) == w for row, w in zip(rows[1:], weights[1:]))

    @pytest.mark.parametrize("kind, units, gaps", [
        pytest.param(TORUS, None, 1, id="torus-record-bound"),
        pytest.param(SPHERE, 2.5, 1, id="sphere-capped"),
        pytest.param(TORUS, None, 50, id="torus-dense", marks=pytest.mark.one_cpu),
    ])
    def test_evolve_calls_each_traced_name(self, monkeypatch, kind, units, gaps):
        # the benchmark's tracer wraps step, _rhs_arrays and stable_dt by name and reads
        # dt as step's 4th positional argument: evolve must call each of them per step
        # or per RHS evaluation through flow's module globals. A dense run (landing on
        # every 50th record time) evaluates each step's end once, for its interpolants
        # and the next step's start, and the last step's end once more
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        span = flow_mod._span(flow_mod._MAX_STAGES)
        every = 0.002 if units is None else units * span * stable_dt(p, kind)
        cfg = FlowConfig(kind=kind, t_end=10 * gaps * every, record_every=every)
        last_end = 1 if gaps > 1 else 0
        calls = {"step": [], "_rhs_arrays": 0, "stable_dt": 0, "_stages": []}
        real = {name: getattr(flow_mod, name) for name in calls}

        def step_spy(*args):
            advanced = real["step"](*args)
            calls["step"].append(advanced.t == args[0].t + args[3])  # the dt of this step
            return advanced

        def counting(name):
            def spy(*args):
                calls[name] += 1
                return real[name](*args)
            return spy

        def stages_spy(*args):
            calls["_stages"].append(real["_stages"](*args))
            return calls["_stages"][-1]

        monkeypatch.setattr(flow_mod, "step", step_spy)
        monkeypatch.setattr(flow_mod, "_rhs_arrays", counting("_rhs_arrays"))
        monkeypatch.setattr(flow_mod, "stable_dt", counting("stable_dt"))
        monkeypatch.setattr(flow_mod, "_stages", stages_spy)
        _, summary = evolve(p, cfg, landing_gaps=gaps)
        assert summary.steps >= 10
        assert len(calls["step"]) == summary.steps and all(calls["step"])
        assert calls["stable_dt"] == summary.steps + last_end
        stages = calls["_stages"]
        assert len(stages) == summary.steps
        assert calls["_rhs_arrays"] == summary.steps + last_end + sum(s - 1 for s in stages)
        if units is None:
            assert set(stages) == {2}
            assert calls["_rhs_arrays"] == 2 * summary.steps + last_end
        else:
            assert max(stages) > 2


def stage_values(s, z, slope):
    """The values of s-stage RKL2's stages Y_1 ... Y_s at Y_0 = 1 and dt L(Y_0) = z, with
    slope(y) the stages' own dt L(y) / z."""
    mu_1, rows = flow_mod._rkl2_coefficients(s)
    prev2, prev = 1.0, 1.0 + mu_1 * z
    values = [prev]
    for mu, nu, c0, mu_w, gamma_w in rows:
        y = (float(mu) * prev + float(nu) * prev2 + (0.0 if c0 is None else float(c0))
             + mu_w * z * slope(prev) + gamma_w * z)
        prev2, prev = prev, y
        values.append(y)
    return np.array(values)


class TestRateBound:
    """A step spans at most _RATE_SPAN / R, R the largest relative rate of f or g at its
    start, so that its stages keep f and g positive without a retry."""

    def test_rate_span_is_below_every_stage_limit(self):
        # stable_dt's derivation: a growing row whose stage rates are zero stays positive up
        # to z = dt L(Y_0) / Y_0 = z*(s); the stages are linear in z, so z* is a root
        limits = []
        for s in range(2, flow_mod._MAX_STAGES + 1):
            at_one = stage_values(s, 1.0, lambda y: 0.0) - 1.0  # each stage's slope in z
            limits.append(min(-1.0 / d for d in at_one if d < 0.0))
        assert limits == pytest.approx([2.0, 0.923, 0.787, 0.755, 0.752], abs=5e-4)
        assert flow_mod._RATE_SPAN <= min(limits)

    @pytest.mark.parametrize("s", range(2, 7))
    def test_decaying_row_stays_positive_over_the_stable_span(self, s):
        # a row that decays at its start rate, L = -y: every stage stays positive for dt r
        # up to the span, >= 2, above the rate span
        spans = np.linspace(0.0, flow_mod._span(s), 201)
        assert min(stage_values(s, -z, lambda y: y).min() for z in spans) > 0.0

    def test_fixed_case_that_lost_positivity(self, monkeypatch):
        # draw 197 of seed 12 of the torus fuzz (n = 64, eps 1e-3, min g 0.054): steps of up
        # to 20 stable_dt drove g negative, and halving them failed from t = 3.4e-5 on, at
        # node 9 with dt down to 2.4e-14. The rate bound sets the first step's dt, and the
        # run reaches t_end without a failure
        rng = np.random.default_rng(12)
        for _ in range(197):
            torus_fuzz_case(rng)
        p, cfg = torus_fuzz_case(rng)
        assert (p.n, cfg.epsilon) == (64, 1e-3)
        rates, steps = [], []
        real_rate, real_step = flow_mod._rate_dt, flow_mod.step

        def rate_spy(*args):
            rates.append(real_rate(*args))
            return rates[-1]

        def step_spy(*args):
            steps.append(args[3])
            return real_step(*args)

        monkeypatch.setattr(flow_mod, "_rate_dt", rate_spy)
        monkeypatch.setattr(flow_mod, "step", step_spy)
        seen = []
        final, summary = evolve(p, cfg, sink=lambda rec, _: seen.append(repr(rec)))
        assert flow_mod._reached(final.t, cfg.t_end) and summary.records == 11
        assert steps[0] == rates[0] < 20 * stable_dt(p, TORUS, cfg.epsilon)
        monkeypatch.undo()
        want, want_final, want_summary = public_steps(p, cfg)  # the rate term spelled apart
        assert (seen, summary) == (want, want_summary)
        assert final.g.tobytes() == want_final.g.tobytes()

    def test_torus_fuzz_keeps_positivity(self):
        # 150 harsh torus draws; no step may fail
        rng = np.random.default_rng(27)
        for _ in range(150):
            p, cfg = torus_fuzz_case(rng, sizes=(32, 64))
            final, _ = evolve(p, cfg)
            assert flow_mod._reached(final.t, cfg.t_end)


@pytest.mark.one_cpu
class TestArena:
    """`evolve` makes its records in the arena of its steps, between them."""

    def test_steps_after_the_first_allocate_only_their_result(self, monkeypatch):
        # every step lands, and a batch of two records is made after every second
        # one; the span from a step's start to its result allocates that result
        n = 2048
        real_begin, real_step = flow_mod._StepState.begin, flow_mod.step
        held, peaks = [], []

        def begin(state, profile):
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            real_begin(state, profile)

        def measured_step(*args):
            advanced = real_step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])
            return advanced

        monkeypatch.setattr(flow_mod._StepState, "begin", begin)
        monkeypatch.setattr(flow_mod, "step", measured_step)
        cfg = FlowConfig(kind=TORUS, t_end=0.2, epsilon=1e-2, record_every=0.01)
        tracemalloc.start()
        try:
            _, summary = evolve(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg,
                                sink=lambda rec, prof: None)
        finally:
            tracemalloc.stop()
        assert (summary.steps, summary.records, len(peaks)) == (20, 21, 20)
        # the first step stacks the start profile; the rest start from the last result.
        # A result is (2, n) floats; a few objects of the interpreter come with it
        assert all(peak < 2 * n * 8 + 4096 for peak in peaks[1:])

    @pytest.mark.parametrize("n, batch", [(256, 15), (2048, 1)])
    def test_dense_run_takes_its_kept_rows_from_the_records(self, monkeypatch, n, batch):
        # K > 1 keeps L at a step's two ends in 4 rows of the arena that the records do
        # not write: its batches hold one record fewer than a record-bound run's, and its
        # arena is no larger
        init, arenas, sizes = flow_mod._StepState.__init__, [], []

        def spy_init(state, profile, kind, epsilon, arena=None):
            arenas.append(arena.size)
            init(state, profile, kind, epsilon, arena)

        def counted(profiles, kind, work=None):
            sizes[-1].append(len(profiles))
            return functionals(profiles, kind, work)

        monkeypatch.setattr(flow_mod._StepState, "__init__", spy_init)
        monkeypatch.setattr(flow_mod, "functionals", counted)
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.005)  # 41 records
        for gaps in (1, 10):
            sizes.append([])
            evolve(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg, sink=lambda rec, prof: None,
                   landing_gaps=gaps)
        assert arenas[1] <= arenas[0]
        for rows, got in zip((batch + 1, batch), sizes):
            assert got == [rows] * (41 // rows) + ([41 % rows] if 41 % rows else [])


def series_array(records):
    """The records' series values as a (records, fields) float array."""
    return np.array([[float(v) for v in _series_values(rec)] for rec in records])


def torus_cli_run(n, gaps):
    """The series array and summary of torus-cli's setup at grid size n and landing_gaps."""
    cfg = FlowConfig(kind=TORUS, t_end=6.0, record_every=0.002)
    records = []
    _, summary = evolve(sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1), cfg,
                        sink=lambda rec, prof: records.append(rec), landing_gaps=gaps)
    return series_array(records), summary


@pytest.mark.one_cpu
class TestDenseOutput:
    """Steps land every K record gaps; the records between are interpolated by cubic Hermite."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_within_the_grid_difference_of_the_record_bound_run(self, n):
        # torus-cli's setup, which xcf run steps on its 0.1 snapshot grid (K = 50): every
        # series field of the dense run lies within 1e-2 of the record-bound run's
        # n/2 -> n grid difference. g_max and g_min, which the flow keeps, and t and
        # zero_count lie as close as the record-bound run at n allows
        coarse, _ = torus_cli_run(n // 2, 1)
        fine, fine_summary = torus_cli_run(n, 1)
        dense, summary = torus_cli_run(n, 50)
        assert (fine_summary.steps, summary.steps, summary.records) == (3000, 60, 3001)
        grid = np.max(np.abs(fine - coarse), axis=0)
        deviation = np.max(np.abs(dense - fine), axis=0)
        conserved = [SERIES_FIELDS.index(name) for name in ("g_max", "g_min")]
        exact = [SERIES_FIELDS.index(name) for name in ("t", "zero_count")]
        assert np.all(deviation[conserved] <= 1e-12)
        assert np.array_equal(dense[:, exact], fine[:, exact])
        rest = [i for i in range(len(SERIES_FIELDS)) if i not in conserved + exact]
        assert np.all(grid[rest] > 0.0)
        assert np.all(deviation[rest] <= 1e-2 * grid[rest])

    @pytest.mark.parametrize("gaps", [4, math.inf])
    def test_landed_states_are_those_of_the_landing_grid(self, kind, gaps):
        # a dense run's landings are the states of a record-bound run whose records are
        # its landings (binary fractions, so that both runs have the same times); what
        # lies between them is no step's start
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=kind, t_end=1.0, record_every=0.0625)
        seen = []
        final, summary = evolve(p, cfg, sink=lambda rec, prof: seen.append(prof),
                                landing_gaps=gaps)
        want = []
        evolve(p, dataclasses.replace(cfg, record_every=0.0625 * min(gaps, 16)),
               sink=lambda rec, prof: want.append(prof))
        assert summary.records == len(seen) == 17
        assert [prof.t for prof in seen] == [k * 0.0625 for k in range(17)]
        assert [prof.t for prof in seen[::min(gaps, 16)]] == [prof.t for prof in want]
        for got, prof in zip(seen[::min(gaps, 16)], want):
            assert got.f.tobytes() == prof.f.tobytes() and got.g.tobytes() == prof.g.tobytes()
        assert final.g.tobytes() == want[-1].g.tobytes()

    def test_hermite_is_exact_on_cubics(self):
        # y(t) = a + b t + c t^2 + d t^3 with its exact slopes at the two ends
        n, t0, dt = 8, 0.3, 0.25
        rng = np.random.default_rng(5)
        a, b, c, d = rng.uniform(0.5, 1.5, (4, 2, n))

        def y(t):
            return a + t * (b + t * (c + t * d))

        def slope(t):
            return b + t * (2.0 * c + t * 3.0 * d)

        scratch = np.empty((2, n))
        for theta in (0.0, 0.2, 0.5, 0.9, 1.0):
            got = flow_mod._hermite(y(t0), y(t0 + dt), slope(t0), slope(t0 + dt), theta, dt,
                                    scratch)
            assert not got.flags.writeable
            np.testing.assert_allclose(got, y(t0 + theta * dt), rtol=1e-13)

    def test_landed_and_sink_paths_see_the_same_profiles(self):
        # the sink path makes its records in the arena of the steps, between them, and
        # keeps at its head L at the two ends of the step it interpolates; landed makes none
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.5, record_every=0.002)
        by_sink, by_landed = [], []
        final_s, summary_s = evolve(p, cfg, sink=lambda rec, prof: by_sink.append(prof),
                                    landing_gaps=50)
        final_l, summary_l = evolve(p, cfg, landed=by_landed.append, landing_gaps=50)
        assert summary_s == summary_l
        assert (summary_s.steps, summary_s.records) == (5, 251)
        assert [prof.t for prof in by_sink] == [prof.t for prof in by_landed]
        for a, b in zip(by_sink, by_landed):
            assert a.f.tobytes() == b.f.tobytes() and a.g.tobytes() == b.g.tobytes()
        assert final_s.g.tobytes() == final_l.g.tobytes()

    @pytest.mark.parametrize("landed", [False, True], ids=["sink", "landed"])
    def test_every_interpolant_takes_l0_from_one_buffer(self, monkeypatch, landed):
        # L at the start of a step that passes over records moves into the state's l0 in
        # place, on both paths: a run makes no copy of it per step
        hermite, slopes = flow_mod._hermite, []

        def spy(y0, y1, l0, *args):
            slopes.append(l0)  # held: a fresh copy per step could not take a freed one's id
            return hermite(y0, y1, l0, *args)

        monkeypatch.setattr(flow_mod, "_hermite", spy)
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.5, record_every=0.002)
        if landed:
            _, summary = evolve(p, cfg, landed=lambda prof: None, landing_gaps=50)
        else:
            _, summary = evolve(p, cfg, sink=lambda rec, prof: None, landing_gaps=50)
        assert (summary.steps, len(slopes)) == (5, 245)
        assert all(l0 is slopes[0] for l0 in slopes)

    def test_reruns_and_resumes_are_bit_identical(self, tmp_path):
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.4, epsilon=1e-2, record_every=0.004)

        def run(start):
            records = []
            evolve(start, cfg, sink=lambda rec, prof: records.append((repr(rec), prof)),
                   landing_gaps=25)
            return records

        first, again = run(p), run(p)
        assert [rec for rec, _ in first] == [rec for rec, _ in again]
        save_snapshot(first[50][1], tmp_path / "snap.json")  # the landing at t = 0.2
        assert [rec for rec, _ in run(load_snapshot(tmp_path / "snap.json"))] == [
            rec for rec, _ in first[50:]]

    def test_capped_steps_interpolate_the_records_they_pass(self, monkeypatch):
        # a cap of 0.03 splits each 0.1 landing gap into four steps; each record between
        # two steps' ends is interpolated on the step that passes over it
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: 0.0015)
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.004)
        records = []
        _, summary = evolve(p, cfg, sink=lambda rec, prof: records.append(rec),
                            landing_gaps=25)
        assert (summary.steps, summary.records) == (8, 51)
        reference = []
        evolve(p, cfg, sink=lambda rec, prof: reference.append(rec))
        deviation = np.max(np.abs(series_array(records) - series_array(reference)))
        assert 0.0 < deviation < 1e-8

    @pytest.mark.parametrize("landed", [False, True], ids=["sink", "landed"])
    def test_undershooting_interpolant_fails_the_step(self, monkeypatch, landed):
        # a cubic between two positive ends can dip below zero; the interpolant at
        # t = 0.06 (the 6th) does here, and the run stops there, as at a failed step,
        # once the records before it are made
        hermite, made = flow_mod._hermite, []

        def undershooting(*args):
            y = hermite(*args)
            made.append(y)
            if len(made) != 6:
                return y
            return np.array((y[0], np.where(np.arange(64) == 9, -1.0, y[1])))

        monkeypatch.setattr(flow_mod, "_hermite", undershooting)
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.2, record_every=0.01)
        seen = []
        with pytest.raises(StepFailureError, match="interpolant at t=0.06 lost positivity") as err:
            if landed:
                evolve(p, cfg, landed=seen.append, landing_gaps=10)
            else:
                evolve(p, cfg, sink=lambda rec, prof: seen.append(prof), landing_gaps=10)
        assert (err.value.field, err.value.node, err.value.t) == ("g", 9, 0.0)
        assert [prof.t for prof in seen] == [k * 0.01 for k in range(6)]

    @pytest.mark.parametrize("every, t_end, gaps, start", [
        (0.01, 0.2, 10, 0.0), (0.01, 0.2, 10, 0.1), (0.004, 0.41, 25, 0.0),
        (0.0625, 1.0, 3, 0.0), (0.0625, 1.0, 3, 0.1875), (0.05, 0.3, math.inf, 0.0),
        (0.01, 0.1, 1, 0.0),
    ])
    def test_lands_names_the_landings_of_evolve(self, monkeypatch, every, t_end, gaps, start):
        # the record sink of xcf run snapshots only what _lands calls a landing: it must be
        # what evolve lands on, also when the cap splits a landing gap into several steps
        # and when a run starts at a landing or ends off the record grid
        hermite, made = flow_mod._hermite, set()

        def marking(*args):
            y = hermite(*args)
            made.add(id(y))
            return y

        monkeypatch.setattr(flow_mod, "_hermite", marking)
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: every / 7.0)
        p = dataclasses.replace(sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1), t=start)
        seen = []
        evolve(p, FlowConfig(kind=TORUS, t_end=t_end, record_every=every), landed=seen.append,
               landing_gaps=gaps)
        interpolated = [id(prof.f.base) in made for prof in seen[1:]]
        assert any(interpolated) == (gaps > 1)
        assert [flow_mod._lands(prof.t, every, gaps, t_end) for prof in seen[1:]] == [
            not i for i in interpolated]

    def test_rejected_landing_grids(self):
        p = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        cfg = FlowConfig(kind=TORUS, t_end=0.1, record_every=0.01)
        with pytest.raises(TypeError, match="stop_when"):
            evolve(p, cfg, stop_when=lambda rec: False, landing_gaps=2)
        for gaps in (0, 2.5, -1, math.nan):
            with pytest.raises(ValueError, match="landing_gaps must be a whole number"):
                evolve(p, cfg, landing_gaps=gaps)
