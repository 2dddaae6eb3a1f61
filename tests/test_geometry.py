import dataclasses

import numpy as np
import pytest

from xcflow import (
    BundleKind,
    CurvatureField,
    MetricProfile,
    NumericOverflowError,
    curvature_field,
    s_derivative,
)

from xcflow._periodic import ddx, first_nonfinite

import metric_oracle
from conftest import TWO_PI, make_profile, random_trig_profile


def test_bundle_kind_pairs():
    pairs = {(k.kappa, k.flow_sign) for k in BundleKind}
    assert pairs == {(0.0, 1.0), (1.0, -1.0)}


class TestMetricProfile:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match=">= 8"):
            make_profile(n=4)

    def test_rejects_nonpositive_samples(self):
        g = np.full(16, 2.0)
        g[3] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            make_profile(n=16, g=g)
        f = np.full(16, 1.0)
        f[0] = -1.0
        with pytest.raises(ValueError, match="strictly positive"):
            make_profile(n=16, f=f)

    def test_rejects_nonfinite_samples(self):
        g = np.full(16, 2.0)
        g[5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            make_profile(n=16, g=g)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            MetricProfile(n=16, period=1.0, t=0.0, f=np.ones(16), g=np.ones(17))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            make_profile(n=16, period=0.0)

    def test_grid_properties(self):
        p = make_profile(n=64, period=TWO_PI)
        assert p.dx == pytest.approx(TWO_PI / 64)
        assert p.x[0] == 0.0
        assert p.x[-1] == pytest.approx(TWO_PI - p.dx)


class TestSDerivative:
    def test_sin_against_analytic(self):
        p = make_profile(n=256)
        d = s_derivative(p, np.sin(p.x))
        assert np.max(np.abs(d - np.cos(p.x))) < 1e-3

    def test_constant_is_exactly_zero(self):
        p = make_profile(n=64)
        d = s_derivative(p, np.full(64, 3.7))
        assert np.all(d == 0.0)

    def test_f_scaling(self):
        p = make_profile(n=256, f=2.0)
        d = s_derivative(p, np.sin(p.x))
        assert np.max(np.abs(d - 0.5 * np.cos(p.x))) < 1e-3

    def test_shape_error(self):
        p = make_profile(n=64)
        with pytest.raises(ValueError, match="64"):
            s_derivative(p, np.zeros(65))

    def test_second_order(self):
        errs = []
        for n in (128, 256):
            p = make_profile(n=n)
            d = s_derivative(p, np.sin(p.x))
            errs.append(np.max(np.abs(d - np.cos(p.x))))
        assert errs[0] / errs[1] > 3.5


class TestPeriodicOperator:
    def test_difference_matches_roll_reference(self):
        v = np.random.default_rng(3).standard_normal(37)
        assert np.array_equal(ddx(v, 0.1), (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * 0.1))

    def test_stacks_difference_along_the_last_axis(self):
        v = np.random.default_rng(4).standard_normal((3, 4, 37))
        want = (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * 0.1)
        assert np.array_equal(ddx(v, 0.1), want)

    def test_first_nonfinite(self):
        v = np.full(16, 1e308)  # finite samples whose sum overflows
        with np.errstate(over="ignore", invalid="ignore"):
            assert first_nonfinite(v) is None
            v[[4, 9]] = [np.inf, np.nan]
            assert first_nonfinite(v) == 4


class TestCurvatureField:
    def test_flat_torus_is_zero(self):
        for n in (16, 64, 256):
            field = curvature_field(make_profile(n=n, g=2.0), BundleKind.TORUS)
            for name in ("w", "w_s", "K12", "K23", "Ric11", "Ric22", "R", "P11", "P22", "h11", "h22"):
                assert np.max(np.abs(getattr(field, name))) < 1e-12, name

    def test_round_cylinder(self):
        field = curvature_field(make_profile(n=64, g=2.0), BundleKind.SPHERE)
        assert np.allclose(field.K12, 0.0, atol=1e-15)
        assert np.allclose(field.K23, 0.25, atol=1e-15)
        assert np.allclose(field.P11, -0.25, atol=1e-15)
        assert np.allclose(field.P22, 0.0, atol=1e-15)
        assert np.allclose(field.h11, 0.0, atol=1e-15)
        assert np.allclose(field.h22, 0.0, atol=1e-15)
        assert np.allclose(field.R, 0.5, atol=1e-15)

    def test_torus_sinusoid_at_crest(self, profile_a):
        # continuum values at x = pi/2 (node 64): g = 2.1, w = 0, w_s = -0.1
        field = curvature_field(profile_a, BundleKind.TORUS)
        i = 64
        assert field.K12[i] == pytest.approx(0.1 / 2.1, abs=5e-5)
        assert field.K12[i] == pytest.approx(0.047619, abs=1e-5)
        assert abs(field.K23[i]) < 1e-6
        assert abs(field.P11[i]) < 1e-6
        assert field.P22[i] == pytest.approx(-0.1 / 2.1, abs=5e-5)
        assert field.h11[i] == pytest.approx((0.1 / 2.1) ** 2, abs=5e-6)
        assert field.h11[i] == pytest.approx(2.26757e-3, abs=1e-5)
        assert abs(field.h22[i]) < 1e-7
        assert field.R[i] == pytest.approx(0.190476, abs=2e-4)

    def test_sphere_sinusoid_at_node_zero(self, profile_b):
        # x = 0: w ~ 0.1, w_s = 0 exactly on this grid
        field = curvature_field(profile_b, BundleKind.SPHERE)
        assert field.K23[0] == pytest.approx((1 - 0.01) / 4.0, abs=1e-6)
        assert field.P11[0] == pytest.approx(-0.2475, abs=1e-6)
        assert field.h11[0] == 0.0
        assert field.h22[0] == 0.0

    def test_einstein_eigenvalues_are_opposite_sectional(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_trig_profile(rng)
            field = curvature_field(p, kind)
            assert np.allclose(field.P11, -field.K23, rtol=1e-12, atol=0.0)
            scale = np.maximum(np.abs(field.P22), np.abs(field.K12))
            assert np.all(np.abs(field.P22 + field.K12) <= 1e-12 * scale + 1e-300)

    def test_scalar_identity(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(10):
            field = curvature_field(random_trig_profile(rng), kind)
            lhs = field.R
            rhs = field.Ric11 + 2.0 * field.Ric22
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(lhs)))

    def test_even_profile_gives_even_fields(self, kind):
        n = 128
        x = np.arange(n) * (TWO_PI / n)
        p = MetricProfile(
            n=n, period=TWO_PI, t=0.0,
            f=1.5 + 0.05 * np.cos(x) + 0.02 * np.cos(2 * x),
            g=2.0 + 0.1 * np.cos(x),
        )
        field = curvature_field(p, kind)
        idx = (-np.arange(n)) % n
        for name in ("w_s", "K12", "K23", "R", "P11", "P22", "h11", "h22"):
            arr = getattr(field, name)
            assert np.all(np.abs(arr - arr[idx]) <= 1e-12 * np.maximum(1.0, np.abs(arr))), name

    def test_overflow_names_node(self):
        p = make_profile(n=16, g=1e-300)
        with pytest.raises(NumericOverflowError, match="node 0"):
            curvature_field(p, BundleKind.SPHERE)

    def test_convergence(self):
        errs = []
        for n in (128, 256):
            p = make_profile(n=n, g=2.0 + 0.1 * np.sin(np.arange(n) * TWO_PI / n))
            field = curvature_field(p, BundleKind.TORUS)
            exact = 0.1 * np.sin(p.x) / p.g
            errs.append(np.max(np.abs(field.K12 - exact)))
        assert errs[0] / errs[1] >= 3.5


class TestCrossCurvature:
    def test_flat_is_zero(self):
        field = curvature_field(make_profile(n=32, g=1.7), BundleKind.TORUS)
        assert np.all(field.h11 == 0.0)
        assert np.all(field.h22 == 0.0)

    def test_sphere_constant_is_zero(self):
        field = curvature_field(make_profile(n=32, g=2.0), BundleKind.SPHERE)
        assert np.max(np.abs(field.h11)) < 1e-30
        assert np.max(np.abs(field.h22)) < 1e-30

    def test_field_stores_only_sectional_curvatures(self):
        names = [f.name for f in dataclasses.fields(CurvatureField)]
        assert names == ["w", "w_s", "K12", "K23", "f", "g"]

    def test_oracle_matches_on_random_profiles(self, kind):
        rng = np.random.default_rng(20260811)
        for _ in range(50):
            field = curvature_field(random_trig_profile(rng), kind)
            worst = metric_oracle.worst_mismatch(field, kind)
            assert max(worst.values()) <= 1e-12, worst

    @pytest.mark.parametrize(
        "mutate, component",
        [
            (lambda field: dataclasses.replace(field, K23=-field.K23), "K23"),
            (lambda field: dataclasses.replace(field, K12=2.0 * field.K12), "K12"),
        ],
        ids=["K23-sign-flipped", "K12-doubled"],
    )
    def test_oracle_rejects_wrong_field(self, kind, mutate, component):
        field = mutate(curvature_field(random_trig_profile(np.random.default_rng(4)), kind))
        # far above the 1e-12 that criterion 1 allows
        assert metric_oracle.worst_mismatch(field, kind)[component] >= 0.5

    def test_oracle_crest_value(self):
        # continuum values of profile A at x = pi/2: f = 1, g = 2.1, w = 0, w_s = -0.1
        value = metric_oracle.evaluate(BundleKind.TORUS, 1.0, 2.1, 0.0, -0.1)
        assert value["K12"] == pytest.approx(0.1 / 2.1, rel=1e-15)
        assert value["h11"] == pytest.approx((0.1 / 2.1) ** 2, rel=1e-15)
        assert value["h22"] == 0.0
        assert value["R"] == pytest.approx(0.190476, abs=1e-6)

    def test_oracle_zero_where_k12_vanishes(self):
        # node 0 of profile B: w_s = 0, w = 0.1; the round fibre is positively curved
        value = metric_oracle.evaluate(BundleKind.SPHERE, 1.0, 2.0, 0.1, 0.0)
        assert value["h11"] == 0.0
        assert value["h22"] == 0.0
        assert value["K23"] == pytest.approx((1.0 - 0.01) / 4.0, rel=1e-15)
        assert value["P11"] == pytest.approx(-0.2475, rel=1e-15)
