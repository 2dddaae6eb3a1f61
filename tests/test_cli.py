import dataclasses
import json
import math
import os
import signal
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from xcflow import (
    BundleKind,
    ClaimTolerances,
    ConfigError,
    DiagnosticsRecord,
    FlowConfig,
    MetricProfile,
    NotApplicableError,
    SERIES_FIELDS,
    SlopeConditionError,
    StationaryFlowWarning,
    StepFailureError,
    build_profile,
    check_series,
    curvature_dump,
    epsilon_sweep,
    evaluate_claims,
    evolve,
    load_config,
    load_snapshot,
    main,
    read_series,
    run_scenario,
    save_snapshot,
    sinusoid_profile,
)
from xcflow import cli
from xcflow import flow as flow_mod
from xcflow.cli import SERIES_HEADER

from conftest import TWO_PI
from records_reference import reference_records


def config_text(out_dir, **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    lines.append(f"output.dir = {out_dir}")
    return "\n".join(lines) + "\n"


def series_row(**cells):
    """One series.csv row: "0" in every column that `cells` does not name."""
    return ",".join(cells.get(name, "0") for name in SERIES_FIELDS)


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config("bundle = torus\nt_end = 2.0\n")
        assert cfg.flow.kind is BundleKind.TORUS
        assert cfg.flow.t_end == 2.0
        assert cfg.flow.epsilon == 0.0
        assert cfg.flow.record_every == pytest.approx(0.02)
        assert cfg.flow.tolerances.theta == 0.1
        assert cfg.n == 256
        assert cfg.period == pytest.approx(TWO_PI)
        assert cfg.family == "sinusoid"
        assert (cfg.base, cfg.amplitude, cfg.wavenumber) == (2.0, 0.1, 1)
        assert cfg.snapshot_every == pytest.approx(1.0)

    def test_comments_and_blank_lines(self):
        cfg = load_config(
            "# scenario\n\nbundle = sphere  # family\nt_end = 1.0\n  \n"
        )
        assert cfg.flow.kind is BundleKind.SPHERE

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="bundle"):
            load_config("t_end = 1.0\n")
        with pytest.raises(ConfigError, match="t_end"):
            load_config("bundle = torus\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            load_config("bundle = torus\nt_end = 1.0\nwhatever = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config("bundle = torus\nt_end = soon\n")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("t_end", "-1.0", "t_end must be positive, got -1.0"),
            ("epsilon", "-0.5", "epsilon must be >= 0, got -0.5"),
            ("record_every", "-0.1", "record_every must be positive, got -0.1"),
        ],
    )
    def test_flow_config_error_reports_line(self, key, value, message):
        keys = {"bundle": "torus", "t_end": "1.0", "grid.n": "64", key: value}
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        lineno = list(keys).index(key) + 1
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    def test_amplitude_above_base_rejected(self):
        with pytest.raises(ConfigError, match="amplitude"):
            load_config(
                "bundle = torus\nt_end = 1.0\nprofile.base = 2.0\nprofile.amplitude = 2.5\n"
            )

    def test_steep_sphere_parses_but_fails_validation(self, tmp_path):
        text = config_text(
            tmp_path / "out", bundle="sphere", t_end="1.0",
            **{"profile.amplitude": "0.3", "profile.wavenumber": "1"},
        )
        cfg = load_config(text)  # parser accepts: base > amplitude >= 0 holds
        with pytest.raises(SlopeConditionError):
            run_scenario(cfg)

    def test_tolerance_overrides(self):
        cfg = load_config(
            "bundle = torus\nt_end = 1.0\ntheta = 0.2\ntol.tol_k = 0.5\n"
        )
        assert cfg.flow.tolerances.theta == 0.2
        assert cfg.flow.tolerances.tol_k == 0.5

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="tol.bogus"):
            load_config("bundle = torus\nt_end = 1.0\ntol.bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("bundle = torus\nbundle = sphere\nt_end = 1.0\n")

    def test_file_family_requires_path(self):
        with pytest.raises(ConfigError, match="profile.path"):
            load_config("bundle = torus\nt_end = 1.0\nprofile.family = file\n")

    def test_file_family_profile(self, tmp_path):
        snap = tmp_path / "seed.json"
        save_snapshot(sinusoid_profile(64, TWO_PI, 3.0, 0.5, 2), snap)
        cfg = load_config(
            f"bundle = torus\nt_end = 1.0\nprofile.family = file\nprofile.path = {snap}\n"
        )
        profile = build_profile(cfg)
        assert profile.n == 64
        assert profile.g.max() == pytest.approx(3.5, abs=1e-6)


class TestSnapshots:
    def test_round_trip_is_bit_exact(self, tmp_path):
        profile = sinusoid_profile(64, TWO_PI, 2.0, 0.1, 1)
        path = tmp_path / "snap.json"
        save_snapshot(profile, path)
        loaded = load_snapshot(path)
        assert loaded.n == profile.n
        assert loaded.period == profile.period
        assert loaded.t == profile.t
        assert np.array_equal(loaded.f, profile.f)
        assert np.array_equal(loaded.g, profile.g)

    def test_schema(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(sinusoid_profile(16, 1.0, 2.0, 0.0, 1), path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "period", "t", "f", "g"}
        assert len(data["f"]) == len(data["g"]) == 16


def test_series_header_is_the_record_schema():
    names = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    assert SERIES_HEADER.split(",") == [name for name in names if name != "E2_rate_formula"]


class TestRunScenario:
    def test_stationary_run(self, tmp_path):
        cfg = load_config(config_text(
            tmp_path / "out", bundle="torus", t_end="1.0",
            **{"profile.amplitude": "0.0", "record_every": "0.25"},
        ))
        with pytest.warns(StationaryFlowWarning):
            status = run_scenario(cfg)
        assert status == 0
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == SERIES_HEADER
        body = [line.split(",", 1)[1] for line in lines[1:]]
        assert len(body) == 5
        assert len(set(body)) == 1  # identical except t
        claims = (tmp_path / "out" / "claims.txt").read_text()
        assert "T-L5 pass measured=0.0" in claims
        assert "T-L2 n/a" in claims

    def test_series_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = load_config(config_text(out, bundle="torus", t_end="0.2"))
        run_scenario(cfg)
        table = read_series(out / "series.csv")
        assert table.dtype == np.float64
        assert table.shape == (101, len(SERIES_FIELDS))  # t_end / record_every + 1 rows
        rewritten = [  # reformatting the table's cells reproduces the file exactly
            ",".join(
                str(int(cell)) if name == "zero_count" else repr(float(cell))
                for name, cell in zip(SERIES_FIELDS, row)
            )
            for row in table
        ]
        assert rewritten == (out / "series.csv").read_text().splitlines()[1:]

    def test_retained_memory_per_record(self, tmp_path):
        """A run holds each record as one packed table row, 136 B, not as a record object."""
        def rows_and_peak(t_end):
            out = tmp_path / t_end
            cfg = load_config(config_text(out, bundle="torus", t_end=t_end,
                                          **{"grid.n": "16", "record_every": "0.002"}))
            tracemalloc.start()
            try:
                run_scenario(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return len((out / "series.csv").read_text().splitlines()) - 1, peak

        # the longer run first, so that one-time allocations cannot hide its growth
        (long_rows, long_peak), (short_rows, short_peak) = rows_and_peak("3.0"), rows_and_peak("1.0")
        assert (long_rows, short_rows) == (1501, 501)
        assert (long_peak - short_peak) / (long_rows - short_rows) < 300

    def test_xcf_out_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("XCF_OUT", str(target))
        cfg = load_config(config_text(tmp_path / "ignored", bundle="torus", t_end="0.1"))
        run_scenario(cfg)
        assert (target / "series.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_resume_ignores_config_profile(self, tmp_path):
        base = config_text(
            tmp_path / "a", bundle="torus", t_end="1.0",
            **{"output.snapshot_every": "0.5"},
        )
        run_scenario(load_config(base))
        snap = tmp_path / "a" / "snap_0.5.json"
        assert snap.exists()
        # resumed config declares a different profile; snapshot must win
        resumed = config_text(
            tmp_path / "b", bundle="torus", t_end="1.0",
            **{"profile.amplitude": "0.05", "output.snapshot_every": "0.5"},
        )
        run_scenario(load_config(resumed), resume=snap)
        rows_a = (tmp_path / "a" / "series.csv").read_text().splitlines()[1:]
        rows_b = (tmp_path / "b" / "series.csv").read_text().splitlines()[1:]
        tail_a = [r for r in rows_a if float(r.split(",")[0]) >= 0.5]
        assert rows_b == tail_a

    @pytest.mark.parametrize("every, names", [
        ("0.25", ["0.0", "0.30000000000000004", "0.5", "0.8", "1.0", "1.05"]),
        ("inf", ["0.0", "1.05"]),  # no record reaches inf: the start and the end only
    ])
    def test_snapshot_cadence(self, tmp_path, every, names):
        # the first record at or past each multiple of snapshot_every, and the end
        cfg = load_config(config_text(
            tmp_path, bundle="torus", t_end="1.05", record_every="0.1",
            **{"grid.n": "16", "output.snapshot_every": every},
        ))
        run_scenario(cfg)
        got = sorted(float(p.stem[len("snap_"):]) for p in tmp_path.glob("snap_*.json"))
        assert list(map(repr, got)) == names

    @pytest.mark.parametrize("source", ["profile.family", "--resume"])
    def test_claims_take_dx_from_the_profile_that_runs(self, tmp_path, source):
        # an n = 64 snapshot, run under a config whose grid section keeps n = 256
        grid = {"grid.n": "64"}
        run_scenario(load_config(config_text(tmp_path / "a", bundle="torus", t_end="0.2", **grid)))
        snap = tmp_path / "a" / "snap_0.1.json"
        want = config_text(tmp_path / "want", bundle="torus", t_end="0.2", **grid)
        run_scenario(load_config(want), resume=snap)
        if source == "--resume":
            got = config_text(tmp_path / "got", bundle="torus", t_end="0.2")
            run_scenario(load_config(got), resume=snap)
        else:
            got = config_text(tmp_path / "got", bundle="torus", t_end="0.2",
                              **{"profile.family": "file", "profile.path": str(snap)})
            run_scenario(load_config(got))
        for name in ("series.csv", "claims.txt"):
            assert (tmp_path / "got" / name).read_text() == (tmp_path / "want" / name).read_text()

    def test_exit_status_tracks_claims(self, tmp_path):
        # an unreachable growth requirement forces a T-T6 failure
        cfg = load_config(config_text(
            tmp_path / "out", bundle="torus", t_end="0.1",
            **{"tol.delta_l_frac": "0.9"},
        ))
        assert run_scenario(cfg) == 1
        claims = (tmp_path / "out" / "claims.txt").read_text()
        assert "T-T6 fail" in claims


class TestCurvatureDump:
    def test_flat_torus(self, tmp_path):
        cfg = load_config(config_text(
            tmp_path / "out", bundle="torus", t_end="1.0",
            **{"profile.amplitude": "0.0", "grid.n": "16"},
        ))
        curvature_dump(cfg)
        lines = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
        assert lines[0].startswith("i,x,f,g,w,w_s,K12")
        assert len(lines) == 17
        for line in lines[1:]:
            parts = line.split(",")
            assert all(float(v) == 0.0 for v in parts[4:])

    def test_round_cylinder(self, tmp_path):
        cfg = load_config(config_text(
            tmp_path / "out", bundle="sphere", t_end="1.0",
            **{"profile.amplitude": "0.0", "grid.n": "16"},
        ))
        curvature_dump(cfg)
        lines = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
        header = lines[0].split(",")
        k23 = header.index("K23")
        r = header.index("R")
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[k23]) == pytest.approx(0.25, abs=1e-15)
            assert float(parts[r]) == pytest.approx(0.5, abs=1e-15)

    def test_overflow_exits_2_naming_column_and_node(self, tmp_path, capsys):
        # K12 ~ 1e238 is finite, h11 = K12^2 is the first column that is not,
        # and E2, the integral of K12^2, is the first record field that is not
        n = 64
        profile = sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)
        snap = tmp_path / "tiny_f.json"
        save_snapshot(dataclasses.replace(profile, f=np.full(n, 1e-120)), snap)
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(
            tmp_path / "out", bundle="torus", t_end="1.0",
            **{"grid.n": str(n), "profile.family": "file", "profile.path": str(snap)},
        ))
        assert main(["curvature", "--config", str(path)]) == 2
        assert "non-finite curvature component h11 at node 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curvature.csv").exists()
        assert main(["run", "--config", str(path)]) == 2
        assert "error: non-finite record field E2 (t=0.0)" in capsys.readouterr().err
        assert (tmp_path / "out" / "series.csv").read_text().splitlines() == [SERIES_HEADER]

    def test_profile_a_crest(self, tmp_path):
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="1.0"))
        curvature_dump(cfg)
        lines = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
        header = lines[0].split(",")
        h11 = header.index("h11")
        row = lines[1 + 64].split(",")  # node nearest x = pi/2
        assert float(row[h11]) == pytest.approx(2.26757e-3, abs=1e-5)


class TestEpsilonSweep:
    def test_zero_only(self, tmp_path):
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        epsilon_sweep(cfg, [0.0])
        lines = (tmp_path / "out" / "eps_sweep.csv").read_text().splitlines()
        assert lines == ["epsilon,sup_gap", "0.0,0.0"]

    def test_constant_profile_gap_is_zero(self, tmp_path):
        cfg = load_config(config_text(
            tmp_path / "out", bundle="torus", t_end="0.2",
            **{"profile.amplitude": "0.0"},
        ))
        with pytest.warns(StationaryFlowWarning):
            epsilon_sweep(cfg, [1e-2, 1e-3])
        lines = (tmp_path / "out" / "eps_sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["0.0", "0.0"]

    def test_member_directories(self, tmp_path):
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        epsilon_sweep(cfg, [1e-2])
        assert (tmp_path / "out" / "eps_0.0" / "series.csv").exists()
        assert (tmp_path / "out" / "eps_0.01" / "series.csv").exists()

    def test_sphere_rejected(self, tmp_path):
        cfg = load_config(config_text(tmp_path / "out", bundle="sphere", t_end="0.2"))
        with pytest.raises(NotApplicableError):
            epsilon_sweep(cfg, [1e-2])

    def test_negative_epsilon_rejected(self, tmp_path):
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        with pytest.raises(ValueError, match=">= 0"):
            epsilon_sweep(cfg, [-1e-3])


# members 0, 1e-2, 1e-3 and 1e-4; with two lanes, 0 and 1e-3 run in the sweep's own process
SWEEP_EPSILONS = ["1e-2", "1e-3", "1e-4"]


def cpus(monkeypatch, count):
    """Give the sweep `count` CPUs in its affinity mask and count the workers it forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class SetupDone(Exception):
    """Raised at the first call into evolve, as the benchmark's setup probe does."""


class TestEpsilonSweepLanes:
    def test_lane_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        trees = []
        for count, workers in [(1, 0), (4, 3)]:
            forks = cpus(monkeypatch, count)
            out = tmp_path / f"cpus{count}"
            epsilon_sweep(load_config(config_text(out, bundle="torus", t_end="0.2")),
                          [float(eps) for eps in SWEEP_EPSILONS])
            assert len(forks) == workers
            trees.append(files(out))
        assert len(trees[0]) == 5  # eps_sweep.csv and four series
        assert trees[0] == trees[1]
        assert_no_child_left()

    @pytest.mark.parametrize("failing, message", [
        ({1e-2, 1e-3}, "member eps=0.01"),
        ({1e-3, 1e-4}, "member eps=0.001"),
    ], ids=["worker-first", "parent-first"])
    def test_error_of_the_first_failing_member(self, tmp_path, monkeypatch, capsys,
                                               failing, message):
        evolve = cli.evolve

        def failing_evolve(profile, config, **kwargs):  # forked workers inherit it
            if config.epsilon in failing:
                raise StepFailureError(0.0, 1e-3, f"member eps={config.epsilon!r}")
            return evolve(profile, config, **kwargs)

        monkeypatch.setattr(cli, "evolve", failing_evolve)
        errors = []
        for count in (1, 2):
            forks = cpus(monkeypatch, count)
            path = tmp_path / f"cpus{count}.txt"
            path.write_text(config_text(tmp_path / f"cpus{count}", bundle="torus", t_end="0.2"))
            argv = ["eps-sweep", "--config", str(path), "--epsilons", ",".join(SWEEP_EPSILONS)]
            assert main(argv) == 2
            assert len(forks) == count - 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: step of dt=0.001 from t=0.0 failed: {message}\n"] * 2
        assert_no_child_left()

    def test_worker_reports_its_own_error(self, tmp_path, monkeypatch, capsys):
        # 1e-2 fails in the worker; this process runs 0 and 1e-3 and no member of the worker's
        evolve, parent, calls = cli.evolve, os.getpid(), []

        def failing_evolve(profile, config, **kwargs):
            if os.getpid() == parent:
                calls.append(config.epsilon)
            if config.epsilon == 1e-2:
                raise StepFailureError(0.0, 1e-3, "member eps=0.01")
            return evolve(profile, config, **kwargs)

        monkeypatch.setattr(cli, "evolve", failing_evolve)
        cpus(monkeypatch, 2)
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        assert main(["eps-sweep", "--config", str(path), "--epsilons", ",".join(SWEEP_EPSILONS)]) == 2
        assert capsys.readouterr().err == "error: step of dt=0.001 from t=0.0 failed: member eps=0.01\n"
        assert calls == [0.0, 1e-3]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [SetupDone, KeyboardInterrupt])
    def test_error_at_first_evolve_leaves_no_child(self, tmp_path, monkeypatch, error):
        # each process raises at its own first call, workers included
        evolve, calls = cli.evolve, []

        def stopping_evolve(*args, **kwargs):
            if not calls:
                calls.append(os.getpid())
                raise error
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve", stopping_evolve)
        forks = cpus(monkeypatch, 2)
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        with pytest.raises(error):
            epsilon_sweep(cfg, [1e-2, 1e-3, 1e-4])
        assert len(forks) == 1
        assert_no_child_left()

    def test_worker_that_dies_is_named(self, tmp_path, monkeypatch):
        evolve, parent = cli.evolve, os.getpid()

        def dying_evolve(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve", dying_evolve)
        cpus(monkeypatch, 2)
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        with pytest.raises(RuntimeError, match=r"epsilons \[0.01, 0.0001\] ended without reporting"):
            epsilon_sweep(cfg, [1e-2, 1e-3, 1e-4])
        assert_no_child_left()

    def test_worker_that_dies_while_reporting_is_named(self, tmp_path, monkeypatch):
        # the worker sends its first final whole and half of its second, as one that dies
        # while it writes them would
        evolve, parent = cli.evolve, os.getpid()

        def short_evolve(profile, config, **kwargs):
            final, summary = evolve(profile, config, **kwargs)
            if os.getpid() != parent and config.epsilon == 1e-4:
                final = dataclasses.replace(final, n=8, g=final.g[:8], f=final.f[:8])
            return final, summary

        monkeypatch.setattr(cli, "evolve", short_evolve)
        cpus(monkeypatch, 2)
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2",
                                      **{"grid.n": "16"}))
        with pytest.raises(RuntimeError, match=r"epsilons \[0.01, 0.0001\] ended without reporting"):
            epsilon_sweep(cfg, [1e-2, 1e-3, 1e-4])
        assert_no_child_left()

    def test_workers_issue_no_warning(self, tmp_path, monkeypatch, capfd):
        cpus(monkeypatch, 2)
        cfg = load_config(config_text(
            tmp_path / "out", bundle="torus", t_end="0.2", **{"profile.amplitude": "0.0"},
        ))

        def show(message, category, *args, **kwargs):  # to fd 2 from every process
            os.write(2, f"{category.__name__}\n".encode())

        with warnings.catch_warnings():
            warnings.simplefilter("default")  # once per process and place
            warnings.showwarning = show
            epsilon_sweep(cfg, [1e-2, 1e-3, 1e-4])
        assert capfd.readouterr().err == "StationaryFlowWarning\n"

    def test_unparsable_epsilons_name_the_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        assert main(["eps-sweep", "--config", str(path), "--epsilons", "1e-2,abc"]) == 2
        assert capsys.readouterr().err == (
            "error: --epsilons must be comma-separated numbers: "
            "could not convert string to float: 'abc'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epsilons", ["", ","])
    def test_empty_epsilon_list_exits_2_before_any_output(self, tmp_path, capsys, epsilons):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        assert main(["eps-sweep", "--config", str(path), "--epsilons", epsilons]) == 2
        assert capsys.readouterr().err == (
            "error: epsilons must list at least one epsilon, got []\n")
        assert not (tmp_path / "out").exists()


DENSE_SWEEP_GAPS = cli._SWEEP_LANDING_GAPS


def sweep_tables(out, n, monkeypatch, epsilons=("1e-2",), record_bound=False):
    """Member series tables, eps_sweep.csv rows and the members' step count of a serial
    sweep of the sweep's setup (t_end 1, default cadence) at grid size n; record_bound
    lands on every record time."""
    cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "_SWEEP_LANDING_GAPS", 1 if record_bound else DENSE_SWEEP_GAPS)
    real, steps = flow_mod.step, []

    def counting_step(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(flow_mod, "step", counting_step)
    epsilon_sweep(load_config(config_text(out, bundle="torus", t_end="1", **{"grid.n": str(n)})),
                  [float(eps) for eps in epsilons])
    monkeypatch.setattr(flow_mod, "step", real)
    tables = {eps: read_series(out / f"eps_{eps!r}" / "series.csv")
              for eps in [0.0, *map(float, epsilons)]}
    rows = [tuple(map(float, line.split(",")))
            for line in (out / "eps_sweep.csv").read_text().splitlines()[1:]]
    return tables, rows, len(steps)


def observed_orders(rows):
    """log(gap_i / gap_{i+1}) / log(eps_i / eps_{i+1}) of adjacent (epsilon, sup_gap) rows."""
    eps, gaps = np.array(rows).T
    with np.errstate(divide="ignore", invalid="ignore"):  # a gap of 0 gives NaN
        return np.log(gaps[:-1] / gaps[1:]) / np.log(eps[:-1] / eps[1:])


def record_bound_states(profile, cfg, times):
    """The states of a record-bound run whose record times are `times`, spelled with the
    public `stable_dt` and `step`: each step spans min(time to the next, 20 stable_dt)."""
    kind, eps, span = cfg.kind, cfg.epsilon, flow_mod._span(flow_mod._MAX_STAGES)
    states = []
    for target in times:
        while not flow_mod._reached(profile.t, target):
            dt = min(target - profile.t, span * flow_mod.stable_dt(profile, kind, eps))
            profile = flow_mod.step(profile, kind, eps, dt)
        profile = MetricProfile._trusted(profile.n, profile.period, target, profile.f, profile.g)
        states.append(profile)
    return states


class TestEpsilonSweepDense:
    """Sweep members land on every 10th record time; the records between are interpolated."""

    @pytest.mark.parametrize("n", [256, 512])
    def test_within_the_grid_difference_of_the_record_bound_sweep(self, tmp_path, monkeypatch,
                                                                   n):
        # every series field of both members lies within 1e-2 of the record-bound sweep's
        # n/2 -> n grid difference (measured: 2.5e-4 at eps 0, 5.3e-4 at eps 1e-2). At
        # eps 0, which keeps the extrema of g, g_max and g_min lie within 1e-12; t and
        # zero_count are exact. The members take one step per record gap, and per landing gap
        coarse, _, _ = sweep_tables(tmp_path / "coarse", n // 2, monkeypatch, record_bound=True)
        fine, _, fine_steps = sweep_tables(tmp_path / "fine", n, monkeypatch, record_bound=True)
        dense, _, steps = sweep_tables(tmp_path / "dense", n, monkeypatch)
        assert (fine_steps, steps) == (2 * 100, 2 * 10)
        exact = [SERIES_FIELDS.index(name) for name in ("t", "zero_count")]
        extrema = [SERIES_FIELDS.index(name) for name in ("g_max", "g_min")]
        for eps in (0.0, 1e-2):
            assert dense[eps].shape == fine[eps].shape == (101, len(SERIES_FIELDS))
            grid = np.max(np.abs(fine[eps] - coarse[eps]), axis=0)
            deviation = np.max(np.abs(dense[eps] - fine[eps]), axis=0)
            assert np.array_equal(dense[eps][:, exact], fine[eps][:, exact])
            rest = [i for i in range(len(SERIES_FIELDS)) if i not in exact]
            if eps == 0.0:
                assert np.all(deviation[extrema] <= 1e-12)
                rest = [i for i in rest if i not in extrema]
            assert np.all(grid[rest] > 0.0)
            assert np.all(deviation[rest] <= 1e-2 * grid[rest])

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_landed_states_are_those_of_the_record_bound_run(self, eps):
        # on the landing grid, every 10th record time, bit for bit; the others lie between
        gaps = DENSE_SWEEP_GAPS
        cfg = FlowConfig(kind=BundleKind.TORUS, t_end=1.0, epsilon=eps)
        p = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)
        seen = []
        final, summary = evolve(p, cfg, sink=lambda rec, prof: seen.append(prof),
                                landing_gaps=gaps)
        assert gaps == 10 and summary.records == len(seen) == 101
        assert [prof.t for prof in seen] == [k * 0.01 for k in range(101)]
        want = record_bound_states(p, cfg, [k * 0.01 for k in range(gaps, 101, gaps)])
        for got, prof in zip(seen[gaps::gaps], want, strict=True):
            assert got.t == prof.t
            assert got.f.tobytes() == prof.f.tobytes() and got.g.tobytes() == prof.g.tobytes()
        assert final.g.tobytes() == want[-1].g.tobytes()

    def test_first_order_in_eps(self, tmp_path, monkeypatch):
        # gap / eps tends to the first-order response as eps -> 0: the observed order of
        # each adjacent pair of 1e-2, 1e-3 and 1e-4 lies within 1 +/- 1e-2, for record-bound
        # and dense members alike (measured: 0.99934 and 0.99993 at n = 2048), and each
        # dense sup_gap within 1e-8 relative of the record-bound one (measured: <= 3.5e-9)
        _, bound, _ = sweep_tables(tmp_path / "bound", 2048, monkeypatch, SWEEP_EPSILONS,
                                   record_bound=True)
        _, dense, _ = sweep_tables(tmp_path / "dense", 2048, monkeypatch, SWEEP_EPSILONS)
        for rows in (bound, dense):
            assert [eps for eps, _ in rows] == [1e-2, 1e-3, 1e-4]
            assert np.all(np.abs(observed_orders(rows) - 1.0) <= 1e-2)
        gaps, want = np.array(dense)[:, 1], np.array(bound)[:, 1]
        assert np.all(np.abs(gaps - want) <= 1e-8 * want)

    @pytest.mark.parametrize("shift", [lambda eps: None, lambda eps: eps * eps],
                             ids=["eps-dropped", "eps-squared"])
    def test_wrong_eps_fails_the_order_check(self, tmp_path, monkeypatch, shift):
        # the check above can fail: members whose flow drops eps (every gap 0) or takes
        # eps^2 for it (order 2)
        init = flow_mod._StepState.__init__

        def mutant(state, *args, **kwargs):
            init(state, *args, **kwargs)
            state.shift = None if state.shift is None else shift(state.shift)

        monkeypatch.setattr(flow_mod._StepState, "__init__", mutant)
        _, rows, _ = sweep_tables(tmp_path, 2048, monkeypatch, SWEEP_EPSILONS)
        assert not np.all(np.abs(observed_orders(rows) - 1.0) <= 1e-2)

    def test_dense_members_hold_no_more_than_record_bound_ones(self, tmp_path, monkeypatch):
        # two serial members at n = 2048, as the sweep's own lane runs them: the dense
        # sweep's traced peak is no higher than the record-bound one's (measured: 31 KiB
        # lower), as its kept rows come out of the records' slots; keeping L at a step's
        # two ends beside them would add two (2, n) arrays, 64 KiB
        n = 2048

        def peak(gaps, out):
            cpus(monkeypatch, 1)
            monkeypatch.setattr(cli, "_SWEEP_LANDING_GAPS", gaps)  # as sweep_tables does
            cfg = load_config(config_text(out, bundle="torus", t_end="1", **{"grid.n": str(n)}))
            tracemalloc.start()
            try:
                epsilon_sweep(cfg, [1e-2])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for gaps in (1, DENSE_SWEEP_GAPS):  # one-time allocations, such as the stage
            peak(gaps, tmp_path / f"warm{gaps}")  # coefficients' cache, go first
        bound, dense = peak(1, tmp_path / "bound"), peak(DENSE_SWEEP_GAPS, tmp_path / "dense")
        assert dense <= bound


class TestRunScenarioLanes:
    """`xcf run` on two CPUs makes its records in one forked process; on one, in its own."""

    def run_and_resume(self, tmp_path, monkeypatch, count):
        """A run and a resume from its t=0.2 snapshot on `count` CPUs; the tree and the forks."""
        keys = {"grid.n": "64", "record_every": "0.004", "output.snapshot_every": "0.1"}
        out = tmp_path / f"cpus{count}"
        forks = cpus(monkeypatch, count)
        run_scenario(load_config(config_text(out / "full", bundle="torus", t_end="0.4", **keys)))
        run_scenario(load_config(config_text(out / "resumed", bundle="torus", t_end="0.4", **keys)),
                     resume=out / "full" / "snap_0.2.json")
        return files(out), len(forks)

    def test_lane_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        one, serial = self.run_and_resume(tmp_path, monkeypatch, 1)
        two, lane = self.run_and_resume(tmp_path, monkeypatch, 2)
        assert (serial, lane) == (0, 2)  # one record process per run
        assert len(one) == 12  # two series, two claims, five and three snapshots
        assert one == two
        assert_no_child_left()

    @pytest.mark.parametrize("f_bad, message", [
        (1e-120, "non-finite record field E2 (t=0.02)"),
        (None, "from t=0.05 failed: collapsed"),
        (None, None),
    ], ids=["record-overflows", "step-fails", "interrupted"])
    def test_failure_gives_the_same_outputs_on_both_paths(self, tmp_path, monkeypatch, capsys,
                                                          f_bad, message):
        # every step lands on the next record time, as snapshot_every is not a whole number
        # of record gaps; the one onto t = 0.02 collapses f, so the third record overflows,
        # or the step from t = 0.05 fails or is interrupted, which main does not report
        good = sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)

        def fake_step(profile, kind, epsilon, dt, start=None):
            t = profile.t + dt
            if f_bad is None and profile.t >= 0.05:
                raise StepFailureError(profile.t, dt, "collapsed") if message else KeyboardInterrupt
            f = np.full(256, f_bad) if f_bad and t == pytest.approx(0.02) else good.f
            return MetricProfile(256, TWO_PI, t, f, good.g)

        monkeypatch.setattr(flow_mod, "step", fake_step)
        monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: math.inf)
        outcomes = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            path = tmp_path / f"cpus{count}.txt"
            path.write_text(config_text(tmp_path / f"cpus{count}", bundle="torus", t_end="0.2",
                                        record_every="0.01", **{"output.snapshot_every": "0.105"}))
            if message is None:
                with pytest.raises(KeyboardInterrupt):
                    main(["run", "--config", str(path)])
            else:
                assert main(["run", "--config", str(path)]) == 2
            outcomes.append((capsys.readouterr().err, files(tmp_path / f"cpus{count}")))
        err = outcomes[0][0]
        assert err == "" if message is None else (
            err.startswith("error: ") and err.endswith(f"{message}\n"))
        rows = [line.split(",", 1)[0] for line in
                outcomes[0][1][Path("series.csv")].decode().splitlines()[1:]]
        assert rows == (["0.0", "0.01"] if f_bad else ["0.0", "0.01", "0.02", "0.03", "0.04", "0.05"])
        assert outcomes[0] == outcomes[1]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [SetupDone, KeyboardInterrupt])
    def test_error_at_first_evolve_leaves_no_child(self, tmp_path, monkeypatch, error):
        def stopping_evolve(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "evolve", stopping_evolve)
        forks = cpus(monkeypatch, 2)
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        with pytest.raises(error):
            run_scenario(cfg)
        assert len(forks) == 1
        assert_no_child_left()

    def test_record_process_that_dies_is_an_error(self, tmp_path, monkeypatch, capsys):
        series_row, parent = cli._series_row, os.getpid()

        def dying_row(values):
            if os.getpid() != parent:
                os._exit(3)
            return series_row(values)

        monkeypatch.setattr(cli, "_series_row", dying_row)
        cpus(monkeypatch, 2)
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: the record process ended without reporting\n"
        assert not (tmp_path / "out" / "claims.txt").exists()
        assert_no_child_left()

    def test_workers_ignore_sigint(self):
        # a terminal's Ctrl-C reaches the whole process group: it interrupts xcf alone,
        # which finishes its records or reaps its workers
        with cli._Workers() as workers:
            report, _ = workers.fork(lambda report: report.write(
                b"1" if signal.getsignal(signal.SIGINT) is signal.SIG_IGN else b"0"))
            with report:
                assert report.read() == b"1"
        assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_packed_table_round_trips(self, tmp_path, monkeypatch, count):
        # the packed rows that the run hands to the claim checker are the file's, bit for
        # bit, and a sink's record list gives the same claim lines as that table
        tables = keep_tables(monkeypatch)
        cpus(monkeypatch, count)
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.4",
                                      record_every="0.004", **{"grid.n": "64"}))
        run_scenario(cfg)
        (table,) = tables
        assert len(table) == 101
        assert table.tobytes() == read_series(tmp_path / "out" / "series.csv").tobytes()
        records = []
        # xcf run lands on its snapshot grid: snapshot_every = t_end / 2 is 50 record gaps
        evolve(build_profile(cfg), cfg.flow, sink=lambda rec, prof: records.append(rec),
               landing_gaps=50)
        tolerances = dataclasses.replace(cfg.flow.tolerances, dx=TWO_PI / 64)
        lines = [list(map(cli._claim_line, evaluate_claims(given, BundleKind.TORUS, tolerances)))
                 for given in (records, table)]
        assert lines[0] == lines[1]
        assert lines[0] == (tmp_path / "out" / "claims.txt").read_text().splitlines()
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_series_rows_are_the_reference_records(self, tmp_path, monkeypatch, count):
        # one CPU makes the records in the arena of the steps, two in the record process's
        # own workspace; a snapshot at every record gives each row's profile
        cpus(monkeypatch, count)
        out = tmp_path / "out"
        run_scenario(load_config(config_text(out, bundle="torus", t_end="0.4", record_every="0.004",
                                             **{"grid.n": "64", "output.snapshot_every": "0.004"})))
        profiles = sorted(map(load_snapshot, out.glob("snap_*.json")), key=lambda p: p.t)
        assert len(profiles) == 101  # a batch of 64 and a partial one
        want = [cli._series_row(cli._series_values(rec))
                for rec in reference_records(profiles, BundleKind.TORUS)]
        assert (out / "series.csv").read_text().splitlines()[1:] == want
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_no_landed_array_is_written_later(self, tmp_path, monkeypatch, count):
        # f and g are copied as each landed profile arrives: in this process at the sink
        # (one CPU) or at the hand-off to the pipe (two), and in the record process as it
        # reads them; after the run, each must still equal its copy
        evolve, record_landings = cli.evolve, cli.record_landings
        arrived = []

        def keep(prof):
            arrived.append((prof, prof.f.copy(), prof.g.copy()))

        def copying_evolve(profile, config, **kwargs):
            for name in ("sink", "landed"):  # each takes the profile last
                given = kwargs.get(name)
                if given is not None:
                    kwargs[name] = lambda *args, given=given: (keep(args[-1]), given(*args))[1]
            return evolve(profile, config, **kwargs)

        def checked_record_landings(landings, kind, sink=None, stop_when=None):
            seen = []

            def arriving():
                for prof in landings:
                    seen.append((prof, prof.f.copy(), prof.g.copy()))
                    yield prof

            records = record_landings(arriving(), kind, sink, stop_when)
            # raised in the record process, this reaches run_scenario through its report
            assert all(np.array_equal(p.f, f) and np.array_equal(p.g, g) for p, f, g in seen)
            (tmp_path / "checked").write_text(str(len(seen)))
            return records

        monkeypatch.setattr(cli, "evolve", copying_evolve)
        monkeypatch.setattr(cli, "record_landings", checked_record_landings)
        forks = cpus(monkeypatch, count)
        # 101 landings: the sink sees the first batch of 64 while later steps are still to come
        run_scenario(load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.4",
                                             record_every="0.004", **{"grid.n": "64"})))
        assert len(forks) == count - 1 and len(arrived) == 101
        for prof, f, g in arrived:
            assert np.array_equal(prof.f, f) and np.array_equal(prof.g, g)
        checked = tmp_path / "checked"
        assert (checked.read_text() == "101") if count == 2 else not checked.exists()
        assert_no_child_left()


DENSE_KEYS = {"grid.n": "64", "record_every": "0.004", "output.snapshot_every": "0.1"}


def snapshots(root):
    """The run's snapshots in time order."""
    return sorted(map(load_snapshot, root.glob("snap_*.json")), key=lambda p: p.t)


def assert_each_snapshot_is_reached_from_the_last(root, gaps):
    """Each snapshot after the first is the state that `evolve` reaches from the one before:
    a landed state of the discrete flow, never an interpolant."""
    snaps = snapshots(root)
    for before, after in zip(snaps, snaps[1:]):
        cfg = FlowConfig(kind=BundleKind.TORUS, t_end=after.t, record_every=0.004)
        final, _ = evolve(before, cfg, landing_gaps=gaps)
        assert final.t == after.t
        assert final.f.tobytes() == after.f.tobytes() and final.g.tobytes() == after.g.tobytes()
    return [p.t for p in snaps]


class TestDenseRun:
    """`xcf run` steps on its snapshot grid and interpolates the records between."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_resume_from_every_snapshot_reproduces_the_rows(self, tmp_path, monkeypatch, count):
        cpus(monkeypatch, count)
        full = tmp_path / "full"
        run_scenario(load_config(config_text(full, bundle="torus", t_end="0.4", **DENSE_KEYS)))
        rows = (full / "series.csv").read_text().splitlines()
        assert len(rows) == 102
        times = assert_each_snapshot_is_reached_from_the_last(full, 25)
        assert times == [0.0, 25 * 0.004, 50 * 0.004, 75 * 0.004, 0.4]
        for t in times[1:-1]:
            out = tmp_path / f"resumed_{t!r}"
            run_scenario(load_config(config_text(out, bundle="torus", t_end="0.4", **DENSE_KEYS)),
                         resume=full / f"snap_{t!r}.json")
            want = [row for row in rows[1:] if float(row.split(",", 1)[0]) >= t]
            assert (out / "series.csv").read_text().splitlines()[1:] == want
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["record-overflows", "step-fails",
                                         "interpolant-undershoots"])
    def test_failure_leaves_only_landed_snapshots(self, tmp_path, monkeypatch, capsys, failing):
        # an interpolated record overflows at t = 0.124, or its interpolant undershoots
        # there; or, with a cap of 0.03 that splits each 0.1 landing gap into four steps,
        # the step from t = 0.16 fails after records were interpolated up to it. Either
        # way the last landed state is the one at 0.1, and 1 and 2 CPUs give the same
        # error and the same files
        hermite, real_step, made = flow_mod._hermite, flow_mod.step, []

        def collapsing(*args):
            y = hermite(*args)
            made.append(y)
            if len(made) != 30:
                return y
            if failing == "record-overflows":
                return np.array((np.full(64, 1e-120), y[1]))
            return np.array((np.where(np.arange(64) == 7, -1e-3, y[0]), y[1]))

        def failing_step(profile, kind, epsilon, dt, state=None):
            if profile.t >= 0.15:
                raise StepFailureError(profile.t, dt, "collapsed")
            return real_step(profile, kind, epsilon, dt, state)

        if failing == "step-fails":
            monkeypatch.setattr(flow_mod, "step", failing_step)
            monkeypatch.setattr(flow_mod, "stable_dt", lambda *args: 0.0015)
            message, last = "from t=0.16 failed: collapsed", 0.16
        else:
            monkeypatch.setattr(flow_mod, "_hermite", collapsing)
            message, last = {
                "record-overflows": "non-finite record field E2 (t=0.124)",
                "interpolant-undershoots": "interpolant at t=0.124 lost positivity: f at node 7",
            }[failing], 0.12
        outcomes = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            made.clear()  # each run's interpolants
            path = tmp_path / f"cpus{count}.txt"
            out = tmp_path / f"cpus{count}"
            path.write_text(config_text(out, bundle="torus", t_end="0.4", **DENSE_KEYS))
            assert main(["run", "--config", str(path)]) == 2
            outcomes.append((capsys.readouterr().err, files(out)))
            err = outcomes[-1][0]
            assert err.startswith("error: ") and err.endswith(f"{message}\n")
            times = [float(row.split(",", 1)[0])
                     for row in (out / "series.csv").read_text().splitlines()[1:]]
            assert times == [k * 0.004 for k in range(len(times))]
            assert times[-1] == pytest.approx(last)
        assert outcomes[0] == outcomes[1]
        # the run's steps, under its cap, without the failure
        monkeypatch.setattr(flow_mod, "step", real_step)
        monkeypatch.setattr(flow_mod, "_hermite", hermite)
        assert assert_each_snapshot_is_reached_from_the_last(out, 25) == [0.0, 25 * 0.004]
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_other_snapshot_cadences_land_on_every_record(self, tmp_path, monkeypatch, count):
        # 0.105 is not a whole number of record gaps, so every record time is a landing,
        # as in a record-bound evolve; inf lands on t_end only
        cpus(monkeypatch, count)
        cfg = load_config(config_text(tmp_path / "odd", bundle="torus", t_end="0.4",
                                      **{**DENSE_KEYS, "output.snapshot_every": "0.105"}))
        assert cli._landing_gaps(cfg) == 1
        run_scenario(cfg)
        records = []
        evolve(build_profile(cfg), cfg.flow, sink=lambda rec, prof: records.append(rec))
        want = [cli._series_row(cli._series_values(rec)) for rec in records]
        assert (tmp_path / "odd" / "series.csv").read_text().splitlines()[1:] == want
        assert assert_each_snapshot_is_reached_from_the_last(tmp_path / "odd", 1) == [
            0.0, 27 * 0.004, 53 * 0.004, 79 * 0.004, 0.4]
        cfg = load_config(config_text(tmp_path / "inf", bundle="torus", t_end="0.4",
                                      **{**DENSE_KEYS, "output.snapshot_every": "inf"}))
        assert cli._landing_gaps(cfg) == math.inf
        run_scenario(cfg)
        assert assert_each_snapshot_is_reached_from_the_last(tmp_path / "inf", math.inf) == [
            0.0, 0.4]
        assert_no_child_left()

    @pytest.mark.parametrize("every, snapshot_every, gaps", [
        ("0.002", "0.1", 50), ("0.01", "0.1", 10), ("0.1", "0.3", 3), ("0.004", "0.004", 1),
        ("0.004", "0.002", 1), ("0.004", "0.105", 1), ("0.1", "inf", math.inf),
    ])
    def test_landing_gaps(self, every, snapshot_every, gaps):
        keys = {"record_every": every, "output.snapshot_every": snapshot_every}
        cfg = load_config(config_text("out", bundle="torus", t_end="1.0", **keys))
        assert cli._landing_gaps(cfg) == gaps
        # a sphere run lands on every record time, whatever its snapshot grid
        cfg = load_config(config_text("out", bundle="sphere", t_end="1.0", **keys))
        assert cli._landing_gaps(cfg) == 1

    @pytest.mark.parametrize("count", [1, 2])
    def test_sphere_run_is_record_bound(self, tmp_path, monkeypatch, count):
        cpus(monkeypatch, count)
        cfg = load_config(config_text(tmp_path / "out", bundle="sphere", t_end="0.4",
                                      **DENSE_KEYS))
        run_scenario(cfg)
        records = []
        evolve(build_profile(cfg), cfg.flow, sink=lambda rec, prof: records.append(rec))
        want = [cli._series_row(cli._series_values(rec)) for rec in records]
        assert (tmp_path / "out" / "series.csv").read_text().splitlines()[1:] == want
        assert_no_child_left()


def keep_tables(monkeypatch):
    """Keep each series table that `cli` hands to `evaluate_claims`, in call order."""
    tables, evaluate = [], cli.evaluate_claims

    def keeping(table, *args):
        tables.append(table)
        return evaluate(table, *args)

    monkeypatch.setattr(cli, "evaluate_claims", keeping)
    return tables


class TestCheckSeries:
    def test_reproduces_run_verdicts(self, tmp_path, capsys, monkeypatch):
        tables = keep_tables(monkeypatch)
        for kind in BundleKind:
            out = tmp_path / kind.value
            cfg = load_config(config_text(out, bundle=kind.value, t_end="0.2"))
            status = run_scenario(cfg)
            check_status = check_series(out / "series.csv", kind)
            printed = capsys.readouterr().out
            claims_file = (out / "claims.txt").read_text()
            assert check_status == status
            assert printed == claims_file
            # the table that this process's record path made is the one the file reads back
            ran, checked = tables[-2:]
            assert ran.tobytes() == checked.tobytes()

    def test_grid_flags_set_the_tolerance_dx(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_scenario(load_config(config_text(out, bundle="torus", t_end="0.2", **{"grid.n": "64"})))
        series = out / "series.csv"
        status = main(["check", "--series", str(series), "--kind", "torus", "--n", "64"])
        printed = capsys.readouterr().out
        tolerances = ClaimTolerances(dx=TWO_PI / 64)
        assert check_series(series, BundleKind.TORUS, tolerances=tolerances) == status
        assert capsys.readouterr().out == printed
        check_series(series, BundleKind.TORUS)  # default tolerances: the n = 256 grid
        assert capsys.readouterr().out != printed

    @pytest.mark.parametrize("flag, values, message", [
        ("--n", ["0", "-4", "7"], "--n must be >= 8, got {}"),
        ("--period", ["0", "-1.5", "nan", "inf"], "--period must be finite and positive, got {}"),
    ])
    def test_check_rejects_bad_grid_flags(self, tmp_path, capsys, flag, values, message):
        out = tmp_path / "out"
        run_scenario(load_config(config_text(out, bundle="torus", t_end="0.2")))
        for value in values:
            argv = ["check", "--series", str(out / "series.csv"), "--kind", "torus", flag, value]
            assert main(argv) == 2
            expected = message.format(int(value) if flag == "--n" else repr(float(value)))
            assert capsys.readouterr().err == f"error: {expected}\n"


class TestMain:
    def test_run_command(self, tmp_path):
        path = tmp_path / "cfg.txt"
        # the growth proxy threshold is scaled down to suit the short horizon
        path.write_text(config_text(
            tmp_path / "out", bundle="torus", t_end="0.1",
            **{"tol.delta_l_frac": "1e-5"},
        ))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "series.csv").exists()
        assert (tmp_path / "out" / "claims.txt").exists()

    def test_curvature_command(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="sphere", t_end="0.1"))
        assert main(["curvature", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "curvature.csv").exists()

    def test_check_command(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(
            tmp_path / "out", bundle="torus", t_end="2.0",
            **{"tol.delta_l_frac": "1e-4"},
        ))
        main(["run", "--config", str(path)])
        series = tmp_path / "out" / "series.csv"
        # default check tolerances keep delta_l_frac = 0.005; this run clears it
        assert main(["check", "--series", str(series), "--kind", "torus"]) == 1
        assert check_series(
            series, BundleKind.TORUS,
            tolerances=ClaimTolerances(dx=TWO_PI / 256, delta_l_frac=1e-4),
        ) == 0

    def test_eps_sweep_command(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.1"))
        assert main(["eps-sweep", "--config", str(path), "--epsilons", "1e-2,1e-3"]) == 0
        assert (tmp_path / "out" / "eps_sweep.csv").exists()

    def test_stationary_torus_warns_once(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(
            tmp_path / "out", bundle="torus", t_end="1.0",
            **{"profile.amplitude": "0.0", "record_every": "0.25"},
        ))
        with pytest.warns(StationaryFlowWarning) as caught:
            assert main(["run", "--config", str(path)]) == 0
        assert len([w for w in caught if w.category is StationaryFlowWarning]) == 1

    def test_steep_sphere_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(
            out, bundle="sphere", t_end="1.0", **{"profile.amplitude": "0.3"},
        ))
        assert main(["run", "--config", str(path)]) == 2
        assert "sphere runs require sup|g_s| <= 0.25" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_first_record_leaves_no_snapshot(self, tmp_path, capsys):
        # the t=0 record of f = 1e-120 overflows, so the run has nothing to checkpoint
        n = 64
        snap = tmp_path / "tiny_f.json"
        profile = sinusoid_profile(n, TWO_PI, 2.0, 0.1, 1)
        save_snapshot(dataclasses.replace(profile, f=np.full(n, 1e-120)), snap)
        out = tmp_path / "out"
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(
            out, bundle="torus", t_end="1.0",
            **{"grid.n": str(n), "profile.family": "file", "profile.path": str(snap)},
        ))
        assert main(["run", "--config", str(path)]) == 2
        assert "error: non-finite record field E2 (t=0.0)" in capsys.readouterr().err
        assert (out / "series.csv").read_text().splitlines() == [SERIES_HEADER]
        assert list(out.glob("snap_*.json")) == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("bundle = torus\n")  # missing t_end
        assert main(["run", "--config", str(path)]) == 2
        assert "t_end" in capsys.readouterr().err


NUMERIC_KEYS = [
    "t_end", "epsilon", "record_every", "theta",
    "grid.n", "grid.period", "profile.base", "profile.amplitude",
    "profile.wavenumber", "output.snapshot_every",
] + [
    f"tol.{f.name}" for f in dataclasses.fields(ClaimTolerances)
    if f.name not in ("dx", "theta")
]


class TestConfigValidation:
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_nan_rejected_at_its_line(self, key):
        keys = {"bundle": "torus", "t_end": "1.0", "grid.n": "64", key: "nan"}
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ConfigError, match="nan") as err:
            load_config(text)
        assert err.value.line == list(keys).index(key) + 1

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tol.rate_rel", "-1", "rate_rel must be finite and >= 0, got -1.0"),
            ("tol.growth_cap", "inf", "growth_cap must be finite and >= 0, got inf"),
            ("tol.rate_abs", "0", "rate_abs must be finite and positive, got 0.0"),
        ],
    )
    def test_tolerance_rejected_at_its_line(self, key, value, message):
        text = f"bundle = torus\nt_end = 1.0\n{key} = {value}\n"
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("key", ["tol.dx", "tol.theta"])
    def test_grid_and_theta_not_tolerance_keys(self, key):
        with pytest.raises(ConfigError, match=f"line 3: unknown tolerance key '{key}'"):
            load_config(f"bundle = torus\nt_end = 1.0\n{key} = 0.5\n")

    def test_theta_message_matches_owner(self):
        with pytest.raises(ValueError) as owner:
            ClaimTolerances(theta=5)
        with pytest.raises(ConfigError) as err:
            load_config("bundle = torus\nt_end = 1.0\ntheta = 5\n")
        assert str(err.value) == f"line 3: {owner.value}"

    def test_amplitude_error_falls_back_to_base_line(self):
        with pytest.raises(ConfigError) as err:
            load_config("bundle = torus\nt_end = 1.0\nprofile.base = 0.05\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("key", ["t_end", "epsilon", "record_every", "grid.period",
                                     "profile.base"])
    def test_inf_rejected_at_its_line(self, tmp_path, capsys, key):
        keys = {"bundle": "torus", "t_end": "1.0", "grid.n": "64", key: "inf"}
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        message = f"line {list(keys).index(key) + 1}: {key} must be finite, got inf"
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert str(err.value) == message
        path = tmp_path / "cfg.txt"
        path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bundle = torus\nt_end = 1.0\ngrid.n = 4\n", "line 3: grid.n must be >= 8, got 4"),
            ("bundle = torus\nt_end = 1.0\nprofile.wavenumber = 0\n",
             "line 3: profile.wavenumber must be a positive integer, got 0"),
            ("bundle = torus\nt_end = 1.0\nprofile.family = spline\n",
             "line 3: profile.family must be 'sinusoid' or 'file', got 'spline'"),
            ("bundle = torus\nt_end 6\n", "line 2: expected `key = value`"),
        ],
        ids=["small-grid", "zero-wavenumber", "unknown-family", "no-equals"],
    )
    def test_rejected_with_message(self, text, message):
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", ["2.5", "inf"])
    def test_integer_keys_need_integers(self, value):
        with pytest.raises(ConfigError, match=f"line 3: grid.n must be an integer, got '{value}'"):
            load_config(f"bundle = torus\nt_end = 1.0\ngrid.n = {value}\n")


class TestEpsilonSweepValidation:
    @pytest.mark.parametrize(
        "epsilons, message",
        [
            ([1e-2, -1e-3], "epsilon must be >= 0, got -0.001"),
            ([float("nan")], "epsilon must be >= 0, got nan"),
            ([], r"epsilons must list at least one epsilon, got \[\]"),
        ],
    )
    def test_rejected_before_any_member_runs(self, tmp_path, epsilons, message):
        cfg = load_config(config_text(tmp_path / "out", bundle="torus", t_end="0.2"))
        with pytest.raises(ValueError, match=message):
            epsilon_sweep(cfg, epsilons)
        assert not list(tmp_path.glob("out/eps_*"))


class TestMalformedInputs:
    def test_nan_in_series_fails_check(self, tmp_path):
        out = tmp_path / "out"
        cfg = load_config(config_text(
            out, bundle="torus", t_end="1.0",
            **{"profile.amplitude": "0.0", "record_every": "0.25"},
        ))
        with pytest.warns(StationaryFlowWarning):
            run_scenario(cfg)
        series = out / "series.csv"
        assert main(["check", "--series", str(series), "--kind", "torus"]) == 0
        header, *rows = series.read_text().splitlines()
        column = header.split(",").index("L")
        cells = rows[2].split(",")
        cells[column] = "nan"
        rows[2] = ",".join(cells)
        series.write_text("\n".join([header, *rows]) + "\n")
        assert main(["check", "--series", str(series), "--kind", "torus"]) == 1

    @pytest.mark.parametrize("kind, column, claim_id", [
        ("torus", "L", "T-L5"),
        ("torus", "V", "T-C7"),
        ("torus", "dL_dt_formula", "T-L5"),
        ("sphere", "g_max", "S-L8"),
    ])
    def test_inf_in_series_fails_check_quietly(self, tmp_path, capsys, kind, column, claim_id):
        out = tmp_path / "out"
        run_scenario(load_config(config_text(out, bundle=kind, t_end="0.2", **{"grid.n": "32"})))
        series = out / "series.csv"
        argv = ["check", "--series", str(series), "--kind", kind]
        main(argv)
        assert f"{claim_id} pass " in capsys.readouterr().out
        header, *rows = series.read_text().splitlines()
        cells = rows[2].split(",")
        cells[header.split(",").index(column)] = "inf"
        rows[2] = ",".join(cells)
        series.write_text("\n".join([header, *rows]) + "\n")
        assert main(argv) == 1
        printed = capsys.readouterr()
        assert f"{claim_id} fail measured=nan " in printed.out
        assert printed.err == ""

    @pytest.mark.parametrize(
        "body, message",
        [("t,V\n0.0,1.0\n", "series.csv: series has no column 'L'"),
         (SERIES_HEADER + "\n0.0\n", "series.csv: line 2: row has 1 cells, header has 17"),
         (SERIES_HEADER + "\n" + ",".join(["0.0"] * 18) + "\n",
          "series.csv: line 2: row has 18 cells, header has 17"),
         (SERIES_HEADER + "\n" + series_row() + "\n" + series_row(zero_count="2.5") + "\n",
          "series.csv: line 3: column 'zero_count': invalid literal for int() with base 10: '2.5'"),
         (SERIES_HEADER + "\n" + series_row(L="abc") + "\n",
          "series.csv: line 2: column 'L': could not convert string to float: 'abc'"),
         (SERIES_HEADER + "\n" + series_row(zero_count="1" + "0" * 400) + "\n",
          "series.csv: line 2: column 'zero_count': int too large to convert to float")],
        ids=["missing-column", "short-row", "long-row", "fractional-count", "not-a-number",
             "huge-count"],
    )
    def test_malformed_series_exits_2(self, tmp_path, capsys, body, message):
        series = tmp_path / "series.csv"
        series.write_text(body)
        assert main(["check", "--series", str(series), "--kind", "torus"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("times", [("0.0", "0.5", "inf"), ("-inf", "0.0", "0.5")],
                             ids=["last-inf", "first-minus-inf"])
    def test_infinite_time_exits_2(self, tmp_path, capsys, times):
        # in order, yet no claim can read it; MetricProfile rejects such a t, so only a
        # hand-made series carries one
        series = tmp_path / "series.csv"
        series.write_text("\n".join([SERIES_HEADER, *(series_row(t=t) for t in times)]) + "\n")
        assert main(["check", "--series", str(series), "--kind", "torus"]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == "error: records must be ordered by strictly increasing finite t\n"

    def test_snapshot_without_field_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        save_snapshot(sinusoid_profile(16, TWO_PI, 2.0, 0.1, 1), snap)
        data = json.loads(snap.read_text())
        del data["g"]
        snap.write_text(json.dumps(data))
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.1"))
        assert main(["run", "--config", str(path), "--resume", str(snap)]) == 2
        assert f"{snap}: snapshot has no field 'g'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("t", None, "snap.json: snapshot has a field of the wrong type"),
        ("f", {"0": 1.0}, "snap.json: snapshot has a field of the wrong type"),
        ("n", [16], "snap.json: snapshot has a field of the wrong type"),
        ("n", 16.7, "n must be an integer >= 8, got 16.7"),  # no longer truncated to 16
        # values that MetricProfile rejects, prefixed with the path
        ("n", 16.7, "snap.json: n must be an integer >= 8, got 16.7"),
        ("f", [1.0] * 15, "snap.json: f must have shape (16,), got (15,)"),
        ("g", [2.0] * 15 + [0.0], "snap.json: g must be strictly positive everywhere"),
        ("f", [1.0] * 15 + [math.inf], "snap.json: f contains non-finite samples"),
        ("f", "abc", "snap.json: could not convert string to float: 'abc'"),
    ], ids=["t-null", "f-object", "n-list", "n-fraction", "n-fraction-path", "f-short",
            "g-zero", "f-inf", "f-string"])
    def test_snapshot_field_of_wrong_type_exits_2(self, tmp_path, capsys, field, value, message):
        snap = tmp_path / "snap.json"
        save_snapshot(sinusoid_profile(16, TWO_PI, 2.0, 0.1, 1), snap)
        data = json.loads(snap.read_text())
        data[field] = value
        snap.write_text(json.dumps(data))
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.1"))
        assert main(["run", "--config", str(path), "--resume", str(snap)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["[1, 2]", "3"])
    def test_snapshot_not_an_object_exits_2(self, tmp_path, capsys, body):
        snap = tmp_path / "snap.json"
        snap.write_text(body)
        with pytest.raises(ValueError) as err:
            load_snapshot(snap)
        assert str(err.value) == f"{snap}: snapshot is not a JSON object"
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.1"))
        assert main(["run", "--config", str(path), "--resume", str(snap)]) == 2
        assert f"{snap}: snapshot is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (b"{", "Expecting property name enclosed in double quotes"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["not-json", "not-utf-8"])
    def test_snapshot_not_json_names_the_file(self, tmp_path, capsys, body, message):
        snap = tmp_path / "snap.json"
        snap.write_bytes(body)
        with pytest.raises(ValueError) as err:
            load_snapshot(snap)
        assert str(err.value).startswith(f"{snap}: {message}")
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(tmp_path / "out", bundle="torus", t_end="0.1"))
        assert main(["run", "--config", str(path), "--resume", str(snap)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {snap}: {message}")
