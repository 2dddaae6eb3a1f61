"""The README's quick start and configuration reference, run against the code."""

import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from xcflow import ConfigError, FlowConfig, load_config, main
from xcflow.cli import CURVATURE_HEADER, SERIES_HEADER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """Text of the `## title` section, up to the next second-level heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text):
    return re.findall(r"^```\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def table_keys():
    """(key, default cell) of each row of the configuration table."""
    return re.findall(r"^\| `([^`]+)` \| (.*?) \|", section("Configuration reference"),
                      flags=re.MULTILINE)


@pytest.mark.one_cpu
def test_quick_start_commands_exit_0(tmp_path, monkeypatch):
    config, commands = code_blocks(section("Quick start"))
    name = config.splitlines()[0].lstrip("# ").strip()  # the block opens with `# torus.cfg`
    (tmp_path / name).write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("XCF_OUT", raising=False)
    argvs = [shlex.split(line, comments=True) for line in commands.splitlines()]
    assert [argv[:2] for argv in argvs] == [
        ["xcf", "run"], ["xcf", "curvature"], ["xcf", "check"], ["xcf", "eps-sweep"],
    ]
    for argv in argvs:
        assert main(argv[1:]) == 0, argv


def test_output_columns_match_the_writers():
    outputs = section("Outputs")
    assert code_blocks(outputs)[0] == SERIES_HEADER + "\n"
    curvature = next(p for p in outputs.split("\n\n") if p.startswith("`curvature.csv`"))
    # the first backquoted comma-separated list of the paragraph
    assert re.search(r"`([^`]*,[^`]*)`", curvature).group(1) == CURVATURE_HEADER


def test_table_keys_load():
    keys = table_keys()
    assert len(keys) > 10
    for key, default in keys:
        if key == "tol.<name>":
            continue
        # a literal default is used as the value; `required`, `2 * pi` and the like are not
        literal = re.fullmatch(r"`([^` ]+)`", default)
        entries = {"bundle": "torus", "t_end": "1.0"}
        entries.setdefault(key, literal.group(1) if literal else "1")
        load_config("".join(f"{k} = {v}\n" for k, v in entries.items()))


def test_table_lists_every_flow_field():
    documented = {key for key, _ in table_keys()}
    fields = {f.name for f in dataclasses.fields(FlowConfig)} - {"kind", "tolerances"}
    assert fields <= documented


def test_documented_tolerance_keys():
    # the reference names tol.dx and tol.theta as unknown keys; every other tol. key loads
    unknown = set()
    for key in sorted(set(re.findall(r"`(tol\.\w+)`", section("Configuration reference")))):
        try:
            load_config(f"bundle = torus\nt_end = 1.0\n{key} = 0.5\n")
        except ConfigError as err:
            assert str(err) == f"line 3: unknown tolerance key {key!r}"
            unknown.add(key)
    assert unknown == {"tol.dx", "tol.theta"}


@pytest.mark.parametrize("key", ["safety", "dt_max"])
def test_removed_step_keys_are_unknown(tmp_path, capsys, key):
    text = f"bundle = torus\nt_end = 1.0\n{key} = 0.5\noutput.dir = {tmp_path / 'out'}\n"
    assert key not in {k for k, _ in table_keys()}
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert str(err.value) == f"line 3: unknown key {key!r}"
    path = tmp_path / "cfg.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert f"error: line 3: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
