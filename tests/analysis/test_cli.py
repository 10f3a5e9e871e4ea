"""The ``python -m repro.analysis`` command line front-end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro.analysis.cli import main
from repro.analysis.passes import PASSES

from . import test_aggregate, test_dist, test_mem, test_par

REPO = Path(__file__).resolve().parents[2]

BAD_MODULE = textwrap.dedent(
    """\
    import time
    from dataclasses import dataclass

    from repro import ComponentDefinition, Event, PortType, handles


    @dataclass(frozen=True)
    class Tick(Event):
        n: int = 0


    class TickPort(PortType):
        positive = (Tick,)
        negative = ()


    class Sleepy(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.requires(TickPort)
            self.subscribe(self.on_tick, self.port)

        @handles(Tick)
        def on_tick(self, event):
            time.sleep(1)
            event.n = 7
    """
)

CLEAN_MODULE = textwrap.dedent(
    """\
    from dataclasses import dataclass

    from repro import ComponentDefinition, Event, PortType, handles


    @dataclass(frozen=True)
    class Tick(Event):
        n: int = 0


    class TickPort(PortType):
        positive = (Tick,)
        negative = ()


    class Quiet(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.requires(TickPort)
            self.subscribe(self.on_tick, self.port)

        @handles(Tick)
        def on_tick(self, event):
            self.last = event.n
    """
)


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text(CLEAN_MODULE)
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_text_report(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "A001" in out and "A002" in out
    assert "bad.py" in out
    assert "2 finding(s)" in out


def test_json_report_shape(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["total"] == 2
    assert report["counts"] == {"A001": 1, "A002": 1}
    rules = {f["rule"] for f in report["findings"]}
    assert rules == {"A001", "A002"}
    assert all("file" in f and "line" in f for f in report["findings"])


def test_select_and_ignore_flags(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path), "--select", "A002"]) == 1
    assert main([str(tmp_path), "--ignore", "A001,A002"]) == 0


def test_config_file_is_honored(tmp_path, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "bad.py").write_text(BAD_MODULE)
    (project / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nignore = ["A001", "A002"]\n'
    )
    assert main([str(project)]) == 0
    capsys.readouterr()
    # Bad config keys are a usage error, not a crash.
    (project / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nbogus_key = true\n'
    )
    assert main([str(project)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert "no paths" in capsys.readouterr().err
    assert main([str(tmp_path / "missing_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("A001", "A005", "W001", "W004", "S001", "S002"):
        assert rule_id in out


def test_module_invocation_on_own_source_tree():
    """The repository gates CI on this exact invocation staying clean."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro", "examples"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_lint_path_does_not_import_the_simulation():
    """The lint CLI (registry and every static pass included) stays free
    of the simulation stack; only ``race`` pulls it in."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = (
        "import sys\n"
        "from repro.analysis.cli import main\n"
        "assert main(['examples']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.simulation')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ------------------------------------------- every registered pass's CLI


@dataclass(frozen=True)
class Case:
    """One CLI run over a fixture; ``{sarif}``/``{config}`` in ``args``
    stand for files the test writes."""

    fixture: str
    args: tuple[str, ...] = ()
    code: int = 1
    #: rule ids expected in report order (JSON report, or SARIF results)
    rules: Optional[list[str]] = None
    #: run under ``all`` and read this pass's section of the report
    under_all: bool = False
    #: body of the ``[tool.repro.analysis]`` table passed via ``--config``
    pyproject: Optional[str] = None


JSON = ("--format", "json")
SARIF = ("--sarif", "{sarif}")

CLI_CASES: dict[str, list[Case]] = {
    "lint": [
        Case(BAD_MODULE, JSON, rules=["A002", "A001"]),
        Case(BAD_MODULE, SARIF, rules=["A002", "A001"]),
    ],
    "flow": [
        Case(test_aggregate.DIRTY_SOURCE, JSON, rules=["F002", "F003"]),
        Case(test_aggregate.DIRTY_SOURCE, ("--ignore", "F003")),
        Case(test_aggregate.DIRTY_SOURCE, ("--select", "A"), code=0),
    ],
    "dist": [
        Case(test_dist.D001_FIXTURE, JSON, rules=["D001"] * 3),
        Case(test_dist.D001_FIXTURE, ("--ignore", "D001"), code=0),
        Case(test_dist.D001_FIXTURE, ("--select", "D001")),
        Case(test_dist.D001_FIXTURE, SARIF, rules=["D001"] * 3),
    ],
    "mem": [
        # M001 x2 plus the M005 on GrowsDynamically.stamp
        Case(test_mem.M001_FIXTURE, JSON, rules=["M001", "M001", "M005"]),
        Case(test_mem.M001_FIXTURE, ("--ignore", "M001,M005"), code=0),
        Case(test_mem.M001_FIXTURE, ("--select", "M001")),
        Case(test_mem.M001_FIXTURE, ("--select", "M006"), code=0),
        Case(test_mem.M001_FIXTURE, SARIF, rules=["M001", "M001", "M005"]),
        Case(test_mem.M001_FIXTURE, JSON, rules=["M001", "M001", "M005"], under_all=True),
    ],
    "par": [
        Case(test_par.P001_FIXTURE, JSON, rules=["P001"] * 3),
        Case(test_par.P005_FIXTURE, ("--ignore", "P005"), code=0),
        Case(test_par.P005_FIXTURE, ("--select", "P005")),
        Case(test_par.P005_FIXTURE, ("--select", "P003"), code=0),
        Case(test_par.P004_FIXTURE, SARIF, rules=["P004", "P004"]),
        Case(
            test_par.P005_FIXTURE, ("--config", "{config}"), code=0,
            pyproject='ignore = ["P005"]',
        ),
        Case(test_par.P006_FIXTURE, JSON, rules=["P006"], under_all=True),
    ],
}


def test_every_registered_pass_has_cli_cases():
    assert set(CLI_CASES) == set(PASSES)


@pytest.mark.parametrize("name", list(PASSES))
def test_cli_surface(name, tmp_path, capsys):
    """Exit codes 0/1/2, --select/--ignore, --sarif, --format json and
    --config, for each pass alone and for its section of ``all``."""
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([name, str(clean)]) == 0
    assert main([name, str(tmp_path / "missing.py")]) == 2
    path = tmp_path / "mod.py"
    sarif = tmp_path / "out.sarif"
    # Outside the fixture's parent chain, so only --config finds it.
    config = tmp_path / "conf" / "pyproject.toml"
    config.parent.mkdir()
    for case in CLI_CASES[name]:
        path.write_text(textwrap.dedent(case.fixture))
        if case.pyproject is not None:
            config.write_text(f"[tool.repro.analysis]\n{case.pyproject}\n")
        args = [a.format(sarif=sarif, config=config) for a in case.args]
        argv = ["all" if case.under_all else name, str(path), *args]
        capsys.readouterr()
        assert main(argv) == case.code, argv
        out = capsys.readouterr().out
        if case.rules is None:
            continue
        if "--sarif" in case.args:
            log = json.loads(sarif.read_text())
            assert log["version"] == "2.1.0"
            got = [r["ruleId"] for r in log["runs"][0]["results"]]
        else:
            report = json.loads(out)
            if case.under_all:
                report = report["passes"][name]
            assert report["total"] == len(case.rules)
            got = [f["rule"] for f in report["findings"]]
        assert got == case.rules, argv


@pytest.mark.parametrize("command", [(), ("dist",), ("all",)], ids=["lint", "dist", "all"])
@pytest.mark.parametrize("flag", ["--select", "--ignore"])
def test_unknown_rule_pattern_is_a_usage_error(command, flag, tmp_path, capsys):
    """A mistyped rule on the command line fails like one in pyproject."""
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([*command, str(tmp_path), flag, "A001,A0002"]) == 2
    assert "unknown rule or prefix 'A0002'" in capsys.readouterr().err
    assert main([*command, str(tmp_path), flag, "Q"]) == 2
