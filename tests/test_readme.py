"""Every ```python block of the README runs against the installed package,
and every ``popres`` command in its ```sh blocks parses with the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from popres import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# continuation lines joined and shell variables ($B, ${B}, $j) set to 5
COMMANDS = [
    shlex.split(re.sub(r"\$\{?\w+\}?", "5", line), comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.lstrip().startswith("popres ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)


def test_readme_has_popres_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"command{i}-{a[0]}" for i, a in enumerate(COMMANDS)])
def test_readme_command_parses(argv):
    # argparse exits on an unknown flag or a bad value; nothing is executed
    cli.build_parsers()[0].parse_args(argv)


STUDIES = [argv for argv in COMMANDS if argv[0] == "study"]


@pytest.mark.parametrize("argv", STUDIES, ids=[f"study{i}" for i in range(len(STUDIES))])
def test_readme_study_command_builds_its_spec(argv, monkeypatch, capsys):
    # StudySpec refuses a setting its study does not read; the study itself is not run
    monkeypatch.setattr(cli, "run_study", lambda spec, out: out)
    assert cli.main(argv) == cli.EXIT_OK
