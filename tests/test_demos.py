"""The demos and the README's examples run against the package."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mlrank
from mlrank.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mlrank.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no warnings either


def test_readme_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imports = [line for block in blocks for line in block.splitlines()
               if re.match(r"(from mlrank[\w.]* import |import mlrank)", line)]
    assert imports
    for line in imports:
        exec(line, {})


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # pairs each fence with its closer, whatever the block's language
    blocks = re.findall(r"^```\w*\n(.*?)^```$", readme, flags=re.M | re.S)
    commands = [line.split()[1:] for block in blocks for line in block.splitlines()
                if line.startswith("mlrank ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func is not None, argv


def test_readme_names_only_existing_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for sub in subparsers.choices.values()
               for option in sub._option_string_actions}
    # every --flag but pip's, from the installation command
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) - {"--no-build-isolation"}
    assert named
    assert named <= options, sorted(named - options)
