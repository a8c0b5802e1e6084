"""Each demo script, and each command line of the README, runs to the end
against the library in `src/`."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ottochain.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
COMMANDS = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("ottochain ")]
# the rows each README command writes, in the README's order
ROWS = [30, 40, 22, 6, 450, 10]


def test_every_demo_is_collected():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_readme_command_is_collected():
    assert len(COMMANDS) == len(ROWS)


@pytest.mark.parametrize("command,rows", zip(COMMANDS, ROWS), ids=COMMANDS)
def test_readme_command_exits_zero(command, rows, tmp_path):
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "ottochain.cli", *argv], cwd=tmp_path,
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = (tmp_path / argv[argv.index("--out") + 1]).read_text() if "--out" in argv \
        else proc.stdout
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 1 + rows


@pytest.mark.parametrize("command,rows", zip(COMMANDS, ROWS), ids=COMMANDS)
def test_readme_command_json_is_strict(command, rows, tmp_path):
    # each README table as JSON, parsed without the Infinity and NaN
    # extensions, dumps back to the same text
    out = tmp_path / "out.json"
    assert main(shlex.split(command)[1:] + ["--format", "json", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = out.read_text()
    payload = json.loads(text, parse_constant=reject)
    assert len(payload["rows"]) == rows
    assert json.dumps(payload, indent=1, allow_nan=False) + "\n" == text
