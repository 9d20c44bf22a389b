"""The package's exported names, and the demo script and README quick starts
that use them."""

import os
import re
import runpy
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import shallowcut
from shallowcut.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo_pipeline.py"
README = ROOT / "README.md"


def test_every_export_resolves_once():
    assert [name for name, k in Counter(shallowcut.__all__).items() if k > 1] == []
    assert [name for name in shallowcut.__all__ if not hasattr(shallowcut, name)] == []


def test_demo_pipeline_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--seed", "0"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the demo prepends src/
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("verified=True") == 2
    assert "clamps=0" in out


def test_demo_pipeline_runs_from_any_directory(tmp_path):
    """The usage line works without PYTHONPATH or an installed package: the
    script finds the checkout's src/ itself."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(DEMO), "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("verified=True") == 2


def test_readme_python_quick_start_runs(capsys):
    """README's Python block runs as written: the shortcut passes its check
    and the hopset needs no clamp."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    shortcut_line, hopset_line = capsys.readouterr().out.splitlines()
    assert shortcut_line.split()[1] == "True"
    assert hopset_line.split()[1] == "0"


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Each `shallowcut` line of README's shell blocks runs as written, in
    order and in one directory, and exits 0."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("shallowcut ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
