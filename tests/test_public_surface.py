"""The package's exported names, and the demo script that imports them."""

import runpy
import sys
from collections import Counter
from pathlib import Path

import shallowcut

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo_pipeline.py"


def test_every_export_resolves_once():
    assert [name for name, k in Counter(shallowcut.__all__).items() if k > 1] == []
    assert [name for name in shallowcut.__all__ if not hasattr(shallowcut, name)] == []


def test_demo_pipeline_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--seed", "0"])
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("verified=True") == 2
    assert "clamps=0" in out
