"""Smoke test: every demo script runs to completion and prints its story."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)     # land_static writes its trial CSV here
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
