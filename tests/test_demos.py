"""Smoke test: every script in demos/ runs to completion in-process."""

import pathlib
import runpy

import numpy as np
import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with np.printoptions(**np.get_printoptions()):  # demos set print options globally
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
