"""Every script under ``demos/`` runs to the end, as ``python demos/<name>.py`` runs it.

The scripts run in-process, so the suite's ``error::RuntimeWarning`` filter
turns a numpy overflow or invalid-value warning in a demo into a failure.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would parametrize no demo test at all


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
