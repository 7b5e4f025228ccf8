"""The narrated walkthroughs in demos/ run to the end.

They call the checkers and the pipeline the way a reader would, so a change
to a public signature breaks them here first.
"""

import contextlib
import io
import pathlib
import runpy
import sys

import pytest

DEMOS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
