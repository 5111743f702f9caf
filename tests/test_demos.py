"""Every demo under demos/ runs to completion against the package in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "patch_similarity.py",
        "sensitivity_walkthrough.py",
        "train_and_eval.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_train_and_eval_reruns_print_identical_output(tmp_path):
    demo = ROOT / "demos" / "train_and_eval.py"
    first, second = _run(demo, tmp_path), _run(demo, tmp_path)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout and first.stdout == second.stdout
