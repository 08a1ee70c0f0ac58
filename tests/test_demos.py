"""Each demo's stdout, byte for byte, against the copy kept in tests/data."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spechtstat

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _masked(name: str, text: str) -> str:
    # Demo 04 prints wall times; only their figures are masked.
    if name.startswith("04_"):
        return re.sub(r"\d+\.\d+ s$", "<seconds> s", text, flags=re.M)
    return text


def test_every_demo_has_its_expected_output():
    assert [d.stem for d in DEMOS] == [
        "01_decomposition_walkthrough",
        "02_specht_polytabloids",
        "03_character_tables",
        "04_projection_oracle",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / f"demo_{demo.stem}.txt").read_text()
    assert _masked(demo.stem, proc.stdout) == want
