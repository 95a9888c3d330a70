"""Every demo and the README's Python quickstart run to completion, the
demos leave no temporary files behind, and the README's verify sample is
real output."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from burling.cli import run

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(scratch.iterdir()) == []


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_verify_sample_matches_cli(tmp_path, capsys):
    text = (ROOT / "README.md").read_text()
    after = text.split("`verify` prints one line per condition", 1)[1]
    block = re.search(r"^```\n(.*?)^```", after, re.S | re.M).group(1)
    sample = [line for line in block.splitlines() if ": HOLDS " in line]
    assert sample
    g3 = tmp_path / "g3.graph"
    assert run(["generate", "--mode", "graft", "--k", "3", "--out", str(g3)]) == 0
    assert run(["verify", "--in", str(g3)]) == 0
    cli = {line.split(":")[0]: line
           for line in capsys.readouterr().out.splitlines()}
    for line in sample:
        assert cli[line.split(":")[0]] == line
