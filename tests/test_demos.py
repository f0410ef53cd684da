"""Each demo, and the README's quickstart, runs end to end as a script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd) -> subprocess.CompletedProcess:
    # warnings are errors here as in the test suite
    command = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
               *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_all_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # a temporary working directory, since demos 03 and 04 write to ./out
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_readme_quickstart_runs(tmp_path):
    # the README's one python block, run as written, with its own asserts
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Mbps" in proc.stdout
