"""Every script in ``demos/`` runs to completion against ``src`` and prints
the same bytes: the sha1 of each demo's stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA1 = {
    "del_pezzo_certificates.py": "9fff19aa7936173b86ee96599c3336f43d118348",
    "ruled_degree_bounds.py": "d65ef39ac9fdf726947f3aaacf15027277384893",
    "ternary_forms.py": "409a2e23ad7d5ad53a4dab5e1eb93a467441977b",
}


def test_demos_exist():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA1)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    stderr = proc.stderr.decode()
    assert proc.returncode == 0, stderr
    assert proc.stdout.strip()
    assert b"Traceback" not in proc.stdout and "Traceback" not in stderr
    assert hashlib.sha1(proc.stdout).hexdigest() == STDOUT_SHA1[demo.name]
