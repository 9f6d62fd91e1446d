"""The script under scripts/, run as a fresh process with small arguments:
exit status 0, the files it writes and the residuals it prints."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_recurrence_tables(tmp_path):
    done = run_script(
        "recurrence_tables.py",
        ["--families", "cartan-m1", "ot-1", "--points", "5", "--prefix", "rec"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    for name in ("cartan-m1", "ot-1"):
        lines = (tmp_path / f"rec-{name}.csv").read_text().splitlines()
        assert lines[0].startswith("t,Q1,")
        assert len(lines) == 1 + 5
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    residuals = [float(v) for row in rows if len(row) == 4 for v in row[2:]]
    assert len(residuals) == 4
    assert max(residuals) < 1e-12

