"""The scripts under scripts/, each run as a fresh process with small
arguments: exit status 0 and the files it writes."""

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


def test_alpha_scan(tmp_path):
    done = run_script(
        "alpha_scan.py",
        ["--family", "fkm", "--m", "1", "--r", "3", "--levels", "2",
         "--samples", "5", "--csv", "alpha.csv"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "alpha.csv").read_text().splitlines()
    assert lines[0] == "index,level,alpha,omega,l"
    assert len(lines) == 1 + 2 * 5


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


def test_riccati_trajectories(tmp_path):
    done = run_script(
        "riccati_trajectories.py",
        ["--steps", "11", "--rk4-steps", "200", "--out", "traj.csv"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0].startswith("t,mu1,")
    assert f"# wrote {len(lines) - 1} rows to traj.csv" in done.stdout
