"""Workload definitions and the per-invocation correctness gate.

Shared by the orchestrator (run.py), the in-process worker (worker.py) and
the reference recorder (record_reference.py).  Nothing here imports isopar,
so importing this module costs no measured time.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

SCHEMA = "isopar-report/1"
# Seed the committed reference reports were recorded at; byte drift
# (cli.report_changed) is only measurable at this seed.
REFERENCE_SEED = 2024

# The eight README commands, verbatim.
README = [
    "verify-cm --family cartan --m 1",
    "verify-cm --family fkm --m 2 --r 4 --samples 500",
    "verify-hidden --family cartan --m 1",
    "verify-hidden --family ot --r 1 --k 2,3",
    "alpha-scan --family fkm --m 2 --r 4 --level 0 --level 0.4 --csv out",
    "alpha-scan --family ot --r 1 --J right-i",
    "riccati --kappa 1,4 --mult 3 --mu0 0.9,-0.3,0.25,1.1,-0.7,0.5,0.05",
    "spectrum --family fkm --m 2 --r 4 --level 0.2 --csv out",
]

# Shape-operator eigensolves (orders 24 and 30), level projection on the
# octonion cubic and the hopf layer.
CURVATURE = [
    "spectrum --family cartan --m 8 --level 0.2",
    "spectrum --family ot --r 3 --level 0.2",
    "alpha-scan --family ot --r 1 --J right-i",
    "alpha-scan --family fkm --m 2 --r 4 --level 0 --level 0.4",
]

# Pointwise ambient kernels and frame_at; no shape-operator eigensolve and
# no level projection.
AMBIENT = [
    "verify-cm --family cartan --m 8",
    "verify-cm --family ot --r 3",
    "verify-hidden --family cartan --m 8",
    "verify-hidden --family ot --r 3 --k 2,3,4",
    README[6],
]

# name -> (commands, cold).  A cold workload runs every command as a fresh
# `python -m isopar.cli` process; the others call isopar.cli.main in one
# long-lived worker process.
WORKLOADS = {
    "readme-cold": (README, True),
    "curvature-large": (CURVATURE, False),
    "ambient-large": (AMBIENT, False),
}


def argv_of(command: str, seed: int) -> list:
    return command.split() + ["--seed", str(seed)]


def _flag(words, name, default=None):
    return words[words.index(name) + 1] if name in words else default


def setup_spec(commands) -> dict:
    """Every distinct family and (family, J) circle action the commands use,
    in first-use order: what setup_s builds."""
    families, contexts = [], []
    for command in commands:
        words = command.split()
        if "--family" not in words:
            continue
        fam = [_flag(words, "--family"), _flag(words, "--m"), _flag(words, "--r")]
        if fam not in families:
            families.append(fam)
        if words[0] == "alpha-scan":
            ctx = fam + [_flag(words, "--J", "block")]
            if ctx not in contexts:
                contexts.append(ctx)
    return {"families": families, "contexts": contexts}


def counts_points(command: str) -> bool:
    """riccati's `samples` counts RK4 steps, not sample points."""
    return not command.startswith("riccati")


def run_passes(commands, seconds: float, run_one, between=None) -> list:
    """Closed loop, one client: repeat passes over the command list until the
    next pass would end nearer past `seconds` than this one ends before it.
    At least one pass.  run_one(command) returns a dict with key 'wall'.
    between(last), if given, runs before every pass and once after the last
    one (last=True); its time counts toward `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        if between is not None:
            between(False)
        t0 = time.perf_counter()
        runs = [run_one(command) for command in commands]
        t1 = time.perf_counter()
        passes.append({"wall": t1 - t0, "runs": runs})
        if (t1 - start) + 0.5 * (t1 - t0) >= seconds:
            if between is not None:
                between(True)
            return passes


def spaced(probe, seconds: float, count: int):
    """A `between` hook for run_passes that calls probe() about `count` times
    spread evenly over `seconds`: at the first call, whenever seconds/(count-1)
    have passed since the last probe, and at the last call.  The results
    collect in the hook's `results` list."""
    interval = seconds / max(1, count - 1)
    due = [time.perf_counter()]

    def hook(last):
        now = time.perf_counter()
        if last or now >= due[0]:
            hook.results.append(probe())
            due[0] = now + interval

    hook.results = []
    return hook


def setup_probe(spec: dict, cwd, env=None, timeout: float = 120.0) -> float:
    """setup_s of one fresh interpreter (worker.py setup)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "setup", json.dumps(spec)],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------ gate


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def skeleton(code, doc: dict) -> dict:
    """The seed-independent verdict: what must not change between commits."""
    return {
        "exit": code,
        "params": doc.get("params"),
        "samples": doc.get("samples"),
        "rows": [[row.get("name"), row.get("tolerance")] for row in doc.get("details", [])],
    }


def _within(residual, tolerance) -> bool:
    # Non-finite residuals are emitted as strings ('inf', 'nan') and fail.
    return isinstance(residual, (int, float)) and math.isfinite(residual) and residual <= tolerance


def gate(command: str, code, out: str, seed: int, reference: dict):
    """Judge one invocation.  Returns (failure reason or None, changed) where
    changed says the body is not byte-identical to the reference report
    (known only at REFERENCE_SEED; None otherwise)."""
    ref = reference["reports"][command]
    changed = (out != ref["body"]) if seed == reference["seed"] else None
    if code != 0:
        return f"exit code {code}", changed
    try:
        doc = json.loads(out)
    except ValueError:
        return "body is not JSON", changed
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return f"body is not {SCHEMA}", changed
    if doc.get("pass") is not True:
        return "pass is not true", changed
    for row in doc.get("details", []):
        tol = row.get("tolerance")
        if tol is not None and not _within(row.get("residual"), tol):
            return f"row {row.get('name')} residual {row.get('residual')} > {tol}", changed
    if doc.get("seed") != seed:
        return f"report seed {doc.get('seed')} != {seed}", changed
    if skeleton(code, doc) != ref["skeleton"]:
        return "verdict skeleton differs from the reference", changed
    return None, changed


def report_samples(out: str) -> int:
    return int(json.loads(out)["samples"])
