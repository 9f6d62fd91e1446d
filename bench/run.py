"""Outside-in benchmark of the isopar command line.

    python3 bench/run.py --workload readme-cold --seed 2024 --seconds 50 --trace 0

Workloads (the reasons are in BENCHMARK.json and bench/RATIONALE.md):
  readme-cold      the eight README commands, each a fresh `python -m isopar.cli`
  ambient-large    ambient kernel suites and riccati, in one process
  curvature-large  shape-operator spectra and alpha scans, in one process
                   (run by hand; not in BENCHMARK.json, see RATIONALE.md)
  all              the three above, one after another

Closed loop, one client, one command at a time.  --trace 0 measures the
end-to-end metrics with nothing wrapped; --trace 1 is the separate traced
run that gives per-layer call counts and self times.  Every invocation is
gated against the reference verdicts in bench/reference.json.  The last
stdout line is one JSON object: correct, attempted, failed, metrics; the
line before it records the run environment and the details behind the
numbers.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import workloads
from workloads import ROOT, SRC

SETUP_PROBES = 9  # spread over the run, between passes
DEADLINE_S = 170.0  # every run must end within 180 s
TMP_ROOT = ROOT / ".bench_tmp"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith((".self_s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".us_per_n3"):
        return "us"
    return "count"


# ------------------------------------------------------------ children


def child_env() -> dict:
    # Children cache bytecode next to the sources, as an installed package
    # has it, whatever the calling shell says.
    dropped = ("ISOPAR_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd, cwd, deadline):
    """Run one child to completion and reap it with wait4.  Returns
    (wall s, exit code, stdout, stderr, peak RSS in MB)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        # Its own process group, so that a kill also stops the set-up
        # probes a worker starts.
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, start_new_session=True,
        )

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return wall, proc.returncode, out.decode(errors="replace"), stderr, usage.ru_maxrss / 1024.0


def child_json(cmd, cwd, deadline):
    """Run a bench child whose last stdout line is JSON; returns (doc, RSS)."""
    _, code, out, stderr, rss = run_child(cmd, cwd, deadline)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {code}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), rss


def worker(mode, spec, cwd, deadline):
    cmd = [sys.executable, str(workloads.BENCH_DIR / "worker.py"), mode, json.dumps(spec)]
    return child_json(cmd, cwd, deadline)


def cold_command(command, seed, cwd, deadline) -> dict:
    argv = [sys.executable, "-m", "isopar.cli", *workloads.argv_of(command, seed)]
    wall, code, out, stderr, rss = run_child(argv, cwd, deadline)
    return {"wall": wall, "code": code, "out": out, "rss": rss, "stderr": stderr[-2000:]}


def import_probe(cwd, deadline) -> dict:
    _, code, _, stderr, _ = run_child(
        [sys.executable, "-X", "importtime", "-c", "import isopar.cli"], cwd, deadline
    )
    if code != 0:
        raise BenchError(f"import isopar.cli failed: {stderr.strip()[-2000:]}")
    return parse_importtime(stderr)


def warm_bytecode(cwd, deadline):
    """Compile once in a fresh checkout, so that no timed child does."""
    if not all(
        os.path.exists(importlib.util.cache_from_source(str(path)))
        for path in (SRC / "isopar").glob("*.py")
    ):
        import_probe(cwd, deadline)


def parse_importtime(text: str) -> dict:
    """cli.import_s and cli.import_scipy_s from `-X importtime` output.

    Lines come in post-order: a module follows the imports it triggered,
    which sit one indentation level deeper.  scipy's share is the
    cumulative time of every scipy module with no scipy ancestor.
    """
    names, cums, parents = [], [], []
    pending = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cum = int(parts[1])
        except ValueError:  # the header line
            continue
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        idx = len(names)
        names.append(label.strip())
        cums.append(cum)
        parents.append(-1)
        for child in pending.pop(depth + 1, []):
            parents[child] = idx
        pending.setdefault(depth, []).append(idx)

    def is_scipy(i):
        return names[i] == "scipy" or names[i].startswith("scipy.")

    def scipy_ancestor(i):
        p = parents[i]
        while p >= 0:
            if is_scipy(p):
                return True
            p = parents[p]
        return False

    cli = [cums[i] for i in range(len(names)) if names[i] == "isopar.cli"]
    scipy = sum(cums[i] for i in range(len(names)) if is_scipy(i) and not scipy_ancestor(i))
    return {"cli.import_s": cli[0] / 1e6 if cli else 0.0, "cli.import_scipy_s": scipy / 1e6}


# -------------------------------------------------------------- records


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def gate_runs(commands, passes, seed, reference):
    """Gate every invocation.  Returns (attempted, failures, changed)."""
    attempted, failures, changed = 0, [], 0
    for p in passes:
        for command, run in zip(commands, p["runs"]):
            attempted += 1
            reason, drift = workloads.gate(command, run["code"], run["out"], seed, reference)
            run["ok"] = reason is None
            changed += bool(drift)
            if reason is not None:
                failures.append(f"{command} --seed {seed}: {reason}")
    return attempted, failures, changed


def tail(values):
    """Highest listed percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are too few samples."""
    n = len(values)

    def rank(pct):
        return max(1, math.ceil(n * pct / 100.0 - 1e-9))

    pct = next((p for p in TAIL_PERCENTILES if n - rank(p) >= 10), 100.0)
    return sorted(values)[rank(pct) - 1], pct


# ------------------------------------------------------------- workloads


def measure(name, seed, seconds, tmp, deadline):
    """End-to-end metrics, nothing wrapped."""
    commands, cold = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    warm_bytecode(tmp, deadline)
    spec = workloads.setup_spec(commands)
    if cold:
        hook = workloads.spaced(
            lambda: workloads.setup_probe(
                spec, tmp, child_env(), timeout=max(1.0, deadline - time.monotonic())
            ),
            seconds, SETUP_PROBES,
        )
        passes = workloads.run_passes(
            commands, seconds, lambda c: cold_command(c, seed, tmp, deadline), hook
        )
        setups = hook.results
        rss = max(r["rss"] for p in passes for r in p["runs"])
    else:
        run_spec = {"commands": commands, "seed": seed, "seconds": seconds, "trace": False,
                    "setup": spec, "probes": SETUP_PROBES,
                    "budget_s": deadline - time.monotonic() - 5.0}
        doc, rss = worker("run", run_spec, tmp, deadline)
        passes, setups = doc["passes"], doc["setups"]

    attempted, failures, _ = gate_runs(commands, passes, seed, reference)
    walls = [r["wall"] for p in passes for r in p["runs"]]
    points = wall_points = 0.0
    for p in passes:
        for command, run in zip(commands, p["runs"]):
            if run["ok"] and workloads.counts_points(command):
                points += workloads.report_samples(run["out"])
                wall_points += run["wall"]
    tail_value, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cmd_p50_s": statistics.median(
            statistics.median(p["runs"][i]["wall"] for p in passes) for i in range(len(commands))
        ),
        "cmd_tail_s": tail_value,
        "points_per_s": points / wall_points if wall_points else 0.0,
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - len(failures) / attempted,
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "setup_runs_s": setups,
        "cmd_samples": len(walls),
        "cmd_tail_percentile": tail_pct,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return attempted, len(failures), metrics, detail


def traced(name, seed, tmp, deadline):
    """Per-layer metrics from the separate traced run."""
    commands, _ = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    warm_bytecode(tmp, deadline)
    values = import_probe(tmp, deadline)
    spec = {"commands": commands, "seed": seed, "seconds": 0.0, "trace": True}
    doc, _ = worker("run", spec, tmp, deadline)
    attempted, failures, _ = gate_runs(commands, doc["passes"], seed, reference)
    ref_passes = [{"runs": doc["reference_runs"]}]
    ref_attempted, ref_failures, changed = gate_runs(
        commands, ref_passes, workloads.REFERENCE_SEED, reference
    )
    if seed != workloads.REFERENCE_SEED:  # otherwise already counted above
        attempted += ref_attempted
        failures += ref_failures
    values.update(doc["layers"])
    values["cli.report_changed"] = changed
    values["trace.overhead_frac"] = doc["traced_wall"] / doc["untraced_wall"] - 1.0
    detail = {
        "untraced_wall_s": doc["untraced_wall"],
        "traced_wall_s": doc["traced_wall"],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
    }
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    return attempted, len(failures), metrics, detail


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    try:
        if trace:
            return traced(name, seed, tmp, deadline)
        return measure(name, seed, seconds, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "isopar" / "cli.py").is_file():
        print(f"bench: no isopar sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            a, f, metrics, detail = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += a
        failed += f
        print(json.dumps({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "detail": detail,
        }))
        if len(names) == 1:
            combined = metrics
        else:
            print(json.dumps({"workload": name, "attempted": a, "failed": f, "metrics": metrics}))
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
