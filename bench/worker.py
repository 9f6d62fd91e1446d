"""Child process of the benchmark: set-up probe or in-process command runner.

    python worker.py setup '<json setup spec>'
    python worker.py run '<json run spec>'

Either mode prints one JSON object as its last stdout line.  The CLI's own
output is captured in memory, so nothing else reaches stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import workloads


def setup(spec) -> dict:
    """Fresh interpreter: import isopar.cli, then build every family and
    HopfContext the workload uses."""
    t0 = time.perf_counter()
    import isopar.cli as cli
    from isopar.clifford import build_complex_structure
    from isopar.hopf import HopfContext
    from isopar.polyfam import make_cartan, make_fkm, make_ot

    def build(family, m, r):
        if family == "cartan":
            return make_cartan(int(m))
        if family == "fkm":
            return make_fkm(int(m), int(r))
        return make_ot(int(r))

    built = {}
    for fam in spec["families"]:
        built[tuple(fam)] = build(*fam)
    for *fam, jname in spec["contexts"]:
        P = built[tuple(fam)]
        HopfContext(P, build_complex_structure(cli.J_CHOICES[jname], P.ambient_dim))
    return {"setup_s": time.perf_counter() - t0}


def run_command(cli, command: str, seed: int) -> dict:
    """One invocation of cli.main, looked up at call time so that a traced
    pass goes through the wrapper."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(workloads.argv_of(command, seed))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback the CLI contract forbids
        code = f"{type(exc).__name__}: {exc}"
    return {"wall": time.perf_counter() - t0, "code": code, "out": buf.getvalue()}


def run(spec) -> dict:
    import isopar.cli as cli

    commands, seed = spec["commands"], spec["seed"]

    def one(command, at=seed):
        return run_command(cli, command, at)

    if not spec["trace"]:
        # Set-up probes are fresh interpreters started between passes.
        deadline = time.monotonic() + spec["budget_s"]
        hook = workloads.spaced(
            lambda: workloads.setup_probe(
                spec["setup"], os.getcwd(), timeout=max(1.0, deadline - time.monotonic())
            ),
            spec["seconds"], spec["probes"],
        )
        passes = workloads.run_passes(commands, spec["seconds"], one, hook)
        return {"passes": passes, "setups": hook.results}

    # Traced run: one untraced pass, one at the reference seed for byte
    # drift (the same pass when the seeds agree), then one traced pass.
    import spans

    untraced = workloads.run_passes(commands, 0.0, one)
    if seed == workloads.REFERENCE_SEED:
        reference = untraced
    else:
        reference = workloads.run_passes(
            commands, 0.0, lambda c: one(c, workloads.REFERENCE_SEED)
        )
    with spans.Recorder() as recorder:
        traced = workloads.run_passes(commands, 0.0, one)
    return {
        "passes": untraced + traced,
        "reference_runs": reference[0]["runs"],
        "untraced_wall": untraced[0]["wall"],
        "traced_wall": traced[0]["wall"],
        "layers": recorder.summary(),
    }


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    result = setup(spec) if mode == "setup" else run(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
