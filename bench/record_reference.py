"""Record the reference report of every workload command.

    python3 bench/record_reference.py

Runs each distinct command once through isopar.cli.main at
REFERENCE_SEED and writes bench/reference.json: the exact report body
(for byte drift, cli.report_changed) and its verdict skeleton (exit code,
params, samples, detail-row names and tolerances) that the gate compares
every benchmark invocation against.  Re-record only when a change to the
reports is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

sys.path.insert(0, str(workloads.SRC))
os.environ.pop("ISOPAR_SEED", None)

import isopar.cli as cli  # noqa: E402

from worker import run_command  # noqa: E402


def main() -> int:
    seed = workloads.REFERENCE_SEED
    commands = []
    for cmds, _ in workloads.WORKLOADS.values():
        commands += [c for c in cmds if c not in commands]
    reports = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # --csv side files land here
        try:
            for command in commands:
                run = run_command(cli, command, seed)
                doc = json.loads(run["out"])
                if run["code"] != 0 or doc.get("pass") is not True:
                    print(f"reference run failed: {command}", file=sys.stderr)
                    return 1
                reports[command] = {
                    "body": run["out"],
                    "skeleton": workloads.skeleton(run["code"], doc),
                }
                print(f"{run['wall']:7.2f}s exit {run['code']}  {command}", file=sys.stderr)
        finally:
            os.chdir(home)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump({"seed": seed, "reports": reports}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
