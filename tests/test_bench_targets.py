"""The benchmark's span targets must resolve against the package, and its
copy of the README commands must match the README.

bench/spans.py wraps isopar functions and methods by name; a target that no
longer exists makes every traced benchmark run fail. Module-level names must
be attributes of their module; dotted names must be defined in the class body
itself, because the recorder reads them from the class __dict__.
bench/workloads.py copies the README's "Command line" block verbatim as the
readme-cold workload. Every command in bench/reference.json must still give
its recorded verdict skeleton (exit code, params, samples, row names and
tolerances): the benchmark fails an invocation whose skeleton differs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from isopar import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_bench("spans").TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(mod, attr) for _, mod, attr in load_targets()]
)
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_readme_workload_is_the_readme_block():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    commands = [
        " ".join(line.split("#", 1)[0].split()[1:]) for line in block.splitlines()
    ]
    assert load_bench("workloads").README == commands


@pytest.mark.parametrize("command", sorted(REFERENCE["reports"]))
def test_reference_command_keeps_its_skeleton(command, tmp_path, monkeypatch, capsys):
    workloads = load_bench("workloads")
    monkeypatch.chdir(tmp_path)  # a --csv side file lands in tmp_path
    code = cli.main(workloads.argv_of(command, REFERENCE["seed"]))
    doc = json.loads(capsys.readouterr().out)
    expected = REFERENCE["reports"][command]["skeleton"]
    assert workloads.skeleton(code, doc) == expected
