"""The per-invocation correctness gate and the -X importtime parser."""

import json

import pytest

import run
import workloads

COMMAND = "verify-cm --family cartan --m 1"


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def body(reference, **changes):
    doc = json.loads(reference["reports"][COMMAND]["body"])
    doc.update(changes)
    return json.dumps(doc, indent=2) + "\n"


def test_reference_covers_every_workload_command(reference):
    assert reference["seed"] == workloads.REFERENCE_SEED
    for commands, _ in workloads.WORKLOADS.values():
        for command in commands:
            assert reference["reports"][command]["skeleton"]["exit"] == 0


def test_reference_body_passes_unchanged(reference):
    out = reference["reports"][COMMAND]["body"]
    assert workloads.gate(COMMAND, 0, out, workloads.REFERENCE_SEED, reference) == (None, False)


def test_other_seed_passes_without_drift_verdict(reference):
    out = body(reference, seed=7)
    assert workloads.gate(COMMAND, 0, out, 7, reference) == (None, None)


def test_digit_drift_is_changed_not_failed(reference):
    doc = json.loads(reference["reports"][COMMAND]["body"])
    doc["details"][0]["residual"] *= 1.0000001
    out = json.dumps(doc, indent=2) + "\n"
    assert workloads.gate(COMMAND, 0, out, workloads.REFERENCE_SEED, reference) == (None, True)


@pytest.mark.parametrize(
    "code, mutate",
    [
        (1, lambda doc: doc),
        (0, lambda doc: doc.update({"pass": False})),
        (0, lambda doc: doc.update({"schema": "other/1"})),
        (0, lambda doc: doc.update({"samples": 3})),
        (0, lambda doc: doc.update({"seed": 5})),
        (0, lambda doc: doc["details"][0].update({"residual": 1.0})),
        (0, lambda doc: doc["details"][0].update({"residual": "nan"})),
        (0, lambda doc: doc["details"][1].update({"tolerance": 1.0})),
        (0, lambda doc: doc["details"].pop()),
    ],
)
def test_gate_failures(reference, code, mutate):
    doc = json.loads(reference["reports"][COMMAND]["body"])
    mutate(doc)
    out = json.dumps(doc, indent=2) + "\n"
    reason, _ = workloads.gate(COMMAND, code, out, workloads.REFERENCE_SEED, reference)
    assert reason is not None


def test_gate_rejects_non_json(reference):
    reason, _ = workloads.gate(COMMAND, 0, "Traceback ...", workloads.REFERENCE_SEED, reference)
    assert reason == "body is not JSON"


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:        50 |        250 |     scipy",
        "import time:        30 |        30 |       numpy.linalg",
        "import time:        20 |        350 |     scipy.optimize",
        "import time:        10 |        710 |   isopar.spherelevel",
        "import time:         5 |        815 | isopar.cli",
    ])
    out = run.parse_importtime(text)
    assert out["cli.import_s"] == pytest.approx(815e-6)
    assert out["cli.import_scipy_s"] == pytest.approx(600e-6)  # 250 + 350


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
