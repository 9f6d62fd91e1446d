"""The span recorder: self time from nesting, rebinding and restoring."""

import sys
import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package():
    """fakepkg.mod defines outer() -> inner() and a class with a method;
    fakepkg.user holds its own `from fakepkg.mod import outer` binding."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    exec(
        "def inner():\n"
        "    clock.advance(2.0)\n"
        "def outer():\n"
        "    clock.advance(1.0)\n"
        "    inner()\n"
        "    clock.advance(3.0)\n"
        "    return 'done'\n"
        "class Form:\n"
        "    def __call__(self, x):\n"
        "        clock.advance(0.5)\n"
        "        return inner() or x\n",
        mod.__dict__,
    )
    mod.clock = clock
    user.outer = mod.outer
    modules = {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield clock, mod, user
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def recorder_for(clock, measures=None):
    return spans.Recorder(
        targets=[
            ("fake.outer", "fakepkg.mod", "outer"),
            ("fake.inner", "fakepkg.mod", "inner"),
            ("fake.call", "fakepkg.mod", "Form.__call__"),
        ],
        scope="fakepkg",
        clock=clock,
        measures=measures or {},
    )


def test_self_time_of_nested_calls(fake_package):
    clock, mod, user = fake_package
    with recorder_for(clock) as rec:
        assert user.outer() == "done"  # through the rebound import copy
        mod.outer()
        assert mod.Form()(7) == 7
    out = rec.summary()
    assert out["fake.outer.calls"] == 2
    assert out["fake.outer.self_s"] == pytest.approx(8.0)  # 2 x (1 + 3)
    assert out["fake.inner.calls"] == 3
    assert out["fake.inner.self_s"] == pytest.approx(6.0)
    assert out["fake.call.calls"] == 1
    assert out["fake.call.self_s"] == pytest.approx(0.5)


def test_span_closes_when_the_call_raises(fake_package):
    clock, mod, _ = fake_package
    with recorder_for(clock) as rec:
        with pytest.raises(TypeError):
            mod.outer(1)
        mod.inner()
    out = rec.summary()
    assert out["fake.outer.calls"] == 1
    assert out["fake.inner.calls"] == 1
    assert rec._stack == []


def test_per_call_measure(fake_package):
    clock, mod, _ = fake_package
    rec = recorder_for(clock, measures={"fake.outer": lambda args, result: len(result)})
    with rec:
        mod.outer()
    assert list(rec.value) == [4.0, 0.0]


def isopar_bindings():
    import isopar.cli  # noqa: F401  loads every isopar module
    from isopar.hopf import HopfContext
    from isopar.monomials import MonomialForm

    snap = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "isopar" or name.startswith("isopar.")
        for attr, value in vars(mod).items()
    }
    for cls in (MonomialForm, HopfContext):
        snap.update({(cls.__qualname__, attr): v for attr, v in vars(cls).items()})
    return snap


def test_unpatch_restores_every_isopar_binding():
    before = isopar_bindings()
    rec = spans.Recorder()
    rec.patch()
    try:
        import isopar.cli as cli
        import isopar.polyfam as polyfam

        assert cli.eval_F is not polyfam.__dict__["eval_F"].__wrapped__
        assert cli.eval_F is polyfam.eval_F  # one wrapper for every copy
        patched = isopar_bindings()
        changed = {key for key in before if patched[key] is not before[key]}
        assert ("isopar.hopf", "eigh_jacobi") in changed
        assert ("isopar.spherelevel", "brentq") in changed
        assert ("MonomialForm", "__call__") in changed
    finally:
        rec.unpatch()
    after = isopar_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_cli_call_records_layers(capsys):
    import isopar.cli as cli

    with spans.Recorder() as rec:
        code = cli.main(["verify-cm", "--family", "cartan", "--m", "1", "--samples", "3"])
    capsys.readouterr()
    assert code == 0
    out = rec.summary()
    assert out["cli.main.calls"] == 1
    assert out["polyfam.build.calls"] == 1
    assert out["polyfam.cm_residuals.calls"] == 3
    assert out["spherelevel.regular_sphere_points.accept_ratio"] > 0
    assert all(v >= 0 for k, v in out.items() if k.endswith(".self_s"))
