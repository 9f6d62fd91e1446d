"""Every public top-level function and class of the package has a reader in
the package itself.

Library code that only tests call is a second implementation the reports
never exercise. A name passes when some other top-level statement of
src/isopar reads it (as a name or an attribute), when bench/spans.py traces
it, or when it is one of the independent oracles below, which the tests
hold the src routes against.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isopar"

ORACLES = {
    ("polyfam", "eval_F_monomial"),
    ("polyfam", "eval_grad_monomial"),
    ("polyfam", "eval_hessian_monomial"),
    ("symmat", "sigma_k_minor_sum"),
    ("symmat", "vandermonde_solve"),
    ("symmat", "newton_rho_from_sigma"),
    ("hopf", "omega_closed_form"),
    ("spherelevel", "munzner_q1_closed"),
    # the CP^n compression the fibre-context refactor will read
    ("hopf", "hopf_blocks"),
}


def span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        (module_name.rsplit(".", 1)[1], attr)
        for _, module_name, attr in module.TARGETS
        if "." not in attr
    }


def public_defs_and_readers():
    """(module, name) of every public top-level def or class, and for each
    name read anywhere in the package the (module, top-level def) reading it."""
    defs, readers = set(), {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defs.add((module, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(sub.id, set()).add((module, owner))
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add((module, owner))
    return defs, readers


def test_every_public_name_has_a_src_reader():
    defs, readers = public_defs_and_readers()
    exempt = ORACLES | span_targets()
    unread = sorted(
        f"{module}.{name}"
        for module, name in defs - exempt
        if not readers.get(name, set()) - {(module, name)}
    )
    assert unread == []


def test_the_exemptions_name_real_definitions():
    defs, _ = public_defs_and_readers()
    assert ORACLES <= defs
