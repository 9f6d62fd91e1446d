"""Every defaulted parameter of the package is passed by some call in the
package itself.

A default that no src call overrides is an option with one value in use: a
constant spelled as a parameter, which the tests can vary but no report
ever does. A parameter passes when some call in src/isopar passes it, by
keyword or by position, to a function of its name (an __init__ is called by
its class name, and functools.partial(f, ...) counts as a call of f), or
when it is one of the entry points in ALLOWED, whose callers live outside
the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isopar"

ALLOWED = {
    # the console entry calls main() with no arguments
    ("cli", "main", "argv"),
    # numpy calls generate_state through its ISeedSequence protocol
    ("spherelevel", "_SeedState.generate_state", "dtype"),
}


def _functions(node, prefix="", in_class=False):
    """(qualified name, callee name, def, is_method) of every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, ast.FunctionDef):
            callee = child.name
            if in_class and callee == "__init__":
                callee = prefix.rstrip(".").rsplit(".", 1)[-1]
            yield f"{prefix}{child.name}", callee, child, in_class
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix, in_class)


def defaulted_parameters():
    """(module, qualified name, callee name, parameter, position) of every
    parameter with a default; position is None for a keyword-only one and
    counts the arguments a call passes (self excluded) otherwise."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, callee, fn, is_method in _functions(ast.parse(path.read_text())):
            positional = fn.args.posonlyargs + fn.args.args
            if is_method:
                positional = positional[1:]
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                found.append((path.stem, qualname, callee, arg.arg, i))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.append((path.stem, qualname, callee, arg.arg, None))
    return found


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def src_calls():
    """(callee name, positional arguments, keyword names) of every call in
    the package; a starred positional stands for any number of arguments,
    and a ** spread for any keyword (keyword name None)."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee, args = _name(node.func), node.args
            if callee == "partial" and args:
                callee, args = _name(args[0]), args[1:]
            calls.append((callee, args, {kw.arg for kw in node.keywords}))
    return calls


def _passes(call, name, position):
    _, args, keywords = call
    if name in keywords or None in keywords:
        return True
    if position is None:
        return False
    return len(args) > position or any(isinstance(a, ast.Starred) for a in args)


def test_every_default_is_overridden_by_some_src_call():
    calls = src_calls()
    unused = sorted(
        f"{module}.{qualname}({name})"
        for module, qualname, callee, name, position in defaulted_parameters()
        if (module, qualname, name) not in ALLOWED
        and not any(c[0] == callee and _passes(c, name, position) for c in calls)
    )
    assert unused == []


def test_the_allowed_entries_are_real_defaults():
    found = defaulted_parameters()
    assert ALLOWED <= {(module, qualname, name) for module, qualname, _, name, _ in found}
