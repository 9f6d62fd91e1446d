"""Outside-in span recorder for the isopar layers.

Wraps public functions from outside the package: a module-level function is
rebound under every name that holds it in any isopar module (cli, hopf and
spherelevel keep their own `from ... import` bindings), a method is replaced
on its class.  Spans stay in flat in-memory arrays while the run goes; self
times are computed from the nesting when the run ends.  unpatch() puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer label, module, attribute).  A dotted attribute names a method,
# patched on its class.  Several targets may share one label.
TARGETS = [
    ("cli.main", "isopar.cli", "main"),
    ("polyfam.build", "isopar.polyfam", "make_cartan"),
    ("polyfam.build", "isopar.polyfam", "make_fkm"),
    ("polyfam.build", "isopar.polyfam", "make_ot"),
    ("polyfam.eval_F", "isopar.polyfam", "eval_F"),
    ("polyfam.eval_grad", "isopar.polyfam", "eval_grad"),
    ("polyfam.eval_hessian", "isopar.polyfam", "eval_hessian"),
    ("polyfam.cm_residuals", "isopar.polyfam", "cm_residuals"),
    ("polyfam.hidden_rho_residual", "isopar.polyfam", "hidden_rho_residual"),
    ("polyfam.delta_k", "isopar.polyfam", "delta_k"),
    ("monomials.call", "isopar.monomials", "MonomialForm.__call__"),
    ("monomials.partial", "isopar.monomials", "MonomialForm.partial"),
    ("clifford.build", "isopar.clifford", "build_standard_system"),
    ("clifford.build", "isopar.clifford", "build_ozeki_takeuchi_system"),
    ("clifford.build", "isopar.clifford", "build_complex_structure"),
    ("symmat.eigh_jacobi", "isopar.symmat", "eigh_jacobi"),
    ("symmat.eigensolve", "isopar.symmat", "eigensolve"),
    ("symmat.sigma_k", "isopar.symmat", "sigma_k"),
    ("symmat.rho_k", "isopar.symmat", "rho_k"),
    ("symmat.spectrum_from_moments", "isopar.symmat", "spectrum_from_moments"),
    ("symmat.vandermonde_solve", "isopar.symmat", "vandermonde_solve"),
    ("spherelevel.regular_sphere_points", "isopar.spherelevel", "regular_sphere_points"),
    ("spherelevel.level_project", "isopar.spherelevel", "level_project"),
    ("spherelevel.brentq", "isopar.spherelevel", "brentq"),
    ("spherelevel.frame_at", "isopar.spherelevel", "frame_at"),
    ("spherelevel.orthonormal_complement", "isopar.spherelevel", "orthonormal_complement"),
    ("spherelevel.munzner_check", "isopar.spherelevel", "munzner_check"),
    ("hopf.context", "isopar.hopf", "HopfContext.__init__"),
    ("hopf.alpha_at", "isopar.hopf", "alpha_at"),
    ("hopf.omega_direct", "isopar.hopf", "omega_direct"),
    ("hopf.phi_decomposition", "isopar.hopf", "phi_decomposition"),
    ("riccati.evolve_numeric", "isopar.riccati", "evolve_numeric"),
    ("riccati.evolve_closed", "isopar.riccati", "evolve_closed"),
    ("riccati.gamma_ij", "isopar.riccati", "gamma_ij"),
    ("riccati.check_moment_chain", "isopar.riccati", "check_moment_chain"),
    ("riccati.moment_to_spectrum_evolution", "isopar.riccati", "moment_to_spectrum_evolution"),
]


def _eigh_order(args, result):
    return float(np.shape(args[0])[0])


def _points_returned(args, result):
    return float(len(result))


# label -> per-call measure(args, result), stored in the span's value column.
MEASURES = {
    "symmat.eigh_jacobi": _eigh_order,
    "spherelevel.regular_sphere_points": _points_returned,
}


class Recorder:
    """Records one span per wrapped call: label, parent span, start, end and
    an optional per-call value.  Single-threaded, like the CLI."""

    def __init__(self, targets=TARGETS, scope="isopar", clock=time.perf_counter,
                 measures=MEASURES):
        self.targets = list(targets)
        self.scope = scope
        self.clock = clock
        self.measures = measures
        self.labels = sorted({label for label, _, _ in self.targets})
        self._lid = {label: i for i, label in enumerate(self.labels)}
        self._restore = []
        self.reset()

    def reset(self):
        self.label = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = []

    def _wrap(self, fn, label):
        lid = self._lid[label]
        measure = self.measures.get(label)
        labels, parents, starts, ends, values = (
            self.label, self.parent, self.start, self.end, self.value
        )
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                values[idx] = measure(args, result)
            return result

        return wrapper

    def _scoped_modules(self):
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.scope or name.startswith(self.scope + "."))
        ]

    def patch(self):
        if self._restore:
            raise RuntimeError("already patched")
        self.reset()
        modules = self._scoped_modules()
        for label, module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, label))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def unpatch(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False

    # ------------------------------------------------------------ summary

    def arrays(self):
        return (
            np.frombuffer(self.label, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.value, dtype=float),
        )

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        label, parent, dur, _ = self.arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def _has_ancestor(self, label_id):
        label, parent, _, _ = self.arrays()
        found = np.zeros(len(label), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return found
            found[live] |= label[anc[live]] == label_id
            anc[live] = parent[anc[live]]

    def summary(self) -> dict:
        """Per-layer metrics: <label>.calls and <label>.self_s for every
        label, plus the ratios named in the benchmark."""
        label, parent, _, value = self.arrays()
        selfs = self.self_times()
        nlab = len(self.labels)
        calls = np.bincount(label, minlength=nlab)
        self_s = np.bincount(label, weights=selfs, minlength=nlab)
        out = {}
        for i, name in enumerate(self.labels):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        lid = self._lid
        if "symmat.eigh_jacobi" in lid:
            mask = label == lid["symmat.eigh_jacobi"]
            orders = value[mask]
            out["symmat.eigh_jacobi.order_max"] = int(orders.max()) if orders.size else 0
            n3 = float(np.sum(orders**3))
            out["symmat.eigh_jacobi.us_per_n3"] = (
                1e6 * float(np.sum(selfs[mask])) / n3 if n3 else 0.0
            )
        if "spherelevel.regular_sphere_points" in lid and "polyfam.eval_F" in lid:
            rsp, ef = lid["spherelevel.regular_sphere_points"], lid["polyfam.eval_F"]
            nested = parent >= 0
            tries = int(np.sum((label == ef) & nested & (label[np.where(nested, parent, 0)] == rsp)))
            returned = float(np.sum(value[label == rsp]))
            out["spherelevel.regular_sphere_points.accept_ratio"] = (
                returned / tries if tries else 0.0
            )
        if "spherelevel.level_project" in lid and "polyfam.eval_F" in lid:
            lp, ef = lid["spherelevel.level_project"], lid["polyfam.eval_F"]
            under = int(np.sum((label == ef) & self._has_ancestor(lp)))
            projections = int(calls[lp])
            out["spherelevel.level_project.evalF_per_call"] = (
                under / projections if projections else 0.0
            )
        return out
