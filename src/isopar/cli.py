"""Command line front end: verification suites with JSON reports.

Every subcommand prints a single JSON document (schema "isopar-report/1")
to stdout or --out FILE.  Detail rows carry the tolerance they were judged
against; rows with tolerance null are informational and do not gate the
exit code.  Exit codes: 0 all gated checks passed, 1 at least one failed,
2 usage or construction error (still reported as JSON) or a closed stdout.

main is the one suite runner.  It resolves the seed, creates the report,
calls the suite, writes the suite's CSV side file when --csv is given,
emits the JSON and maps the verdict to the exit code.  A suite (cmd_*)
only checks its inputs, fills params and samples and adds rows; one with
a side file returns (suffix, table), table() giving its header and rows.

Determinism: identical (command, params, seed) produce byte-identical
report bodies.  No timestamps, no machine identifiers.  ISOPAR_SEED in
the environment overrides --seed; either must be a non-negative integer.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .clifford import J_BLOCK, J_LEFT, J_RIGHT, build_complex_structure
from .errors import BlowUpError, ConstructionError, IsoparError
from .hopf import (
    AlphaSample,
    HopfContext,
    alpha_scan,
    omega_direct,
    witness_points,
)
from .polyfam import (
    IsoPolynomial,
    cm_residuals,
    delta_k,
    eval_F,
    hidden_rho_residual,
    make_cartan,
    make_fkm,
    make_ot,
    point_norm,
)
from .riccati import (
    check_gamma_recurrence,
    check_moment_chain,
    check_power_sum_recurrence,
    evolve_closed,
    evolve_numeric,
    gamma_ij,
    moment_to_spectrum_evolution,
    rank_one,
    riccati_family,
    space_form,
    trajectory_table,
)
from .spherelevel import (
    MATCH_TOL,
    RECURRENCE_K_MAX,
    frame_at,
    in_blocks,
    level_power_sums,
    level_project,
    munzner_check,
    qk_recurrence_check,
    recurrence_table,
    regular_sphere_points,
    rhobar_recurrence_check,
    transnormal_residuals,
)

SCHEMA = "isopar-report/1"
GENERATOR = "PCG64"
DEFAULT_SEED = 2024

J_CHOICES = {"block": J_BLOCK, "right-i": J_RIGHT, "left-i": J_LEFT}

# Default gate tolerances, one per suite; every detail row repeats the
# value it was actually judged against.
TOL_CM = 1e-8
TOL_HIDDEN = 1e-8
TOL_WITNESS = 1e-9
TOL_RECURRENCE = 1e-12
TOL_RICCATI_EVOLVE = 1e-8
TOL_RICCATI_LEMMA = 1e-9
TOL_RICCATI_CHAIN = 1e-8
TOL_RICCATI_ROUNDTRIP = 1e-6

# The level grid of the Q_k / rhobar_k recurrences: spectrum's side-file
# table and the recurrences suite span [-LEVEL_BOUND, LEVEL_BOUND] (inside the
# |t| < 0.9 the recurrence checks accept) with k <= RECURRENCE_K_MAX.
LEVEL_BOUND = 0.8
LEVEL_POINTS = 33


@dataclass(frozen=True)
class CheckRecord:
    """One named residual judged against one tolerance.

    tolerance None marks an informational row: reported, never gated.
    """

    name: str
    residual: float
    tolerance: float | None
    ref: str

    @property
    def passed(self) -> bool:
        return self.tolerance is None or self.residual <= self.tolerance


@dataclass
class SuiteReport:
    command: str
    seed: int
    params: dict = field(default_factory=dict)
    samples: int = 0
    details: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance, ref):
        """One row; an array of residuals is reduced by np.max, which
        carries a NaN anywhere in it through to the gate."""
        self.details.append(
            CheckRecord(name, float(np.max(residual)), tolerance, ref)
        )

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.details)

    @property
    def max_residual(self) -> float:
        gated = [rec.residual for rec in self.details if rec.tolerance is not None]
        return float(np.max(gated)) if gated else 0.0


def _json_float(value):
    # json.dumps(allow_nan=False) refuses inf/nan; encode them as strings
    # so failure reports stay well-formed.
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def report_body(report: SuiteReport) -> str:
    doc = {
        "schema": SCHEMA,
        "command": report.command,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "seed": report.seed,
        "generator": GENERATOR,
        "samples": report.samples,
        "max_residual": _json_float(report.max_residual),
        "pass": report.passed,
        "details": [
            {
                "name": rec.name,
                "residual": _json_float(rec.residual),
                "tolerance": rec.tolerance,
                "ref": rec.ref,
            }
            for rec in report.details
        ],
    }
    if report.notes:
        doc["notes"] = report.notes
    doc.update(report.extra)
    return json.dumps(doc, indent=2, allow_nan=False)


def error_body(command: str, exc: Exception) -> str:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "pass": False,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def write_csv(path, header, rows) -> None:
    """The one side-file format: a header row, then every value with 17
    significant digits so rows reload bit for bit; CRLF line ends."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([f"{value:.17g}" for value in row] for row in rows)


def _seed(args) -> int:
    source, text = "--seed", args.seed
    if "ISOPAR_SEED" in os.environ:
        source, text = "ISOPAR_SEED", os.environ["ISOPAR_SEED"]
    try:
        seed = int(text)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise ConstructionError(
            f"{source} must be a non-negative integer, got {text!r}"
        ) from None
    return seed


def _require_tolerance(tol: float) -> None:
    # A NaN gate passes nothing and an infinite one passes everything.
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConstructionError(f"--tol must be positive and finite, got {tol}")


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        vals = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConstructionError(f"bad {flag} list {text!r}") from exc
    if not vals:
        raise ConstructionError(f"empty {flag} list")
    if kind is float and not all(math.isfinite(v) for v in vals):
        raise ConstructionError(f"{flag} entries must be finite, got {text!r}")
    return vals


def _build_family(args, report: SuiteReport) -> IsoPolynomial:
    """The --family member; its signature goes into the report's params and
    --samples becomes the report's sample count."""
    # Every family command samples; zero samples would pass vacuously.
    if args.samples < 1:
        raise ConstructionError(f"--samples must be at least 1, got {args.samples}")
    m, r = args.m, args.r
    if args.family == "cartan":
        if m is None:
            raise ConstructionError("cartan needs --m (1, 2, 4 or 8)")
        r = None
    elif args.family == "fkm":
        if m is None or r is None:
            raise ConstructionError("fkm needs --m and --r")
    else:
        if r is None:
            raise ConstructionError("ot needs --r")
        m = None
    fam = _member(args.family, m, r)
    report.params.update(
        family=fam.family, g=fam.g, m1=fam.m1, m2=fam.m2, dim=fam.ambient_dim
    )
    report.samples = args.samples
    return fam


@functools.cache
def _member(family: str, m, r) -> IsoPolynomial:
    """One family member, built once per process: a member is immutable and
    its build and construction check are deterministic, so later calls share
    it. make_* are looked up at call time; a failed build is not cached."""
    if family == "cartan":
        return make_cartan(m)
    if family == "fkm":
        return make_fkm(m, r)
    return make_ot(r)


def _ball_points(dim: int, count: int, seed: int, radius: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(0.2, radius, size=count)
    return pts * radii[:, None]


# ---------------------------------------------------------------- verify-cm


def cmd_verify_cm(args, report):
    _require_tolerance(args.tol)
    fam = _build_family(args, report)
    g = fam.g
    ball = _ball_points(fam.ambient_dim, args.samples, report.seed, radius=2.0)
    sphere = regular_sphere_points(fam, args.samples, report.seed + 1)

    def residuals(block):
        r = point_norm(ball[block])
        res_grad, res_lap = cm_residuals(fam, ball[block])
        return [
            np.abs(res_grad) / r ** (2 * g - 2),
            np.abs(res_lap) / (r ** (g - 2) if g > 2 else 1.0),
            *np.abs(transnormal_residuals(fam, sphere[block])),
        ]

    rows = [
        ("ambient-gradient-norm", "square norm of the gradient vs g^2 |x|^(2g-2)"),
        ("ambient-laplacian", "Laplacian vs (g^2/2)(m2 - m1) |x|^(g-2)"),
        (
            "sphere-gradient-profile",
            "|grad f|^2 on the sphere vs the polynomial profile b(f)",
        ),
        (
            "sphere-laplacian-profile",
            "spherical Laplacian of f vs the affine profile a(f)",
        ),
    ]
    for (name, ref), res in zip(rows, in_blocks(args.samples, residuals)):
        report.add(name, res, args.tol, ref)


# ------------------------------------------------------------ verify-hidden


def cmd_verify_hidden(args, report):
    _require_tolerance(args.tol)
    fam = _build_family(args, report)
    is_cartan_base = fam.family == "cartan" and fam.m1 == 1

    if args.k is not None:
        ks = _parse_list(args.k, "--k", int)
    elif is_cartan_base:
        ks = [1, 2, 3, 4, 5]
    else:
        ks = [2, 3]
    minor_ks = [k for k in ks if is_cartan_base and 1 <= k <= 5]
    rho_ks = [k for k in ks if 2 <= k <= 4]
    rows = []  # (name, tolerance, ref) in report order
    for k in ks:
        if k not in minor_ks and k not in rho_ks:
            raise ConstructionError(
                f"k = {k} has no recorded closed form for this family "
                "(identity range 1..5 for the base cubic, 2..4 otherwise)"
            )
        if k in minor_ks:
            rows.append((
                f"hessian-minor-identity-{k}", args.tol,
                "k-th elementary symmetric function of the Hessian, "
                "closed form for the 5-variable cubic",
            ))
        if k in rho_ks:
            informational = k == 4 and fam.n < 4
            rows.append((
                f"power-sum-closed-form-{k}", None if informational else args.tol,
                "power sum of Hessian eigenvalues vs its homogenized "
                "closed form" + (" (below its stated rank bound)" if informational else ""),
            ))
    report.params["k"] = ",".join(str(k) for k in ks)

    pts = _ball_points(fam.ambient_dim, args.samples, report.seed, radius=1.5)
    norms = np.linalg.norm(pts, axis=1)

    def residuals(block):
        # Every k of a block shares one Hessian for the minor identities and
        # one jet for the power sums.
        x, r = pts[block], norms[block]
        res = {}
        if minor_ks:
            # Displayed identities for the 5-variable cubic:
            # sigma_1 = 0, sigma_2 = -63|x|^2, sigma_3 = -54F,
            # sigma_4 = 972|x|^4, sigma_5 = 1944|x|^2 F.
            F = eval_F(fam, x) if {3, 5} & set(minor_ks) else 0.0
            rhs = (0.0, -63.0 * r**2, -54.0 * F, 972.0 * r**4, 1944.0 * r**2 * F)
            for k, sigma in zip(minor_ks, delta_k(fam, x, minor_ks)):
                res[f"hessian-minor-identity-{k}"] = np.abs(
                    sigma - rhs[k - 1]
                ) / np.maximum(r**k, 1e-30)
        if rho_ks:
            for k, rho in zip(rho_ks, hidden_rho_residual(fam, x, rho_ks)):
                scale = np.maximum(r ** (k * (fam.g - 2)), 1e-30)
                res[f"power-sum-closed-form-{k}"] = np.abs(rho) / scale
        return [res[name] for name, _, _ in rows]

    for (name, tol, ref), res in zip(rows, in_blocks(args.samples, residuals)):
        report.add(name, res, tol, ref)


# -------------------------------------------------------------- alpha-scan


def cmd_alpha_scan(args, report):
    if args.family == "cartan":
        # cartan m = 1 has odd dimension, and for m = 2, 4, 8 every --J
        # either fails the S^1 invariance check or has no structure in
        # dimension 3m + 2.
        raise ConstructionError(
            "no cubic (cartan) pairing admits the circle action; "
            "alpha-scan needs --family fkm or ot"
        )
    fam = _build_family(args, report)
    jtag = J_CHOICES[args.J]
    J = build_complex_structure(jtag, fam.ambient_dim)
    ctx = HopfContext(fam, J)

    levels = args.level if args.level else [0.0]
    report.params.update(J=jtag, levels=",".join(f"{lv:g}" for lv in levels))

    scan, summaries = alpha_scan(ctx, levels, args.samples, report.seed)
    for summary in summaries:
        report.add(
            f"alpha-spread-level={summary['level']:g}",
            summary["max"] - summary["min"],
            None,
            "spread of the normal-torsion ratio over the level set "
            "(zero iff constant)",
        )
    report.extra["alpha"] = summaries

    witnesses = witness_points(ctx)
    if witnesses is not None:
        z_plus, z_minus = witnesses
        report.add(
            "reference-point-plus",
            abs(omega_direct(ctx, frame_at(fam, z_plus)) - 128.0),
            TOL_WITNESS,
            "torsion form equals +128 at the recorded zero-level point",
        )
        report.add(
            "reference-point-minus",
            abs(omega_direct(ctx, frame_at(fam, z_minus)) + 128.0),
            TOL_WITNESS,
            "torsion form equals -128 at the recorded zero-level point",
        )

    return "alpha", lambda: (
        [f.name for f in fields(AlphaSample)],
        zip(*astuple(scan)),
    )


# ----------------------------------------------------------------- riccati


def cmd_riccati(args, report):
    # A non-finite end point cannot be gridded or reported, zero RK4 steps
    # integrate nothing, and a non-finite --kappa or --mu0 entry (rejected
    # while parsing) poisons every branch it touches.
    for flag, value in (("--t0", args.t0), ("--t1", args.t1)):
        if not math.isfinite(value):
            raise ConstructionError(f"{flag} must be finite, got {value}")
    if args.steps < 1:
        raise ConstructionError(f"--steps must be at least 1, got {args.steps}")
    values = _parse_list(args.kappa, "--kappa", float)
    mu0 = _parse_list(args.mu0, "--mu0", float)
    n = len(mu0)
    if len(values) == 1:
        if args.mult is not None:
            raise ConstructionError("--mult needs two --kappa values")
        kappas = space_form(values[0], n)
    elif len(values) == 2:
        if args.mult is None:
            raise ConstructionError("two curvature values need --mult")
        kappas = rank_one(values[0], values[1], args.mult, n)
    else:
        raise ConstructionError("--kappa takes one or two values")
    fam = riccati_family(kappas, mu0)

    t0, t1 = args.t0, args.t1
    report.params.update(
        kappa=args.kappa, mult=args.mult or 0, mu0=args.mu0,
        t0=t0, t1=t1, steps=args.steps,
    )
    report.samples = args.steps
    if t0 >= t1:
        raise ConstructionError(f"empty time range [{t0}, {t1}]")
    # Checks run well inside the blow-up window: within 85% of the distance
    # from t = 0 to each finite pole, conditioning of the comparisons decays
    # like powers of 1/(pole - t) and RK4 loses accuracy first.
    lo = 0.85 * fam.t_lower if math.isfinite(fam.t_lower) else t0
    hi = 0.85 * fam.t_upper if math.isfinite(fam.t_upper) else t1
    truncated = t0 < lo or t1 > hi
    t0c, t1c = max(t0, lo), min(t1, hi)
    if t0c >= t1c:
        raise BlowUpError(
            f"requested range [{t0}, {t1}] lies outside the safe interval "
            f"({fam.t_lower:.6g}, {fam.t_upper:.6g})"
        )
    if truncated:
        report.notes.append(
            f"range clipped to [{t0c:.6g}, {t1c:.6g}] before blow-up "
            f"(poles at {fam.t_lower:.6g}, {fam.t_upper:.6g})"
        )

    grid = np.linspace(t0c, t1c, 9)
    # Identity residuals grow with the moment magnitudes even at machine
    # precision, so the gated rows are scaled by the largest |Q_i| seen.
    moments = [gamma_ij(fam, grid, i, 0) for i in range(1, 8)]
    scale = float(np.max(np.abs(moments), initial=1.0))
    closed = evolve_closed(fam, grid)
    report.add(
        "closed-vs-numeric",
        np.abs(closed - evolve_numeric(fam, grid, args.steps)) / scale,
        TOL_RICCATI_EVOLVE,
        "closed-branch evolution vs RK4, scaled by the moment magnitude",
    )
    report.add(
        "power-sum-recurrence",
        check_power_sum_recurrence(fam, grid) / scale,
        TOL_RICCATI_LEMMA,
        "derivative of the k-th curvature power sum vs the inductive step, "
        "scaled by the moment magnitude",
    )
    report.add(
        "mixed-trace-recurrence",
        check_gamma_recurrence(fam, grid) / scale,
        TOL_RICCATI_LEMMA,
        "derivative of tr(S^i R) vs the inductive step, scaled by the "
        "moment magnitude",
    )
    chain = check_moment_chain(fam, grid)
    report.add(
        "moment-chain", np.max(list(chain.values())) / scale, TOL_RICCATI_CHAIN,
        "Q4 and Q5 propagated from lower moments vs direct power sums, "
        "scaled by the moment magnitude",
    )
    report.extra["moment_scale"] = scale
    # Recovery from power sums is well-posed only for pairwise distinct
    # values: a root of multiplicity m reacts to coefficient noise like
    # noise^(1/m), so tied branches are excluded rather than mis-scored.
    distinct = len(set(zip(kappas, mu0)))
    if n <= 8 and distinct == n:
        recovered = [moment_to_spectrum_evolution(fam, float(t)) for t in grid]
        report.add(
            "moment-round-trip",
            np.abs(recovered - np.sort(closed)[:, ::-1]),
            TOL_RICCATI_ROUNDTRIP,
            "eigenvalues recovered from power sums vs the evolved multiset",
        )
    else:
        reason = "n > 8" if n > 8 else "repeated branches"
        report.notes.append(f"moment round-trip skipped: {reason}")

    return "trajectory", functools.partial(
        trajectory_table, fam, t0c, t1c, args.steps
    )


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args, report):
    fam = _build_family(args, report)
    level = args.level
    if abs(level) >= 1.0:
        raise ConstructionError(f"level t = {level} must satisfy |t| < 1")
    report.params["level"] = level

    pts = regular_sphere_points(fam, args.samples, report.seed)

    def check(block):
        return munzner_check(frame_at(fam, level_project(fam, pts[block], level)))

    deviation, flipped, expected = in_blocks(args.samples, check)
    report.add(
        "spectrum-match", deviation, MATCH_TOL,
        "shape operator eigenvalues vs the cotangent-shift prediction",
    )
    report.add(
        "orientation-flips", np.count_nonzero(flipped), 0.0,
        "count of points matching only after a global sign flip",
    )
    report.extra["expected_values"] = [float(v) for v in expected[0]]

    return "recurrence", functools.partial(
        recurrence_table, fam.g, fam.m1, fam.m2,
        np.linspace(-LEVEL_BOUND, LEVEL_BOUND, LEVEL_POINTS),
    )


# ------------------------------------------------------------- recurrences


def cmd_recurrences(args, report):
    fam = _build_family(args, report)
    g, m1, m2, k_max = fam.g, fam.m1, fam.m2, RECURRENCE_K_MAX
    grid = np.linspace(-LEVEL_BOUND, LEVEL_BOUND, args.samples)
    report.params.update(k_max=k_max, level_bound=LEVEL_BOUND)

    report.add(
        "qk-recurrence", qk_recurrence_check(g, m1, m2, grid),
        TOL_RECURRENCE,
        "Q_(k+1) vs (g/k) sqrt(1 - t^2) dQ_k/dt - Q_(k-1), complex-step "
        "derivative, relative to the size of the terms",
    )
    rhobar = rhobar_recurrence_check(fam, grid, report.seed)
    report.add(
        "rhobar-recurrence", rhobar["recurrence"], TOL_RECURRENCE,
        "first-order recurrence in t of the ambient Hessian power sums "
        "rhobar_k, complex-step derivative, relative to the size of the terms",
    )
    # Like riccati's moment rows, the path agreement is scaled by the largest
    # power sum it compares.
    scale = float(np.max(np.abs(level_power_sums(g, m1, m2, grid, k_max)[1])))
    report.add(
        "rhobar-path-agreement", rhobar["path-agreement"] / scale, TOL_RECURRENCE,
        "rhobar_k from the curvature prediction vs rho_k of the Hessian at a "
        "point projected to each level, scaled by the largest |rhobar_k|",
    )
    report.add(
        "rhobar-seed-zero", rhobar["seed-zero"], TOL_RECURRENCE,
        "rhobar_0 vs n + 2",
    )
    report.add(
        "rhobar-seed-one",
        rhobar["seed-one"] / max(1.0, abs(0.5 * g * g * (m2 - m1))),
        TOL_RECURRENCE,
        "rhobar_1 vs (g^2/2)(m2 - m1), scaled by max(1, |(g^2/2)(m2 - m1)|)",
    )
    report.extra["rhobar_scale"] = scale


# ------------------------------------------------------------------ parser


def _add_family_flags(sub):
    sub.add_argument(
        "--family", required=True, choices=["cartan", "fkm", "ot"],
        help="polynomial family",
    )
    sub.add_argument("--m", type=int, help="cartan algebra index / fkm m")
    sub.add_argument("--r", type=int, help="fkm block size / ot block count")


def _add_common_flags(sub, samples_default):
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


# A number with an optional exponent. argparse reads an argument that starts
# with a minus sign as a value only when its pattern matches; its own takes
# one plain number, ours also exponents and comma lists (--kappa -1,-4).
_NUMBER = r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConstructionError in place of printing usage
    and exiting, so main reports it as JSON with exit 2; subparsers share
    the class, and --help still prints and exits 0."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"{_NUMBER}(,{_NUMBER})*$")

    def error(self, message):
        raise ConstructionError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = _Parser(
        prog="isopar",
        description="numerical verification suites for isoparametric polynomials",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "verify-cm",
        help="defining differential equations and the spherical profile",
    )
    _add_family_flags(p)
    _add_common_flags(p, samples_default=200)
    p.add_argument("--tol", type=float, default=TOL_CM)
    p.set_defaults(func=cmd_verify_cm)

    p = subs.add_parser(
        "verify-hidden",
        help="closed forms of Hessian minors and eigenvalue power sums",
    )
    _add_family_flags(p)
    _add_common_flags(p, samples_default=100)
    p.add_argument("--k", help="comma separated k values (default depends on family)")
    p.add_argument("--tol", type=float, default=TOL_HIDDEN)
    p.set_defaults(func=cmd_verify_hidden)

    p = subs.add_parser(
        "alpha-scan",
        help="normal-torsion ratio statistics over level sets",
        epilog="CSV columns (--csv PREFIX -> PREFIX-alpha.csv): "
        "index, level, alpha, omega, l; floats carry 17 significant digits.",
    )
    _add_family_flags(p)
    _add_common_flags(p, samples_default=50)
    p.add_argument(
        "--J", default="block", choices=sorted(J_CHOICES),
        help="circle action: block, right-i or left-i",
    )
    p.add_argument(
        "--level", type=float, action="append",
        help="level value in (-1, 1); repeatable (default 0)",
    )
    p.add_argument("--csv", help="prefix for CSV side files")
    p.set_defaults(func=cmd_alpha_scan)

    p = subs.add_parser(
        "riccati",
        help="closed-form curvature evolution against a numeric integrator",
        epilog="CSV columns (--csv PREFIX -> PREFIX-trajectory.csv): "
        "t, mu1..mu<n>, Q1..Q4, H (equal to Q1); floats carry 17 significant "
        "digits.",
    )
    p.add_argument("--kappa", required=True, help="one or two values, comma separated")
    p.add_argument("--mult", type=int, help="multiplicity of the second value (1, 3 or 7)")
    p.add_argument("--mu0", required=True, help="initial curvatures, comma separated")
    p.add_argument("--t0", type=float, default=-0.5)
    p.add_argument("--t1", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="prefix for CSV side files")
    p.set_defaults(func=cmd_riccati)

    p = subs.add_parser(
        "spectrum",
        help="shape operator spectrum at a level vs the closed prediction",
        epilog="CSV columns (--csv PREFIX -> PREFIX-recurrence.csv): "
        "t, Q1..Q6, rhobar0..rhobar6; floats carry 17 significant digits.",
    )
    _add_family_flags(p)
    _add_common_flags(p, samples_default=50)
    p.add_argument("--level", type=float, default=0.0)
    p.add_argument("--csv", help="prefix for CSV side files")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser(
        "recurrences",
        help="level recurrences of the power sums Q_k and rhobar_k",
        epilog="--samples counts levels, evenly spaced on "
        f"[-{LEVEL_BOUND}, {LEVEL_BOUND}], with k <= {RECURRENCE_K_MAX}. "
        "The table of Q_k and rhobar_k on the default grid is spectrum's "
        "--csv side file.",
    )
    _add_family_flags(p)
    _add_common_flags(p, samples_default=LEVEL_POINTS)
    p.set_defaults(func=cmd_recurrences)

    return parser


def main(argv=None) -> int:
    """Run one suite and return its exit code: 0 pass, 1 a gated check
    failed, 2 a usage, construction or file error or a closed stdout; the
    JSON body goes to stdout or --out (stdout when --out cannot be written)."""
    argv = sys.argv[1:] if argv is None else argv
    # Until parsing succeeds, the command is the first word unless it is a flag.
    command = argv[0] if argv and not argv[0].startswith("-") else None
    out = None
    try:
        args = build_parser().parse_args(argv)
        command, out = args.command, args.out
        report = SuiteReport(command, _seed(args))
        side = args.func(args, report)
        if side is not None and args.csv:
            suffix, table = side
            path = f"{args.csv}-{suffix}.csv"
            write_csv(path, *table())
            report.notes.append(f"wrote {path}")
        text, code = report_body(report), 0 if report.passed else 1
    except (IsoparError, ValueError, OSError) as exc:
        text, code = error_body(command, exc), 2
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text + "\n")
            return code
        except OSError as exc:
            text, code = error_body(command, exc), 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone: devnull takes stdout, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
