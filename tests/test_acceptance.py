"""Acceptance battery.

Eleven numbered checks, each printing exactly one PASS/FAIL line with its
measured figure and the tolerance it was held to. The prints bypass
capture so the verdict lines appear in any pytest run.
"""

import time
from functools import partial

import numpy as np
import pytest

from isopar import riccati as rc
from isopar.clifford import J_BLOCK, J_LEFT, J_RIGHT, build_complex_structure
from isopar.hopf import (
    HopfContext,
    alpha_at,
    alpha_scan,
    hopf_blocks,
    omega_closed_form,
    omega_direct,
    phi_decomposition,
    witness_points,
)
from isopar.polyfam import (
    cm_residuals,
    delta_k,
    eval_F,
    eval_grad,
    eval_hessian,
    hidden_rho_residual,
    make_cartan,
    make_fkm,
    make_ot,
)
from isopar.spherelevel import (
    frame_at,
    munzner_check,
    qk_recurrence_check,
    regular_sphere_points,
    rhobar_recurrence_check,
)
from isopar.symmat import (
    SymmetricMatrix,
    newton_rho_from_sigma,
    newton_sigma_from_rho,
    rho_k,
    sigma_k,
    sigma_k_minor_sum,
)

BATTERY_START = time.perf_counter()
SEED = 20240814

FAMILIES = {
    "cartan-m1": make_cartan(1),
    "cartan-m2": make_cartan(2),
    "fkm-1-3": make_fkm(1, 3),
    "fkm-2-4": make_fkm(2, 4),
    "ot-1": make_ot(1),
}


def contexts():
    return {
        "fkm-1-3/block": HopfContext(
            FAMILIES["fkm-1-3"], build_complex_structure(J_BLOCK, 6)
        ),
        "fkm-2-4/block": HopfContext(
            FAMILIES["fkm-2-4"], build_complex_structure(J_BLOCK, 8)
        ),
        "ot-1/right": HopfContext(
            FAMILIES["ot-1"], build_complex_structure(J_RIGHT, 16)
        ),
        "ot-1/left": HopfContext(
            FAMILIES["ot-1"], build_complex_structure(J_LEFT, 16)
        ),
    }


CTX = contexts()


def ball_points(dim, count, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(0.2, 2.0, size=count)
    return pts * radii[:, None]


def emit(capsys, idx, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] {idx:02d} {name}: {detail}")
    assert ok, f"check {idx:02d} {name}: {detail}"


def test_criterion_01_defining_equations(capsys):
    tol = 1e-8
    worst = 0.0
    started = time.perf_counter()
    for key in ("cartan-m1", "cartan-m2", "fkm-2-4"):
        fam = FAMILIES[key]
        for x in ball_points(fam.ambient_dim, 200, SEED):
            r = float(np.linalg.norm(x))
            res_grad, res_lap = cm_residuals(fam, x)
            worst = max(worst, abs(res_grad) / r ** (2 * fam.g - 2))
            worst = max(worst, abs(res_lap) / r ** (fam.g - 2))
    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 1.0
    emit(
        capsys, 1, "defining-equations", ok,
        f"max scaled residual {worst:.3e} (tol {tol:g}), "
        f"3 families x 200 points in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_minor_chain(capsys):
    tol = 1e-8
    fam = FAMILIES["cartan-m1"]
    worst = 0.0
    started = time.perf_counter()
    for x in ball_points(5, 100, SEED + 1):
        r2 = float(x @ x)
        r = np.sqrt(r2)
        F = eval_F(fam, x)
        closed = {
            1: 0.0,
            2: -63.0 * r2,
            3: -54.0 * F,
            4: 972.0 * r2 * r2,
            5: 1944.0 * r2 * F,
        }
        for k, sigma in zip(range(1, 6), delta_k(fam, x, (1, 2, 3, 4, 5))):
            worst = max(worst, abs(sigma - closed[k]) / r**k)
    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 1.0
    emit(
        capsys, 2, "hessian-minor-chain", ok,
        f"max scaled residual {worst:.3e} (tol {tol:g}), "
        f"100 points in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_03_power_sum_closed_forms(capsys):
    tol = 1e-8
    worst = 0.0
    for key, fam in FAMILIES.items():
        ks = [2, 3] + ([4] if fam.n >= 4 else [])
        for x in ball_points(fam.ambient_dim, 100, SEED + 2):
            r = float(np.linalg.norm(x))
            for k, res in zip(ks, hidden_rho_residual(fam, x, ks)):
                worst = max(worst, abs(res) / r ** (k * (fam.g - 2)))
    ok = worst < tol
    emit(
        capsys, 3, "power-sum-closed-forms", ok,
        f"max scaled residual {worst:.3e} (tol {tol:g}), "
        "5 families x 100 points, k in {2,3} plus 4 where n >= 4",
    )


def test_criterion_04_torsion_witnesses(capsys):
    tol = 1e-9
    z_plus_f, z_minus_f = witness_points(CTX["fkm-2-4/block"])
    z_plus_o, z_minus_o = witness_points(CTX["ot-1/right"])
    frame_f = partial(frame_at, FAMILIES["fkm-2-4"])
    frame_o = partial(frame_at, FAMILIES["ot-1"])
    checks = [
        abs(omega_direct(CTX["fkm-2-4/block"], frame_f(z_plus_f)) - 128.0),
        abs(omega_direct(CTX["fkm-2-4/block"], frame_f(z_minus_f)) + 128.0),
        abs(omega_direct(CTX["ot-1/right"], frame_o(z_plus_o)) - 128.0),
        abs(omega_direct(CTX["ot-1/left"], frame_o(z_minus_o)) + 128.0),
    ]
    worst = max(checks)
    ok = worst < tol
    emit(
        capsys, 4, "torsion-witnesses", ok,
        f"max |Omega -+ 128| = {worst:.3e} (tol {tol:g}) over 4 point checks",
    )


def test_criterion_05_torsion_closed_form(capsys):
    tol = 1e-9
    worst = 0.0
    for name, ctx in CTX.items():
        pts = regular_sphere_points(ctx.P, 100, SEED + 3)
        for x in pts:
            worst = max(
                worst,
                abs(omega_closed_form(ctx, x) - omega_direct(ctx, frame_at(ctx.P, x))),
            )
    ok = worst < tol
    emit(
        capsys, 5, "torsion-closed-form", ok,
        f"max |closed - direct| = {worst:.3e} (tol {tol:g}), "
        "4 invariant pairs x 100 sphere points",
    )


def test_criterion_06_vertical_curvature_dichotomy(capsys):
    _, summaries = alpha_scan(CTX["fkm-1-3/block"], [-0.3, 0.0, 0.5], 50, SEED + 4)
    worst_std = max(summary["std"] for summary in summaries)
    _, (spread,) = alpha_scan(CTX["fkm-2-4/block"], [0.0], 200, SEED + 5)
    variation = spread["max"] - spread["min"]
    ok = worst_std < 1e-7 and variation >= 3.0
    emit(
        capsys, 6, "vertical-curvature-dichotomy", ok,
        f"low-multiplicity std {worst_std:.3e} (tol 1e-07, 3 levels x 50), "
        f"high-multiplicity spread {variation:.3f} (needs >= 3, 200 samples)",
    )


def test_criterion_07_curvature_spectrum(capsys):
    tol = 1e-6
    worst = 0.0
    for key, fam in FAMILIES.items():
        deviation, _, _ = munzner_check(
            frame_at(fam, regular_sphere_points(fam, 50, SEED + 6))
        )
        assert np.all(deviation <= tol), f"{key}: deviation {np.max(deviation):.3e}"
        worst = max(worst, float(np.max(deviation)))
    ok = worst < tol
    emit(
        capsys, 7, "curvature-spectrum", ok,
        f"max deviation {worst:.3e} (tol {tol:g}), 5 families x 50 points",
    )


def test_criterion_08_level_recurrences(capsys):
    tol = 1e-12
    grid = np.linspace(-0.9, 0.9, 22)[1:-1]  # 20 interior values
    worst = 0.0
    for fam in FAMILIES.values():
        q_res = qk_recurrence_check(fam.g, fam.m1, fam.m2, grid)
        rhobar = rhobar_recurrence_check(fam, grid, SEED + 7)
        assert rhobar["seed-zero"] == 0.0
        assert rhobar["seed-one"] < 1e-12
        worst = max(worst, q_res, rhobar["recurrence"])
    ok = worst < tol
    emit(
        capsys, 8, "level-recurrences", ok,
        f"max complex-step relative residual {worst:.3e} (tol {tol:g},"
        f" {len(FAMILIES)} families x 20 t, k <= 6, seeds exact)",
    )


def test_criterion_09_invariant_block_structure(capsys):
    tol_frame = 1e-7
    tol_moments = 1e-8
    worst_frame = 0.0
    worst_moment = 0.0
    for name in ("fkm-2-4/block", "ot-1/right"):
        ctx = CTX[name]
        for x in regular_sphere_points(ctx.P, 50, SEED + 8, f_bound=0.8):
            frame = frame_at(ctx.P, x)
            # the forced link S Jx = -Jnu in the frame's tangent basis
            jx = frame.tangent_basis @ (ctx.J.matrix @ frame.point)
            jnu = frame.tangent_basis @ (ctx.J.matrix @ frame.nu)
            worst_frame = max(
                worst_frame, float(np.linalg.norm(frame.shape.entries @ jx + jnu))
            )
            s, st = frame.shape, hopf_blocks(ctx, frame)
            alpha, _ = alpha_at(ctx, frame)
            worst_frame = max(
                worst_frame,
                abs(sigma_k(s, 1) - sigma_k(st, 1)),
                abs(sigma_k(s, 2) - (sigma_k(st, 2) - 1.0)),
                abs(sigma_k(s, 3) - (sigma_k(st, 3) - sigma_k(st, 1) + alpha)),
            )
            # the weights' moments (1, 0, 1, alpha) on the curvature nodes
            dec = phi_decomposition(ctx, frame)
            lam, phi = np.array(dec.lambdas), np.array(dec.phi_sq)
            worst_moment = max(
                worst_moment,
                abs(float(phi.sum()) - 1.0),
                abs(float(lam @ phi)),
                abs(float(lam**2 @ phi) - 1.0),
                abs(float(lam**3 @ phi) - alpha),
            )
    ok = worst_frame < tol_frame and worst_moment < tol_moments
    emit(
        capsys, 9, "invariant-block-structure", ok,
        f"max frame/minor residual {worst_frame:.3e} (tol {tol_frame:g}), "
        f"max weight-moment residual {worst_moment:.3e} (tol {tol_moments:g}),"
        " 2 invariant pairs x 50 points",
    )


def riccati_families():
    yield rc.riccati_family(rc.space_form(1.0, 4), (0.9, -0.3, 0.25, 1.1))
    yield rc.riccati_family(rc.space_form(-1.0, 3), (0.4, -0.2, 1.6))
    yield rc.riccati_family(
        rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
    )
    yield rc.riccati_family(
        rc.rank_one(-1.0, 2.0, 1, 8), tuple(np.linspace(-0.8, 0.9, 8))
    )


def test_criterion_10_curvature_evolution(capsys):
    worst_flow = 0.0
    worst_lemma = 0.0
    worst_chain = 0.0
    worst_trip = 0.0
    for fam in riccati_families():
        lo = max(-0.5, fam.t_lower + 2 * rc.BLOWUP_BAND)
        hi = min(0.5, fam.t_upper - 2 * rc.BLOWUP_BAND)
        times = np.linspace(lo, hi, 9)
        for t in times:
            closed = rc.evolve_closed(fam, float(t))
            numeric = rc.evolve_numeric(fam, float(t), steps=1000)
            worst_flow = max(worst_flow, float(np.max(np.abs(closed - numeric))))
            recovered = np.sort(rc.moment_to_spectrum_evolution(fam, float(t)))
            worst_trip = max(
                worst_trip,
                float(np.max(np.abs(np.sort(closed) - recovered))),
            )
        worst_lemma = max(
            worst_lemma,
            rc.check_power_sum_recurrence(fam, times),
            rc.check_gamma_recurrence(fam, times),
        )
        chain = rc.check_moment_chain(fam, times)
        worst_chain = max(worst_chain, np.max(list(chain.values())))
    ok = (
        worst_flow < 1e-8
        and worst_lemma < 1e-9
        and worst_chain < 1e-8
        and worst_trip < 1e-6
    )
    emit(
        capsys, 10, "curvature-evolution", ok,
        f"closed-vs-RK4 {worst_flow:.3e} (tol 1e-08), derivative lemmas "
        f"{worst_lemma:.3e} (tol 1e-09), two-path moments {worst_chain:.3e} "
        f"(tol 1e-08), moment round-trip {worst_trip:.3e} (tol 1e-06)",
    )


def test_criterion_11_property_battery(capsys):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(SEED + 9)))

    worst_newton = 0.0
    worst_minor = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 8))
        values = rng.uniform(-3.0, 3.0, size=n)
        a = rng.standard_normal((n, n))
        mat = SymmetricMatrix(0.5 * (a + a.T))
        rho = [float(np.sum(values**k)) for k in range(1, n + 1)]
        sigma = newton_sigma_from_rho(rho, n)
        back = newton_rho_from_sigma(sigma, n)
        scale = max(1.0, float(np.max(np.abs(rho))))
        worst_newton = max(
            worst_newton, max(abs(p - q) for p, q in zip(rho, back)) / scale
        )
        for k in range(1, n + 1):
            direct = sigma_k(mat, k)
            minor = sigma_k_minor_sum(mat, k)
            worst_minor = max(
                worst_minor, abs(direct - minor) / max(1.0, abs(minor))
            )

    worst_grad = 0.0
    worst_hess = 0.0
    worst_hom = 0.0
    h = 1e-5
    for fam in FAMILIES.values():
        for x in ball_points(fam.ambient_dim, 5, SEED + 10):
            grad = eval_grad(fam, x)
            hess = eval_hessian(fam, x).entries
            for i in range(fam.ambient_dim):
                e = np.zeros(fam.ambient_dim)
                e[i] = h
                fd_g = (eval_F(fam, x + e) - eval_F(fam, x - e)) / (2 * h)
                worst_grad = max(
                    worst_grad,
                    abs(fd_g - grad[i]) / max(1.0, abs(grad[i])),
                )
                fd_h = (eval_grad(fam, x + e) - eval_grad(fam, x - e)) / (2 * h)
                worst_hess = max(worst_hess, float(np.max(np.abs(fd_h - hess[i]))))
            lam = float(rng.uniform(0.5, 1.5))
            fx = eval_F(fam, x)
            worst_hom = max(
                worst_hom,
                abs(eval_F(fam, lam * x) - lam**fam.g * fx) / max(1.0, abs(fx)),
            )

    elapsed = time.perf_counter() - BATTERY_START
    ok = (
        worst_newton < 1e-10
        and worst_minor < 1e-8
        and worst_grad < 1e-6
        and worst_hess < 1e-5
        and worst_hom < 1e-9
        and elapsed < 60.0
    )
    emit(
        capsys, 11, "property-battery", ok,
        f"newton {worst_newton:.2e} (1e-10), minor-sum {worst_minor:.2e} "
        f"(1e-08), fd-gradient {worst_grad:.2e} (1e-06), fd-hessian "
        f"{worst_hess:.2e} (1e-05), scaling {worst_hom:.2e} (1e-09); "
        f"battery {elapsed:.1f}s (budget 60s)",
    )
