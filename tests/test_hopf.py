"""Circle-invariant structure: Omega, alpha, block frames, weight systems."""

import sys

import numpy as np
import pytest

from isopar import hopf, polyfam
from isopar.clifford import J_BLOCK, J_LEFT, J_RIGHT, build_complex_structure
from isopar.errors import InvarianceError, UnsupportedPairError
from isopar.hopf import (
    HopfContext,
    alpha_at,
    alpha_scan,
    hopf_blocks,
    omega_closed_form,
    omega_direct,
    phi_decomposition,
    s1_invariance_residual,
    witness_points,
)
from isopar.polyfam import eval_F, make_fkm, make_ot
from isopar.spherelevel import (
    SAMPLE_BLOCK,
    frame_at,
    level_project,
    orthonormal_complement,
    regular_sphere_points,
)
from isopar.symmat import SymmetricMatrix, eigh, sigma_k, vandermonde_solve

_cache = {}


def context(name):
    if name not in _cache:
        builders = {
            "fkm13-block": lambda: HopfContext(
                make_fkm(1, 3), build_complex_structure(J_BLOCK, 6)
            ),
            "fkm24-block": lambda: HopfContext(
                make_fkm(2, 4), build_complex_structure(J_BLOCK, 8)
            ),
            "ot1-right": lambda: HopfContext(
                make_ot(1), build_complex_structure(J_RIGHT, 16)
            ),
            "ot1-left": lambda: HopfContext(
                make_ot(1), build_complex_structure(J_LEFT, 16)
            ),
        }
        _cache[name] = builders[name]()
    return _cache[name]


CONTEXT_NAMES = ["fkm13-block", "fkm24-block", "ot1-right", "ot1-left"]


def invariance_residual(monkeypatch, P, J, samples, seed):
    """s1_invariance_residual over `samples` pairs seeded from `seed`."""
    monkeypatch.setattr(hopf, "CONTEXT_CHECK_SAMPLES", samples)
    monkeypatch.setattr(hopf, "CONTEXT_CHECK_SEED", seed)
    return s1_invariance_residual(P, J)


class TestInvariance:
    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_invariant_pairs_accepted(self, monkeypatch, name):
        ctx = context(name)
        res = invariance_residual(monkeypatch, ctx.P, ctx.J, samples=20, seed=7)
        assert res < 1e-9

    @pytest.mark.parametrize(
        "fam_builder,jtag",
        [
            (lambda: make_fkm(2, 4), J_RIGHT),
            (lambda: make_ot(1), J_BLOCK),
        ],
    )
    def test_wrong_structure_rejected(self, monkeypatch, fam_builder, jtag):
        fam = fam_builder()
        J = build_complex_structure(jtag, fam.ambient_dim)
        assert invariance_residual(monkeypatch, fam, J, samples=20, seed=7) > 0.1
        monkeypatch.undo()  # the context check runs at its own sample
        with pytest.raises(InvarianceError):
            HopfContext(fam, J)

    def test_residual_evaluates_two_blocks(self, monkeypatch):
        # the z and w points of every seeded (z, theta) pair, one block each
        fam = make_fkm(2, 4)
        J = build_complex_structure(J_RIGHT, 8)
        calls = []

        def counted(P, x):
            calls.append(np.shape(x))
            return eval_F(P, x)

        expected = 0.0
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
            z = rng.standard_normal(8)
            z /= np.linalg.norm(z)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            w = np.cos(theta) * z + np.sin(theta) * (J.matrix @ z)
            expected = max(expected, abs(eval_F(fam, w) - eval_F(fam, z)))
        monkeypatch.setattr(hopf, "eval_F", counted)
        res = invariance_residual(monkeypatch, fam, J, samples=20, seed=7)
        assert calls == [(20, 8), (20, 8)]
        assert res == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 7, 911, 2**40 + 5])
    def test_pairs_keep_per_index_streams(self, monkeypatch, seed):
        # pair i draws z, then theta, from SeedSequence(seed, spawn_key=(i,));
        # both blocks equal the per-pair construction bit for bit
        fam = make_fkm(2, 4)
        J = build_complex_structure(J_RIGHT, 8)
        zs, ws = [], []
        for i in range(30):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            z = rng.standard_normal(8)
            z = z / np.linalg.norm(z)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            zs.append(z)
            ws.append(np.cos(theta) * z + np.sin(theta) * (J.matrix @ z))
        blocks = []
        monkeypatch.setattr(
            hopf, "eval_F", lambda P, x: (blocks.append(x), eval_F(P, x))[1]
        )
        invariance_residual(monkeypatch, fam, J, samples=30, seed=seed)
        assert np.array_equal(blocks[0], ws) and np.array_equal(blocks[1], zs)

    def test_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(hopf, "eval_F", lambda P, x: np.full(len(x), np.nan))
        with pytest.raises(InvarianceError):
            HopfContext(make_fkm(1, 3), build_complex_structure(J_BLOCK, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            HopfContext(make_fkm(1, 3), build_complex_structure(J_BLOCK, 8))


class TestOmega:
    def test_witness_values(self):
        # the two recorded points of each quartic give +128 and -128
        for name in ["fkm24-block", "ot1-right", "ot1-left"]:
            ctx = context(name)
            z_plus, z_minus = witness_points(ctx)
            assert abs(eval_F(ctx.P, z_plus)) < 1e-12
            assert abs(eval_F(ctx.P, z_minus)) < 1e-12
            omega_plus = omega_direct(ctx, frame_at(ctx.P, z_plus))
            omega_minus = omega_direct(ctx, frame_at(ctx.P, z_minus))
            assert omega_plus == pytest.approx(128.0, abs=1e-12)
            assert omega_minus == pytest.approx(-128.0, abs=1e-12)

    def test_witness_points_unsupported_family(self):
        # Omega is +128 at both fkm-2-4 block points under left-i, and the
        # m = 1 family has no recorded points at all.
        assert witness_points(context("fkm13-block")) is None
        left = HopfContext(make_fkm(2, 4), build_complex_structure(J_LEFT, 8))
        assert witness_points(left) is None

    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_closed_form_matches_direct(self, name):
        ctx = context(name)
        pts = regular_sphere_points(ctx.P, 20, 71, f_bound=0.99)
        for x in pts:
            direct = omega_direct(ctx, frame_at(ctx.P, x))
            closed = omega_closed_form(ctx, x)
            assert closed == pytest.approx(direct, abs=1e-10, rel=1e-10)

    def test_reduced_and_general_forms_agree(self):
        # the short block expressions for m = 1 and m = 2, written out here,
        # against the general standard-block formula
        for name in ["fkm13-block", "fkm24-block"]:
            ctx = context(name)
            x = regular_sphere_points(ctx.P, 1, 73)[0]
            F = eval_F(ctx.P, x)
            reduced = 64.0 * (-2.0 * F * F - F + 2.0)
            if ctx.P.system.m == 2:
                q2 = x @ ctx.P.system.generators[2] @ x
                reduced -= 64.0 * 8.0 * (1.0 + F) * q2**2
            assert omega_closed_form(ctx, x) == pytest.approx(reduced, abs=1e-10)

    def test_unsupported_pair_raises(self):
        ctx = HopfContext(make_fkm(2, 4), build_complex_structure(J_LEFT, 8))
        x = regular_sphere_points(ctx.P, 1, 74)[0]
        with pytest.raises(UnsupportedPairError, match="no closed form"):
            omega_closed_form(ctx, x)


class TestAlpha:
    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_closed_matches_geometric(self, name):
        # the geometric route: alpha = -H_f(Jnu, Jnu) / |grad f| from the
        # frame's raw Hessian
        ctx = context(name)
        for x in regular_sphere_points(ctx.P, 10, 79):
            frame = frame_at(ctx.P, x)
            closed, _ = alpha_at(ctx, frame)
            jnu = ctx.J.matrix @ frame.nu
            geometric = -frame.hessian_in(jnu[None, :])[0, 0] / frame.grad_norm
            assert abs(closed - geometric) < 1e-9

    def test_m1_alpha_constant_per_level(self):
        ctx = context("fkm13-block")
        for level in (-0.3, 0.0, 0.5):
            values = []
            for x in regular_sphere_points(ctx.P, 15, 83):
                y = level_project(ctx.P, x, level)
                values.append(alpha_at(ctx, frame_at(ctx.P, y))[0])
            assert np.std(values) < 1e-7

    def test_m1_alpha_level_zero_value(self):
        # Omega is the constant 128 on F = 0 for m = 1, so alpha = 2 there
        ctx = context("fkm13-block")
        x = regular_sphere_points(ctx.P, 1, 84)[0]
        y = level_project(ctx.P, x, 0.0)
        alpha, _ = alpha_at(ctx, frame_at(ctx.P, y))
        assert alpha == pytest.approx(2.0, abs=1e-9)

    def test_scan_evaluates_one_hessian_per_sample(self, monkeypatch):
        ctx = context("fkm24-block")
        calls = {"eval_jet": [], "eval_hessian": []}

        def counted(name, original):
            def kernel(P, x):
                calls[name].append(x)
                return original(P, x)
            return kernel

        for name in calls:
            original = getattr(polyfam, name)
            wrapper = counted(name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "isopar" and getattr(
                    module, name, None
                ) is original:
                    monkeypatch.setattr(module, name, wrapper)
        samples = 2 * SAMPLE_BLOCK + 3
        scan, _ = alpha_scan(ctx, [0.3], samples, 89)
        assert len(scan.alpha) == samples
        # the Hessian reaches the scan only through the frames' one jet per
        # block, every sample in exactly one block
        assert [np.shape(x) for x in calls["eval_jet"]] == [
            (SAMPLE_BLOCK, 8), (SAMPLE_BLOCK, 8), (3, 8)
        ]
        assert calls["eval_hessian"] == []

    def test_m2_alpha_varies(self):
        ctx = context("fkm24-block")
        _, (summary,) = alpha_scan(ctx, [0.0], 40, 89)
        assert summary["max"] - summary["min"] > 3.0

    def test_witness_alpha_is_plus_minus_two(self):
        # Omega = +-128 at F = 0 forces alpha = +-128/64 = +-2
        ctx = context("fkm24-block")
        z_plus, z_minus = witness_points(ctx)
        alpha_plus, _ = alpha_at(ctx, frame_at(ctx.P, z_plus))
        alpha_minus, _ = alpha_at(ctx, frame_at(ctx.P, z_minus))
        assert alpha_plus == pytest.approx(2.0, abs=1e-10)
        assert alpha_minus == pytest.approx(-2.0, abs=1e-10)

    def test_scan_calls_alpha_once_per_sample(self, monkeypatch):
        # one alpha per row: one call per block, on that block's frame
        # stack; the weight count reads the eigenprojection only
        ctx = context("fkm24-block")
        calls = []

        def counted(ctx, frame):
            calls.append(np.shape(frame.f))
            return alpha_at(ctx, frame)

        monkeypatch.setattr(hopf, "alpha_at", counted)
        scan, _ = alpha_scan(ctx, [0.3], SAMPLE_BLOCK + 7, 89)
        assert len(scan.alpha) == SAMPLE_BLOCK + 7
        assert calls == [(SAMPLE_BLOCK,), (7,)]

    def test_levels_share_one_draw(self, monkeypatch):
        # three levels: the points are drawn once and projected to each,
        # and each level's columns and summary equal its own scan
        ctx = context("fkm24-block")
        levels = [-0.4, 0.0, 0.3]
        singles = [alpha_scan(ctx, [level], 20, 89) for level in levels]
        draws = []

        def counted(*args, **kwargs):
            draws.append(args[1:])
            return regular_sphere_points(*args, **kwargs)

        monkeypatch.setattr(hopf, "regular_sphere_points", counted)
        scan, summaries = alpha_scan(ctx, levels, 20, 89)
        assert draws == [(20, 89)]
        assert np.array_equal(scan.index, np.tile(np.arange(20), 3))
        assert np.array_equal(scan.level, np.repeat(levels, 20))
        for i, (single, (summary,)) in enumerate(singles):
            rows = slice(20 * i, 20 * (i + 1))
            assert np.array_equal(scan.alpha[rows], single.alpha)
            assert np.array_equal(scan.omega[rows], single.omega)
            assert np.array_equal(scan.l[rows], single.l)
            assert summaries[i] == summary
            assert list(summary) == ["level", "min", "max", "mean", "std"]
            assert summary["level"] == levels[i]


class TestBlocks:
    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_forced_structure(self, name):
        # S Jx = -Jnu in the frame's tangent basis, which carries the zero
        # (Jx, Jx) corner and the zero couplings between Jx and the rest
        ctx = context(name)
        jm = ctx.J.matrix
        for x in regular_sphere_points(ctx.P, 8, 97):
            frame = frame_at(ctx.P, x)
            jx = frame.tangent_basis @ (jm @ frame.point)
            jnu = frame.tangent_basis @ (jm @ frame.nu)
            assert np.linalg.norm(frame.shape.entries @ jx + jnu) < 1e-10
            s_tilde = hopf_blocks(ctx, frame)
            assert isinstance(s_tilde, SymmetricMatrix)
            assert s_tilde.order == frame.shape.order - 1

    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_sigma_identities(self, name):
        ctx = context(name)
        for x in regular_sphere_points(ctx.P, 8, 101):
            frame = frame_at(ctx.P, x)
            alpha, _ = alpha_at(ctx, frame)
            s, st = frame.shape, hopf_blocks(ctx, frame)
            assert sigma_k(s, 1) == pytest.approx(sigma_k(st, 1), abs=1e-7)
            assert sigma_k(s, 2) == pytest.approx(sigma_k(st, 2) - 1.0, abs=1e-7)
            assert sigma_k(s, 3) == pytest.approx(
                sigma_k(st, 3) - (sigma_k(st, 1) - alpha), abs=1e-7
            )

    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_compression_matches_explicit_frame(self, name):
        # S~ rebuilt in the explicit frame (e_1..e_(n-2), Jnu): a complete
        # QR of (x, nu, Jnu, Jx) and a Hessian contraction on those rows.
        ctx = context(name)
        jm = ctx.J.matrix
        for x in regular_sphere_points(ctx.P, 8, 113):
            frame = frame_at(ctx.P, x)
            jnu = jm @ frame.nu
            rest = orthonormal_complement(
                np.vstack([frame.point, frame.nu, jnu, jm @ frame.point])
            )
            rows = np.vstack([rest, jnu])
            explicit = -frame.hessian_in(rows) / frame.grad_norm
            compressed = hopf_blocks(ctx, frame).entries
            deviation = np.abs(
                np.linalg.eigvalsh(compressed) - np.linalg.eigvalsh(explicit)
            )
            assert np.max(deviation) <= 1e-12


class TestPhiDecomposition:
    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_moment_identities(self, name):
        # sum lam^k phi^2 = (1, 0, 1, alpha) for k = 0..3
        ctx = context(name)
        for x in regular_sphere_points(ctx.P, 6, 103):
            frame = frame_at(ctx.P, x)
            dec = phi_decomposition(ctx, frame)
            assert len(dec.lambdas) == ctx.P.g
            lam, phi = np.array(dec.lambdas), np.array(dec.phi_sq)
            alpha, _ = alpha_at(ctx, frame)
            moments = [lam**k @ phi for k in range(4)]
            for res in np.subtract(moments, [1.0, 0.0, 1.0, alpha]):
                assert abs(res) < 1e-8
            assert abs(sum(dec.phi_sq) - 1.0) < 1e-10

    def test_two_routes_agree(self):
        # eigenprojection against the moment system (1, 0, 1, alpha) solved
        # on the curvature nodes by a Vandermonde solve
        ctx = context("fkm24-block")
        for x in regular_sphere_points(ctx.P, 6, 107):
            frame = frame_at(ctx.P, x)
            dec = phi_decomposition(ctx, frame)
            alpha, _ = alpha_at(ctx, frame)
            phi_m = vandermonde_solve(dec.lambdas, [1.0, 0.0, 1.0, alpha])
            assert len(phi_m) == ctx.P.g
            assert np.max(np.abs(np.subtract(dec.phi_sq, phi_m))) < 1e-8

    def test_weight_count_bounds(self):
        ctx = context("fkm24-block")
        x = regular_sphere_points(ctx.P, 1, 109)[0]
        dec = phi_decomposition(ctx, frame_at(ctx.P, x))
        assert 1 <= dec.l <= ctx.P.g


def _merged(row, block=0):
    """hopf.eigh with every eigenvalue of one row of the block-th call set to
    its first: that row's spectrum is then a single cluster."""
    calls = []

    def merged(matrix):
        w, v = eigh(matrix)
        if len(calls) == block:
            w = w.copy()
            w[row] = w[row, 0]
        calls.append(None)
        return w, v

    return merged


class TestBlockRows:
    """Each row of a frame stack gets Omega, alpha and the decomposition of
    the single frame, bit for bit."""

    @pytest.mark.parametrize("size", [1, 3, 16, 50])
    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_rows_match_single_frames(self, name, size):
        # frames on levels spread over [-0.85, 0.85]; alpha also equals the
        # closed form in Python floats (libm's pow) bit for bit
        ctx = context(name)
        g = float(ctx.P.g)
        frames = frame_at(ctx.P, regular_sphere_points(ctx.P, size, 151, f_bound=0.85))
        omega = omega_direct(ctx, frames)
        alpha, alpha_omega = alpha_at(ctx, frames)
        dec = phi_decomposition(ctx, frames)
        assert omega.shape == alpha.shape == dec.l.shape == (size,)
        assert np.array_equal(alpha_omega, omega)
        for i, y in enumerate(frames.point):
            frame = frame_at(ctx.P, y)
            single = phi_decomposition(ctx, frame)
            F = frame.f
            assert omega[i] == omega_direct(ctx, frame)
            assert alpha[i] == alpha_at(ctx, frame)[0]
            assert alpha[i] == (g**3 * F * (3.0 - 2.0 * F * F) + omega[i]) / (
                g**3 * (1.0 - F * F) ** 1.5
            )
            assert dec.l[i] == single.l
            assert np.array_equal(dec.lambdas[i], single.lambdas)
            assert np.array_equal(dec.phi_sq[i], single.phi_sq)

    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_scan_columns_match_single_points(self, name):
        # 50 samples: three full blocks and a partial one
        ctx = context(name)
        scan, (summary,) = alpha_scan(ctx, [0.3], 50, 157)
        assert np.array_equal(scan.index, np.arange(50))
        assert np.array_equal(scan.level, np.full(50, 0.3))
        assert summary["max"] == np.max(scan.alpha)
        for i, x in enumerate(regular_sphere_points(ctx.P, 50, 157, f_bound=0.85)):
            frame = frame_at(ctx.P, level_project(ctx.P, x, 0.3))
            assert (scan.alpha[i], scan.omega[i]) == alpha_at(ctx, frame)
            assert scan.l[i] == phi_decomposition(ctx, frame).l

    @pytest.mark.parametrize("name", CONTEXT_NAMES)
    def test_weights_match_the_cluster_loop(self, name):
        # the reference: slice the descending spectrum at every gap above
        # CLUSTER_TOL and sum each slice; the masked sums add the same terms
        # in another order, so they agree to a few ulps of the unit total
        ctx = context(name)
        frames = frame_at(ctx.P, regular_sphere_points(ctx.P, 20, 167))
        dec = phi_decomposition(ctx, frames)
        w, vecs = eigh(frames.shape.entries)
        jx = np.einsum("nij,jk,nk->ni", frames.tangent_basis, ctx.J.matrix, frames.point)
        for i in range(20):
            cuts = np.flatnonzero(w[i, :-1] - w[i, 1:] > 1e-6) + 1
            coords = vecs[i].T @ jx[i]
            lambdas = [part.mean() for part in np.split(w[i], cuts)]
            phi_sq = [np.sum(part**2) for part in np.split(coords, cuts)]
            assert len(phi_sq) == ctx.P.g
            assert np.max(np.abs(dec.phi_sq[i] - phi_sq)) <= 1e-15
            assert np.max(np.abs(dec.lambdas[i] - lambdas)) <= 1e-14 * np.max(np.abs(w[i]))
            assert dec.l[i] == np.count_nonzero(np.array(phi_sq) > 1e-6)

    def test_split_row_gets_minus_one(self, monkeypatch):
        ctx = context("fkm24-block")
        frames = frame_at(ctx.P, regular_sphere_points(ctx.P, 5, 149))
        clean = phi_decomposition(ctx, frames)
        assert (clean.l >= 1).all()
        monkeypatch.setattr(hopf, "eigh", _merged(3))
        dec = phi_decomposition(ctx, frames)
        assert dec.l[3] == -1
        assert np.isnan(dec.lambdas[3]).all() and np.isnan(dec.phi_sq[3]).all()
        rest = [0, 1, 2, 4]
        assert np.array_equal(dec.l[rest], clean.l[rest])
        assert np.array_equal(dec.lambdas[rest], clean.lambdas[rest])
        assert np.array_equal(dec.phi_sq[rest], clean.phi_sq[rest])

    def test_split_sample_in_a_later_block(self, monkeypatch):
        # sample SAMPLE_BLOCK + 3 sits in row 3 of the second block
        ctx = context("fkm24-block")
        clean, _ = alpha_scan(ctx, [0.2], 40, 163)
        monkeypatch.setattr(hopf, "eigh", _merged(3, block=1))
        scan, _ = alpha_scan(ctx, [0.2], 40, 163)
        k = SAMPLE_BLOCK + 3
        assert scan.l[k] == -1
        rest = np.arange(40) != k
        assert np.array_equal(scan.l[rest], clean.l[rest])
        assert np.array_equal(scan.alpha, clean.alpha)
        assert np.array_equal(scan.omega, clean.omega)
