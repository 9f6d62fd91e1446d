"""Family construction and differential invariants.

The evaluation paths (the cubic's tensor, the quartic's generator stack) are
checked against the monomial oracle, exact derivatives against central
differences, the displayed identities of the 5-variable cubic against a
hand-derived Hessian oracle, and the algebra's structure constants against
the composition law |xy| = |x||y|.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isopar import polyfam
from isopar.errors import ConstructionError
from isopar.monomials import MonomialForm
from isopar.polyfam import (
    cm_residuals,
    delta_k,
    eval_F,
    eval_F_monomial,
    eval_grad,
    eval_grad_monomial,
    eval_hessian,
    eval_hessian_monomial,
    eval_jet,
    _cartan_products,
    cd_mult,
    gradient_profile,
    hidden_rho_residual,
    laplacian_profile,
    make_cartan,
    make_fkm,
    make_ot,
)
from isopar.symmat import rho_k

FD_H = 1e-4

FAMILY_BUILDERS = {
    "cartan1": lambda: make_cartan(1),
    "cartan2": lambda: make_cartan(2),
    "fkm13": lambda: make_fkm(1, 3),
    "fkm24": lambda: make_fkm(2, 4),
    "ot1": lambda: make_ot(1),
}

# Larger cubics, built only for the oracle comparison.
ORACLE_ONLY_BUILDERS = {
    "cartan4": lambda: make_cartan(4),
    "cartan8": lambda: make_cartan(8),
}

_cache = {}


def family(name):
    if name not in _cache:
        _cache[name] = {**FAMILY_BUILDERS, **ORACLE_ONLY_BUILDERS}[name]()
    return _cache[name]


def seeded_points(dim, count, seed, radius=1.5):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.3, radius, (count, 1))


def cartan1_reference_hessian(x):
    # Hand-differentiated from
    # F = u^3 - 3uv^2 + (3/2)u(X^2+Y^2-2Z^2) + (3sqrt3/2)v(X^2-Y^2) + 3sqrt3 XYZ
    u, v, X, Y, Z = x
    s3 = np.sqrt(3.0)
    return np.array(
        [
            [6 * u, -6 * v, 3 * X, 3 * Y, -6 * Z],
            [-6 * v, -6 * u, 3 * s3 * X, -3 * s3 * Y, 0.0],
            [3 * X, 3 * s3 * X, 3 * u + 3 * s3 * v, 3 * s3 * Z, 3 * s3 * Y],
            [3 * Y, -3 * s3 * Y, 3 * s3 * Z, 3 * u - 3 * s3 * v, 3 * s3 * X],
            [-6 * Z, 0.0, 3 * s3 * Y, 3 * s3 * X, -6 * u],
        ]
    )


class TestConstruction:
    @pytest.mark.parametrize(
        "name,g,m1,m2,dim",
        [
            ("cartan1", 3, 1, 1, 5),
            ("cartan2", 3, 2, 2, 8),
            ("fkm13", 4, 1, 1, 6),
            ("fkm24", 4, 2, 1, 8),
            ("ot1", 4, 3, 4, 16),
        ],
    )
    def test_family_shape(self, name, g, m1, m2, dim):
        fam = family(name)
        assert (fam.g, fam.m1, fam.m2, fam.ambient_dim) == (g, m1, m2, dim)
        assert fam.n == dim - 2

    def test_fkm_rejects_vanishing_multiplicity(self):
        with pytest.raises(ConstructionError, match="r - m - 1"):
            make_fkm(1, 2)

    def test_fkm_m2_odd_r_rejected(self):
        with pytest.raises(ConstructionError):
            make_fkm(2, 3)

    def test_cartan_rejects_bad_algebra_dim(self):
        with pytest.raises(ConstructionError):
            make_cartan(3)

    @pytest.mark.parametrize(
        "build", [lambda: make_cartan(8), lambda: make_ot(3)], ids=["cartan8", "ot3"]
    )
    def test_check_evaluates_oracle_once(self, monkeypatch, build):
        calls = []
        closed_calls = []
        original = MonomialForm.__call__
        original_closed = polyfam.eval_F

        def counted(form, x):
            calls.append(np.shape(x))
            return original(form, x)

        def counted_closed(P, x):
            closed_calls.append(np.shape(x))
            return original_closed(P, x)

        monkeypatch.setattr(MonomialForm, "__call__", counted)
        monkeypatch.setattr(polyfam, "eval_F", counted_closed)
        fam = build()
        assert calls == [(polyfam.XCHECK_POINTS, fam.ambient_dim)]
        # the check points and their scaled copies, one block each
        assert closed_calls == 2 * [(polyfam.XCHECK_POINTS, fam.ambient_dim)]

    @pytest.mark.parametrize(
        "oracle,build",
        [
            ("_cartan_monomials", lambda: make_cartan(1)),
            ("_fkm_monomials", lambda: make_fkm(2, 4)),
        ],
        ids=["cartan1", "fkm24"],
    )
    def test_check_rejects_perturbed_oracle(self, monkeypatch, oracle, build):
        original = getattr(polyfam, oracle)

        def perturbed(*args):
            form = original(*args)
            first = [0] * form.nvars
            first[0] = form.degree()
            return form + MonomialForm(form.nvars, [(first, 1e-6)])

        monkeypatch.setattr(polyfam, oracle, perturbed)
        # x_0^g at the first check point carries the perturbation
        with pytest.raises(
            ConstructionError,
            match=r"closed and monomial forms disagree by .* \(check point 0\)",
        ):
            build()


class TestEvaluationPaths:
    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_closed_vs_monomial(self, name):
        fam = family(name)
        for x in seeded_points(fam.ambient_dim, 20, 31):
            assert eval_F(fam, x) == pytest.approx(
                eval_F_monomial(fam, x), rel=1e-13, abs=1e-13
            )
            assert np.allclose(
                eval_grad(fam, x), eval_grad_monomial(fam, x),
                rtol=1e-13, atol=1e-13,
            )
            assert np.allclose(
                eval_hessian(fam, x).entries,
                eval_hessian_monomial(fam, x).entries,
                rtol=1e-13, atol=1e-13,
            )

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_gradient_vs_central_differences(self, name):
        fam = family(name)
        dim = fam.ambient_dim
        for x in seeded_points(dim, 5, 41):
            grad = eval_grad(fam, x)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = FD_H
                fd = (eval_F(fam, x + e) - eval_F(fam, x - e)) / (2 * FD_H)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_hessian_vs_gradient_differences(self, name):
        fam = family(name)
        dim = fam.ambient_dim
        for x in seeded_points(dim, 3, 43):
            hess = eval_hessian(fam, x).entries
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = FD_H
                fd = (eval_grad(fam, x + e) - eval_grad(fam, x - e)) / (2 * FD_H)
                assert np.max(np.abs(hess[i] - fd)) < 1e-5

    def test_cartan1_hessian_closed_form(self):
        fam = family("cartan1")
        for x in seeded_points(5, 10, 47):
            assert np.max(
                np.abs(eval_hessian(fam, x).entries - cartan1_reference_hessian(x))
            ) < 1e-12

    @given(st.floats(min_value=0.2, max_value=2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, lam, seed):
        fam = family("fkm24")
        x = seeded_points(8, 1, seed)[0]
        assert eval_F(fam, lam * x) == pytest.approx(
            lam**4 * eval_F(fam, x), rel=1e-9
        )


def _stacked(values):
    return np.array([v.entries if hasattr(v, "entries") else v for v in values])


class TestBatchedKernels:
    """A block of samples (N, d) goes through the same kernels as one point."""

    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_block_matches_pointwise(self, name):
        fam = family(name)
        pts = seeded_points(fam.ambient_dim, 23, 83)
        for kernel, batched in [
            (eval_F, lambda x: eval_F(fam, x)),
            (eval_grad, lambda x: eval_grad(fam, x)),
            (eval_hessian, lambda x: eval_hessian(fam, x).entries),
        ]:
            block = batched(pts)
            pointwise = _stacked([kernel(fam, x) for x in pts])
            assert block.shape == pointwise.shape
            assert np.allclose(block, pointwise, rtol=1e-13, atol=1e-13), kernel

    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_flat_contraction_matches_broadcast(self, name):
        # the (k d, d) view of the tensor or generator stack gives exactly
        # the per-slice broadcast product, at one point and in blocks
        fam = family(name)
        stack = fam._tensor if fam.family == "cartan" else fam._generators
        for count in (None, 1, 3, 16):
            pts = seeded_points(fam.ambient_dim, count or 1, 97 + (count or 0))
            x = pts[0] if count is None else pts
            parts = polyfam._contract(fam, x)
            flat = parts if fam.family == "cartan" else parts[1]
            assert np.array_equal(flat, (stack @ x[..., None, :, None])[..., 0])

    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_block_closed_vs_monomial(self, name):
        fam = family(name)
        pts = seeded_points(fam.ambient_dim, 12, 89)
        assert np.allclose(
            eval_F(fam, pts), eval_F_monomial(fam, pts), rtol=1e-13, atol=1e-13
        )
        assert np.allclose(
            eval_grad(fam, pts), eval_grad_monomial(fam, pts), rtol=1e-13, atol=1e-13
        )
        assert np.allclose(
            eval_hessian(fam, pts).entries,
            eval_hessian_monomial(fam, pts).entries,
            rtol=1e-13, atol=1e-13,
        )

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_residual_kernels_match_pointwise(self, name):
        # A residual is a difference of terms; block and point may round
        # the radius powers differently, so agreement is relative to the
        # terms, not to the residual.
        fam = family(name)
        pts = seeded_points(fam.ambient_dim, 9, 97)
        hess = eval_hessian(fam, pts)

        def agree(block, pointwise, terms):
            gap = np.abs(np.asarray(block) - np.asarray(pointwise))
            assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(terms)))

        grad, lap = cm_residuals(fam, pts)
        pointwise = np.array([cm_residuals(fam, x) for x in pts])
        r = np.linalg.norm(pts, axis=1)
        agree(grad, pointwise[:, 0], fam.g**2 * r ** (2 * fam.g - 2))
        agree(lap, pointwise[:, 1], np.abs(hess.entries).sum(axis=(1, 2)))
        ks = (2, 3, 4)
        pointwise = np.array([hidden_rho_residual(fam, x, ks) for x in pts])
        blocks = hidden_rho_residual(fam, pts, ks)
        for i, (block, rho) in enumerate(zip(blocks, rho_k(hess, ks))):
            agree(block, pointwise[:, i], rho)
        ks = (1, 2, 3)
        pointwise = np.array([delta_k(fam, x, ks) for x in pts])
        for i, block in enumerate(delta_k(fam, pts, ks)):
            assert np.allclose(block, pointwise[:, i], rtol=1e-13, atol=1e-13)

    def test_single_point_returns_scalars(self):
        fam = family("fkm24")
        x = seeded_points(8, 1, 101)[0]
        assert isinstance(eval_F(fam, x), float)
        assert all(isinstance(v, float) for v in cm_residuals(fam, x))
        assert all(isinstance(v, float) for v in hidden_rho_residual(fam, x, (2, 3)))
        assert all(isinstance(v, float) for v in delta_k(fam, x, (1, 2)))

    @pytest.mark.parametrize("shape", [(4, 6), (6, 1), (2, 3, 5), (0,)])
    def test_wrong_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="expected"):
            eval_F(family("cartan1"), np.ones(shape))

    def test_zero_row_is_named(self):
        pts = seeded_points(5, 4, 103)
        pts[2] = 0.0
        with pytest.raises(ValueError, match=r"nonzero \(sample 2\)$"):
            cm_residuals(family("cartan1"), pts)
        with pytest.raises(ValueError, match=r"nonzero \(sample 2\)$"):
            hidden_rho_residual(family("cartan1"), pts, (2,))


class TestJet:
    """eval_jet is the three kernels from one contraction, bit for bit."""

    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_jet_equals_the_three_kernels(self, name):
        fam = family(name)
        pts = seeded_points(fam.ambient_dim, 16, 107)
        F, grad, hess = eval_jet(fam, pts)
        assert np.array_equal(F, eval_F(fam, pts))
        assert np.array_equal(grad, eval_grad(fam, pts))
        assert np.array_equal(hess.entries, eval_hessian(fam, pts).entries)
        for i, x in enumerate(pts):
            f, g, h = eval_jet(fam, x)
            assert isinstance(f, float)
            assert f == eval_F(fam, x)
            assert np.array_equal(g, eval_grad(fam, x))
            assert np.array_equal(h.entries, eval_hessian(fam, x).entries)
            assert F[i] == eval_F(fam, pts[i : i + 1])[0]
            assert np.array_equal(grad[i], eval_grad(fam, pts[i : i + 1])[0])
            assert np.array_equal(
                hess.entries[i], eval_hessian(fam, pts[i : i + 1]).entries[0]
            )

    @pytest.mark.parametrize(
        "name", sorted(FAMILY_BUILDERS) + sorted(ORACLE_ONLY_BUILDERS)
    )
    def test_jet_vs_monomial(self, name):
        fam = family(name)
        pts = seeded_points(fam.ambient_dim, 12, 109)
        F, grad, hess = eval_jet(fam, pts)
        assert np.allclose(F, eval_F_monomial(fam, pts), rtol=1e-13, atol=1e-13)
        assert np.allclose(
            grad, eval_grad_monomial(fam, pts), rtol=1e-13, atol=1e-13
        )
        assert np.allclose(
            hess.entries, eval_hessian_monomial(fam, pts).entries,
            rtol=1e-13, atol=1e-13,
        )

    def test_jet_checks_its_point(self):
        with pytest.raises(ValueError, match="expected"):
            eval_jet(family("fkm24"), np.ones((3, 5)))


class TestStructureConstants:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_composition_law(self, m):
        # R, C, H and O are composition algebras: |xy| = |x||y|.
        rng = np.random.default_rng(71 + m)
        table = _cartan_products(m)
        for _ in range(20):
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            xy = np.zeros(m)
            for a, b, c, sign in table:
                xy[c] += sign * x[a] * y[b]
            norms = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(np.linalg.norm(xy) - norms) <= 1e-13 * norms

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_stacked_product_matches_pairwise(self, m):
        rng = np.random.default_rng(73 + m)
        a, b = rng.standard_normal((2, 6, m))
        stacked = cd_mult(a, b)
        assert stacked.shape == (6, m)
        for k in range(6):
            assert np.array_equal(stacked[k], cd_mult(a[k], b[k]))


class TestDefiningEquations:
    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_cm_residuals_vanish(self, name):
        fam = family(name)
        for x in seeded_points(fam.ambient_dim, 25, 53, radius=2.0):
            r = np.linalg.norm(x)
            res_grad, res_lap = cm_residuals(fam, x)
            assert abs(res_grad) < 1e-8 * r ** (2 * fam.g - 2)
            assert abs(res_lap) < 1e-8 * max(1.0, r ** (fam.g - 2))

    def test_cm_rejects_origin(self):
        with pytest.raises(ValueError, match="nonzero"):
            cm_residuals(family("cartan1"), np.zeros(5))

    def test_profile_values(self):
        fam = family("cartan1")
        assert gradient_profile(fam, 0.0) == pytest.approx(9.0)
        assert gradient_profile(fam, 1.0) == pytest.approx(0.0)
        # m1 = m2 and g = 3, n = 3: a(f) = -g(n+g) f
        assert laplacian_profile(fam, 0.2) == pytest.approx(-3.0 * 6.0 * 0.2)

    def test_profile_fkm(self):
        fam = family("fkm24")
        assert gradient_profile(fam, 0.3) == pytest.approx(16.0 * (1 - 0.09))
        assert laplacian_profile(fam, 0.0) == pytest.approx(0.5 * 16.0 * (fam.m2 - fam.m1))


class TestDisplayedIdentities:
    def test_cartan1_delta_chain(self):
        fam = family("cartan1")
        for x in seeded_points(5, 25, 59):
            r2 = float(x @ x)
            F = eval_F(fam, x)
            d1, d2, d3, d4, d5 = delta_k(fam, x, (1, 2, 3, 4, 5))
            assert d1 == pytest.approx(0.0, abs=1e-10)
            assert d2 == pytest.approx(-63.0 * r2, rel=1e-10)
            assert d3 == pytest.approx(-54.0 * F, rel=1e-9, abs=1e-9)
            assert d4 == pytest.approx(972.0 * r2**2, rel=1e-9)
            assert d5 == pytest.approx(1944.0 * r2 * F, rel=1e-9, abs=1e-9)

    def test_delta_k_range(self):
        with pytest.raises(ValueError):
            delta_k(family("cartan1"), np.ones(5), (2, 6))
        with pytest.raises(ValueError):
            delta_k(family("cartan1"), np.ones(5), (0,))

    @pytest.mark.parametrize("name", ["cartan1", "cartan2", "fkm13", "fkm24"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hidden_power_sums(self, name, k):
        fam = family(name)
        if k == 4 and fam.n < 4:
            pytest.skip("k = 4 closed form stated for n >= 4 only")
        for x in seeded_points(fam.ambient_dim, 15, 61):
            r = np.linalg.norm(x)
            (res,) = hidden_rho_residual(fam, x, (k,))
            assert abs(res) < 1e-8 * max(1.0, r ** (k * (fam.g - 2)))

    def test_hidden_power_sum_range(self):
        with pytest.raises(ValueError, match="closed forms"):
            hidden_rho_residual(family("cartan1"), np.ones(5), (2, 5))

    def test_hidden_power_sum_consistency_direct(self):
        # independent spot check: rho_2 of the Hessian computed two ways
        fam = family("fkm24")
        x = seeded_points(8, 1, 67)[0]
        (direct,) = rho_k(eval_hessian(fam, x), (2,))
        (res,) = hidden_rho_residual(fam, x, (2,))
        closed = direct - res
        assert closed == pytest.approx(direct, rel=1e-10)

