"""Tests for the scalar Riccati evolution of shape-operator spectra.

Oracles: an independent RK4 integrator, central differences of the closed
forms, hand-reduced special solutions (tan, 1/(1-t), -tanh), matrix-trace
recomputation of the mixed moments, the cotangent-shift law for the round
sphere, and, where sympy and mpmath are installed, a symbolic check of the
Jacobi-pair algebra and a 40-digit evaluation of the closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopar import riccati as rc
from isopar.cli import write_csv
from isopar.errors import (
    BlowUpError,
    ConstructionError,
    IllPosedMomentsError,
    IntegrationError,
)
from isopar.spherelevel import cotangent_shift


def clipped_times(fam, lo, hi, count):
    """Evenly spaced times inside both [lo, hi] and the safe domain."""
    lo = max(lo, fam.t_lower + 2 * rc.BLOWUP_BAND)
    hi = min(hi, fam.t_upper - 2 * rc.BLOWUP_BAND)
    return np.linspace(lo, hi, count)


# One branch in every pole regime: kappa > 0 (a pole on each side),
# kappa = 0 with one pole and with none, kappa < 0 with |mu0| below, above
# and equal to omega = sqrt(-kappa).
MIXED = ((1.0, 0.0, 0.0, -1.0, -1.0, -1.0), (0.3, 0.8, 0.0, 0.4, 1.7, 1.0))


def mixed_family():
    return rc.riccati_family(*MIXED)


def gamma_derivative(fam, t, i, j):
    """d Gamma_ij / dt at one time or an array of times, as the recurrence
    checks read it: the analytic sum over the flow's mu and mu'."""
    return rc._gamma_derivative(*rc._flow(fam, t), i, j)


class TestConstruction:
    def test_space_form_spectrum(self):
        assert rc.space_form(2.5, 4) == (2.5, 2.5, 2.5, 2.5)

    def test_space_form_needs_positive_dimension(self):
        with pytest.raises(ConstructionError, match="must be >= 1"):
            rc.space_form(1.0, 0)

    def test_rank_one_block_layout(self):
        # kappa1 block first (n - m copies), kappa2 block last (m copies)
        assert rc.rank_one(1.0, 4.0, 3, 7) == (1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0)

    @pytest.mark.parametrize("m", [0, 2, 4, 5, 8])
    def test_rank_one_multiplicity_restricted(self, m):
        with pytest.raises(ConstructionError, match="one of 1, 3, 7"):
            rc.rank_one(1.0, 4.0, m, 9)

    def test_rank_one_needs_room_for_both_blocks(self):
        with pytest.raises(ConstructionError, match="must exceed"):
            rc.rank_one(1.0, 4.0, 3, 3)

    def test_rank_one_rejects_equal_values(self):
        with pytest.raises(ConstructionError, match="distinct"):
            rc.rank_one(2.0, 2.0, 1, 4)

    def test_family_checks_curvature_count(self):
        with pytest.raises(ConstructionError, match="initial curvatures"):
            rc.riccati_family(rc.space_form(1.0, 3), (0.1, 0.2))

    @pytest.mark.parametrize(
        "kappas,mu0",
        [
            (rc.space_form(1.0, 2), (np.nan, 0.2)),
            (rc.space_form(1.0, 2), (0.1, np.inf)),
            (rc.space_form(np.nan, 2), (0.1, 0.2)),
            (rc.rank_one(1.0, -np.inf, 1, 2), (0.1, 0.2)),
        ],
        ids=["nan-mu0", "inf-mu0", "nan-kappa", "inf-kappa"],
    )
    def test_family_rejects_non_finite_entries(self, kappas, mu0):
        # A NaN branch has no pole; the family used to build with a NaN
        # column inside an interval set by the other branches.
        with pytest.raises(ConstructionError, match="must be finite"):
            rc.riccati_family(kappas, mu0)

    def test_family_is_frozen(self):
        fam = rc.riccati_family(rc.space_form(1.0, 2), (0.0, 0.5))
        with pytest.raises(AttributeError):
            fam.mu0 = (1.0, 1.0)


class TestDomain:
    def test_positive_curvature_poles(self):
        # mu0 = 0, kappa = 1: mu(t) = tan(t), poles at +-pi/2
        fam = rc.riccati_family(rc.space_form(1.0, 1), (0.0,))
        assert fam.t_lower == pytest.approx(-np.pi / 2, abs=1e-12)
        assert fam.t_upper == pytest.approx(np.pi / 2, abs=1e-12)

    def test_flat_branch_one_sided_pole(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        assert fam.t_lower == -np.inf
        assert fam.t_upper == pytest.approx(0.5, abs=1e-14)

    def test_tanh_branch_never_blows_up(self):
        fam = rc.riccati_family(rc.space_form(-1.0, 1), (0.4,))
        assert fam.t_lower == -np.inf and fam.t_upper == np.inf

    def test_coth_branch_pole_side_follows_sign(self):
        up = rc.riccati_family(rc.space_form(-1.0, 1), (2.0,))
        down = rc.riccati_family(rc.space_form(-1.0, 1), (-2.0,))
        assert up.t_upper == pytest.approx(math.atanh(0.5), abs=1e-14)
        assert up.t_lower == -np.inf
        assert down.t_lower == pytest.approx(-math.atanh(0.5), abs=1e-14)
        assert down.t_upper == np.inf

    def test_blow_up_band_is_enforced(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        rc.evolve_closed(fam, 0.5 - 2e-3)  # just outside the band
        with pytest.raises(BlowUpError) as info:
            rc.evolve_closed(fam, 0.5 - 1e-4)
        # the safe interval ends one band short of the pole at 0.5
        assert str(info.value).endswith(", 0.499)")
        with pytest.raises(BlowUpError):
            rc.evolve_closed(fam, 0.7)  # past the pole entirely

    def test_grid_names_its_first_time_in_the_band(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))  # pole at 0.5
        grid = np.array([-0.2, 0.1, 0.5 - 1e-4, 0.3, 0.7])
        for evolve in (rc.evolve_closed, rc.evolve_derivative):
            with pytest.raises(BlowUpError, match=f"t = {0.5 - 1e-4} ") as info:
                evolve(fam, grid)
            assert str(info.value).endswith(", 0.499)")
        with pytest.raises(BlowUpError, match=f"t = {0.5 - 1e-4} "):
            rc.gamma_ij(fam, grid.reshape(5, 1), 2, 0)


class TestClosedForms:
    def test_tan_special_solution(self):
        fam = rc.riccati_family(rc.space_form(1.0, 1), (0.0,))
        for t in (-1.2, -0.3, 0.0, 0.7, 1.4):
            assert rc.evolve_closed(fam, t)[0] == pytest.approx(
                math.tan(t), abs=1e-12
            )

    def test_flat_special_solution(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        for t in (-3.0, -0.5, 0.2, 0.45):
            assert rc.evolve_closed(fam, t)[0] == pytest.approx(
                2.0 / (1.0 - 2.0 * t), abs=1e-12
            )

    def test_tanh_special_solution(self):
        # mu' = mu^2 - 1 with mu(0) = 0 is solved by -tanh(t)
        fam = rc.riccati_family(rc.space_form(-1.0, 1), (0.0,))
        for t in (-2.0, -0.4, 0.9, 3.0):
            assert rc.evolve_closed(fam, t)[0] == pytest.approx(
                -math.tanh(t), abs=1e-12
            )

    def test_constant_branches(self):
        fam = rc.riccati_family(rc.space_form(-4.0, 2), (2.0, 0.0))
        mu = rc.evolve_closed(fam, 1.3)
        assert mu[0] == 2.0  # fixed point of mu^2 - 4
        assert abs(mu[1]) < 1e-12 or mu[1] == pytest.approx(
            -2.0 * math.tanh(2.0 * 1.3), abs=1e-12
        )

    def test_hyperbolic_branches_hold_their_limits_at_large_times(self):
        # mu0 = +-omega (a horosphere) stays put; the others settle on +omega
        # backward and -omega forward. From cosh and sinh alone, C - S mu0
        # cancels to 0/0 once omega |t| nears 18, and sinh overflows past 710.
        fam = rc.riccati_family(rc.space_form(-4.0, 4), (2.0, -2.0, 0.5, -1.0))
        grid = np.array([-1e4, -400.0, -30.0, 30.0, 400.0, 1e4])
        mu = rc.evolve_closed(fam, grid)
        assert np.array_equal(mu[:, :2], np.tile([2.0, -2.0], (6, 1)))
        limits = np.repeat([[2.0], [-2.0]], 3, axis=0)
        assert np.allclose(mu[:, 2:], limits, rtol=1e-15, atol=0.0)
        assert np.array_equal(rc.evolve_derivative(fam, grid)[:, :2], np.zeros((6, 2)))

    def test_initial_condition_recovered(self):
        fam = mixed_family()
        assert np.allclose(rc.evolve_closed(fam, 0.0), fam.mu0, atol=1e-14)

    def test_closed_matches_rk4(self):
        fam = mixed_family()
        worst = 0.0
        for t in clipped_times(fam, -0.5, 0.5, 21):
            closed = rc.evolve_closed(fam, float(t))
            numeric = rc.evolve_numeric(fam, float(t), steps=1000)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
        assert worst < 1e-8

    def test_closed_matches_rk4_rank_one(self):
        jac = rc.rank_one(1.0, 4.0, 3, 7)
        fam = rc.riccati_family(jac, (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05))
        for t in clipped_times(fam, -0.5, 0.5, 11):
            closed = rc.evolve_closed(fam, float(t))
            numeric = rc.evolve_numeric(fam, float(t), steps=1000)
            assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_rk4_step_validation(self):
        fam = mixed_family()
        assert np.array_equal(rc.evolve_numeric(fam, 0.0, 1), fam.mu0)
        for steps in (0, -3):
            for t in (0.0, 0.2):
                with pytest.raises(ValueError, match="at least 1"):
                    rc.evolve_numeric(fam, t, steps)

    @pytest.mark.parametrize(
        "jac,mu0",
        [
            (rc.space_form(-1.0, 3), (0.4, -0.2, 1.6)),
            (rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)),
            MIXED,
        ],
    )
    def test_stacked_grid_matches_one_time_at_a_time(self, jac, mu0):
        fam = rc.riccati_family(jac, mu0)
        grid = np.concatenate([clipped_times(fam, -0.5, 0.5, 8), [0.0]])
        n = len(mu0)
        for evolve in (
            lambda t: rc.evolve_numeric(fam, t, 200),
            lambda t: rc.evolve_closed(fam, t),
            lambda t: rc.evolve_derivative(fam, t),
        ):
            stacked = evolve(grid)
            assert stacked.shape == (len(grid), n)
            assert np.array_equal(stacked, np.stack([evolve(t) for t in grid]))
            assert evolve(grid.reshape(3, 3)).shape == (3, 3, n)
        moments = [(rc.gamma_ij, i, j) for i in range(6) for j in range(3)]
        moments += [(gamma_derivative, i, j) for i in range(1, 6) for j in range(3)]
        for moment, i, j in moments:
            stacked = moment(fam, grid, i, j)
            assert np.array_equal(stacked, [moment(fam, t, i, j) for t in grid])
            assert isinstance(moment(fam, grid[0], i, j), float)

    def test_mixed_family_reaches_every_pole_regime(self):
        seen = []
        for kappa, mu0 in zip(*MIXED):
            poles = rc._poles(kappa, mu0)
            if kappa > 0:
                assert len(poles) == 2 and min(poles) < 0 < max(poles)
                seen.append("positive")
            elif kappa == 0:
                seen.append(f"flat-{len(poles)}")
            else:
                side = np.sign(abs(mu0) - math.sqrt(-kappa))
                assert len(poles) == (side > 0)  # a pole only above omega
                seen.append(f"negative{side:+.0f}")
        assert sorted(seen) == sorted(
            ["positive", "flat-0", "flat-1", "negative-1", "negative+0", "negative+1"]
        )

    @pytest.mark.parametrize("steps", [1, 7, 300])
    def test_rk4_buffers_match_the_expression_form(self, steps):
        # The oracle is RK4 written as expressions, one fresh array per
        # operation, with h/2 and h/6 formed first: bit for bit.
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
        )
        grid = clipped_times(fam, -0.5, 0.5, 63).reshape(9, 7)
        shape = grid.shape + (7,)
        mu = np.broadcast_to(np.array(fam.mu0), shape)
        kappas = np.broadcast_to(np.array(fam.kappas), shape)
        h = np.broadcast_to((grid / steps)[..., None], shape)
        half_h, sixth_h = 0.5 * h, h / 6.0
        rhs = lambda m: m * m + kappas
        for _ in range(steps):
            k1 = rhs(mu)
            k2 = rhs(mu + half_h * k1)
            k3 = rhs(mu + half_h * k2)
            k4 = rhs(mu + h * k3)
            mu = mu + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(rc.evolve_numeric(fam, grid, steps), mu)

    def test_rk4_overflow_past_pole(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        with pytest.raises(IntegrationError):
            rc.evolve_numeric(fam, 1.5, steps=20000)

    def test_overflow_names_the_row_past_the_pole(self):
        # kappa = 0, mu0 = 2 blows up at t = 0.5; only the time 1.5 passes it
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        for grid in ([0.1, -0.3, 1.5, 0.2], [[0.1, -0.3], [1.5, 0.2]]):
            with pytest.raises(IntegrationError, match=r"to t = 1\.5$"):
                rc.evolve_numeric(fam, np.array(grid), steps=20000)

    def test_nan_step_trips_the_overflow_gate(self):
        fam = mixed_family()
        with pytest.raises(IntegrationError, match="to t = nan"):
            rc.evolve_numeric(fam, np.array([0.2, np.nan, 0.1]), steps=5)

    def test_empty_grid(self):
        fam = mixed_family()
        assert rc.evolve_numeric(fam, np.array([]), steps=5).shape == (0, 6)

    @given(st.floats(min_value=-0.45, max_value=0.45))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_central_difference(self, t):
        fam = mixed_family()
        h = 1e-6
        exact = rc.evolve_derivative(fam, t)
        fd = (rc.evolve_closed(fam, t + h) - rc.evolve_closed(fam, t - h)) / (
            2.0 * h
        )
        assert np.max(np.abs(exact - fd)) < 1e-6 * max(
            1.0, float(np.max(np.abs(exact)))
        )

    def test_derivative_satisfies_flow_equation(self):
        fam = mixed_family()
        kappas = np.array(fam.kappas)
        for t in clipped_times(fam, -0.45, 0.45, 9):
            mu = rc.evolve_closed(fam, float(t))
            dmu = rc.evolve_derivative(fam, float(t))
            assert np.max(np.abs(dmu - (mu**2 + kappas))) < 1e-10


def exact_flow(mp, kappa, mu0, t):
    """mu and mu' at working precision from the plain Jacobi pair."""
    kappa, mu0, t = mp.mpf(kappa), mp.mpf(mu0), mp.mpf(t)
    omega = mp.sqrt(abs(kappa))
    if kappa > 0:
        C, S = mp.cos(omega * t), mp.sin(omega * t) / omega
    elif kappa < 0:
        C, S = mp.cosh(omega * t), mp.sinh(omega * t) / omega
    else:
        C, S = mp.mpf(1), t
    denom = C - S * mu0
    return (kappa * S + C * mu0) / denom, (kappa + mu0**2) / denom**2


README_RANK_ONE = (rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05))


class TestExactOracles:
    """The closed form against exact arithmetic: sympy for the algebra the
    code evaluates, mpmath at 40 digits for the values it returns."""

    @pytest.mark.parametrize("sign", [1, -1, 0], ids=["positive", "negative", "flat"])
    def test_closed_form_solves_the_flow_symbolically(self, sign):
        sp = pytest.importorskip("sympy")
        t, mu0 = sp.symbols("t mu0", real=True)
        w = sp.symbols("omega", positive=True)
        # (kappa, s, E, S) as the Jacobi pair hands them to the forms
        if sign > 0:
            pairs = [(w**2, 0, sp.cos(w * t), sp.sin(w * t) / w)]
        elif sign < 0:
            pairs = [(-(w**2), s, sp.exp(-s * t), sp.sinh(w * t) / w) for s in (w, -w)]
        else:
            pairs = [(0, 0, sp.Integer(1), t)]
        zero = lambda expr: sp.simplify(expr.rewrite(sp.exp)) == 0
        for kappa, shift, E, S in pairs:
            mu = rc._mu(mu0, kappa, shift, E, S)
            dmu = rc._dmu(mu0, kappa, shift, E, S)
            assert zero(mu.subs(t, 0) - mu0)
            assert zero(sp.diff(mu, t) - mu**2 - kappa)
            assert zero(dmu - (mu**2 + kappa))
            if sign < 0:  # C = E + s S is the hyperbolic cosine
                assert zero(E + shift * S - sp.cosh(w * t))

    @pytest.mark.parametrize("kappas,mu0", [MIXED, README_RANK_ONE], ids=["mixed", "rank-one"])
    def test_closed_form_against_40_digits(self, kappas, mu0):
        # Errors are relative to max(|value|, 1): where mu crosses zero its
        # numerator cancels, and no formula is relatively accurate there.
        mp = pytest.importorskip("mpmath")
        fam = rc.riccati_family(kappas, mu0)
        grid = clipped_times(fam, -2.0, 2.0, 401)  # reaches both blow-up bands
        mu, dmu = rc.evolve_closed(fam, grid), rc.evolve_derivative(fam, grid)
        worst_mu = worst_dmu = 0.0
        with mp.workdps(40):
            for row, t in enumerate(grid):
                for col, (kappa, start) in enumerate(zip(kappas, mu0)):
                    exact_mu, exact_dmu = exact_flow(mp, kappa, start, t)
                    worst_mu = max(worst_mu, float(
                        abs(mu[row, col] - exact_mu) / max(abs(exact_mu), 1)
                    ))
                    worst_dmu = max(worst_dmu, float(
                        abs(dmu[row, col] - exact_dmu) / max(abs(exact_dmu), 1)
                    ))
        assert worst_mu < 5e-14
        assert worst_dmu < 5e-14


class TestMoments:
    def test_gamma_against_matrix_traces(self):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 1, 4), (0.9, -0.3, 0.25, 1.1)
        )
        t = 0.17
        S = np.diag(rc.evolve_closed(fam, t))
        R = np.diag(fam.kappas)
        for i in range(0, 5):
            for j in range(0, 3):
                direct = np.trace(
                    np.linalg.matrix_power(S, i) @ np.linalg.matrix_power(R, j)
                )
                assert rc.gamma_ij(fam, t, i, j) == pytest.approx(
                    float(direct), rel=1e-12, abs=1e-12
                )

    def test_moment_exponent_validation(self):
        fam = mixed_family()
        with pytest.raises(ValueError, match="nonnegative"):
            rc.gamma_ij(fam, 0.1, -1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            rc.gamma_ij(fam, 0.1, 1, -1)
        for j in (0, 1):
            with pytest.raises(ValueError, match=">= 1"):
                gamma_derivative(fam, 0.1, 0, j)
        with pytest.raises(ValueError, match="nonnegative"):
            gamma_derivative(fam, 0.1, 1, -1)

    def test_q_derivative_matches_central_difference(self):
        fam = mixed_family()
        h = 1e-6
        for t in clipped_times(fam, -0.4, 0.4, 7):
            for i in (1, 2, 3, 4):
                fd = (
                    rc.gamma_ij(fam, t + h, i, 0) - rc.gamma_ij(fam, t - h, i, 0)
                ) / (2.0 * h)
                exact = gamma_derivative(fam, float(t), i, 0)
                assert abs(exact - fd) < 1e-5 * max(1.0, abs(exact))

    def test_gamma_i1_derivative_matches_central_difference(self):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
        )
        h = 1e-6
        for t in clipped_times(fam, -0.3, 0.3, 5):
            for i in (1, 2, 3):
                fd = (
                    rc.gamma_ij(fam, t + h, i, 1)
                    - rc.gamma_ij(fam, t - h, i, 1)
                ) / (2.0 * h)
                exact = gamma_derivative(fam, float(t), i, 1)
                assert abs(exact - fd) < 1e-5 * max(1.0, abs(exact))


def python_rk4(kappas, mu0, t, steps):
    """RK4 on plain Python floats, one branch at a time: the IEEE operations
    of the classical tableau written out for a scalar equation."""
    t = float(t)
    h = t / steps
    out = []
    for kappa, mu in zip(kappas, mu0):
        f = lambda y: y * y + kappa
        for _ in range(steps):
            k1 = f(mu)
            k2 = f(mu + 0.5 * h * k1)
            k3 = f(mu + 0.5 * h * k2)
            k4 = f(mu + h * k3)
            mu = mu + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(mu)
    return out


class TestRK4Oracle:
    """evolve_numeric against a scalar RK4 on Python floats, bit for bit."""

    FAMILIES = [
        MIXED,
        (rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)),
    ]

    @pytest.mark.parametrize("steps", [1, 7, 50])
    @pytest.mark.parametrize("index", [0, 1])
    def test_grid_matches_python_floats(self, steps, index):
        fam = rc.riccati_family(*self.FAMILIES[index])
        grid = np.concatenate([clipped_times(fam, -0.4, 0.4, 7), [0.0, -0.0]])
        assert (grid < 0).any() and (grid == 0).any()
        mu = rc.evolve_numeric(fam, grid, steps)
        expected = [python_rk4(fam.kappas, fam.mu0, t, steps) for t in grid]
        assert np.array_equal(mu, expected)
        square = grid[:8].reshape(2, 4)
        mu = rc.evolve_numeric(fam, square, steps)
        assert mu.shape == (2, 4, len(fam.mu0))
        assert np.array_equal(
            mu, [[python_rk4(fam.kappas, fam.mu0, t, steps) for t in row]
                 for row in square]
        )

    @pytest.mark.parametrize("steps", [1, 7, 50])
    def test_scalar_time_matches_python_floats(self, steps):
        fam = mixed_family()
        for t in (0.3, -0.25, 0.0):
            mu = rc.evolve_numeric(fam, t, steps)
            assert mu.shape == (len(fam.mu0),)
            assert np.array_equal(mu, python_rk4(fam.kappas, fam.mu0, t, steps))


class TestRecurrences:
    def families(self):
        yield rc.riccati_family(rc.space_form(1.0, 4), (0.9, -0.3, 0.25, 1.1))
        yield rc.riccati_family(rc.space_form(-1.0, 3), (0.4, -0.2, 1.6))
        yield rc.riccati_family(
            rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
        )
        yield rc.riccati_family(rc.rank_one(-1.0, 2.0, 1, 4), (0.3, -0.5, 0.8, 0.1))

    def test_power_sum_recurrence_exact(self):
        for fam in self.families():
            times = clipped_times(fam, -0.4, 0.4, 9)
            assert rc.check_power_sum_recurrence(fam, times) < 1e-9

    def test_gamma_recurrence_exact(self):
        for fam in self.families():
            times = clipped_times(fam, -0.4, 0.4, 9)
            assert rc.check_gamma_recurrence(fam, times) < 1e-9

    def test_block_split_recovers_mixed_moments(self):
        for fam in self.families():
            for t in clipped_times(fam, -0.3, 0.3, 4):
                mu = rc.evolve_closed(fam, float(t))
                for i in (1, 2, 3):
                    for j in (0, 1, 2):
                        split = rc._block_split(fam.kappas, mu, i, j)
                        full = rc.gamma_ij(fam, float(t), i, j)
                        assert split == pytest.approx(full, rel=1e-10, abs=1e-9)

    def test_block_split_rejects_three_values(self):
        # The mixed family has kappas 1, 0 and -1; the chain used to die
        # with a TypeError on the missing rank-one fields.
        fam = mixed_family()
        with pytest.raises(ValueError, match="at most two distinct kappa values, got 3"):
            rc.check_moment_chain(fam, clipped_times(fam, -0.4, 0.4, 9))

    def test_moment_chain_two_paths_agree(self):
        for fam in self.families():
            times = clipped_times(fam, -0.4, 0.4, 9)
            report = rc.check_moment_chain(fam, times)
            # every stage is reported, none silently absent
            assert list(report) == ["gamma11", "gamma21", "q4", "gamma31", "q5"]
            assert all(0.0 <= value < 1e-8 for value in report.values())


    def test_nan_at_one_time_reaches_every_check(self, monkeypatch):
        fam = next(self.families())
        times = clipped_times(fam, -0.4, 0.4, 9)
        derivative = rc.evolve_derivative

        def poisoned(fam, t):
            dmu = derivative(fam, t).copy()
            dmu[..., 5, 1] = np.nan
            return dmu

        monkeypatch.setattr(rc, "evolve_derivative", poisoned)
        assert np.isnan(rc.check_power_sum_recurrence(fam, times))
        assert np.isnan(rc.check_gamma_recurrence(fam, times))
        report = rc.check_moment_chain(fam, times)
        assert np.isnan(np.max(list(report.values())))
        assert np.isnan(report["q5"])


class TestSpectrumRecovery:
    @pytest.mark.parametrize(
        "jac, mu0",
        [
            (rc.space_form(1.0, 4), (0.9, -0.3, 0.25, 1.1)),
            (rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)),
            (rc.rank_one(-1.0, 2.0, 1, 8), tuple(np.linspace(-0.8, 0.9, 8))),
        ],
    )
    def test_round_trip_for_distinct_branches(self, jac, mu0):
        fam = rc.riccati_family(jac, mu0)
        for t in clipped_times(fam, -0.35, 0.35, 5):
            mu = np.sort(rc.evolve_closed(fam, float(t)))
            recovered = np.sort(rc.moment_to_spectrum_evolution(fam, float(t)))
            assert np.max(np.abs(mu - recovered)) < 1e-6

    def test_tied_branches_can_defeat_recovery(self):
        # a triple root makes the moment map 1e5-ill-conditioned; the
        # recovery is allowed to refuse rather than return garbage
        jac = rc.rank_one(1.0, 4.0, 3, 7)
        fam = rc.riccati_family(jac, (0.5, 0.5, 0.5, 0.5, -0.2, -0.2, -0.2))
        try:
            spec = rc.moment_to_spectrum_evolution(fam, 0.3)
        except IllPosedMomentsError:
            return
        mu = np.sort(rc.evolve_closed(fam, 0.3))
        assert np.max(np.abs(np.sort(spec) - mu)) < 1e-4


class TestSphereCrossCheck:
    """The unit-sphere flow must reproduce the cotangent-shift law: moving
    time s along the normal geodesic shifts the level parameter
    tau = arccos(t)/g down by s."""

    @pytest.mark.parametrize(
        "g, m1, m2, t0",
        [(3, 1, 1, 0.0), (3, 2, 2, 0.25), (4, 2, 1, 0.0), (4, 1, 1, -0.3)],
    )
    def test_flow_matches_level_shift(self, g, m1, m2, t0):
        mu0 = np.repeat(*cotangent_shift(g, m1, m2, t0))
        fam = rc.riccati_family(rc.space_form(1.0, len(mu0)), mu0)
        for s in (-0.08, 0.05, 0.12):
            tau_new = math.acos(t0) / g - s
            level_new = math.cos(g * tau_new)
            predicted = np.repeat(*cotangent_shift(g, m1, m2, level_new))
            evolved = rc.evolve_closed(fam, s)
            dev = np.max(np.abs(np.sort(evolved) - np.sort(predicted)))
            assert dev < 1e-9

    def test_domain_ends_at_focal_points(self):
        # from the middle level of the g = 3 family both focal sets sit at
        # tau-distance pi/6
        mu0 = np.repeat(*cotangent_shift(3, 1, 1, 0.0))
        fam = rc.riccati_family(rc.space_form(1.0, 3), mu0)
        assert fam.t_upper == pytest.approx(np.pi / 6, abs=1e-12)
        assert fam.t_lower == pytest.approx(-np.pi / 6, abs=1e-12)


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 1, 4), (0.9, -0.3, 0.25, 1.1)
        )
        path = tmp_path / "traj.csv"
        header, rows = rc.trajectory_table(fam, -0.3, 0.3, 13)
        write_csv(path, header, rows)
        assert len(rows) == 13
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,mu1,mu2,mu3,mu4,Q1,Q2,Q3,Q4,H"
        assert len(lines) == 14
        row = [float(v) for v in lines[6].split(",")]
        t_mid = row[0]
        mu = rc.evolve_closed(fam, t_mid)
        assert np.max(np.abs(np.array(row[1:5]) - mu)) == 0.0  # 17g is exact
        assert row[5] == float(np.sum(mu))
        assert row[9] == row[5]  # H column repeats Q1

    def test_blow_up_rows_are_skipped(self, tmp_path):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))  # pole at 0.5
        path = tmp_path / "traj.csv"
        header, rows = rc.trajectory_table(fam, 0.0, 1.0, 11)
        write_csv(path, header, rows)
        written = len(rows)
        assert 0 < written < 11
        lines = path.read_text().strip().splitlines()
        assert len(lines) == written + 1
        assert max(float(line.split(",")[0]) for line in lines[1:]) < 0.5
