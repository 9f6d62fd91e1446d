"""Tests for the scalar Riccati evolution of shape-operator spectra.

Oracles: an independent RK4 integrator, central differences of the closed
forms, hand-reduced special solutions (tan, 1/(1-t), -tanh), matrix-trace
recomputation of the mixed moments, and the cotangent-shift law for the
round sphere.
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
from isopar.spherelevel import MunznerSpectrum


def clipped_times(fam, lo, hi, count):
    """Evenly spaced times inside both [lo, hi] and the safe domain."""
    lo = max(lo, fam.t_lower + 2 * rc.BLOWUP_BAND)
    hi = min(hi, fam.t_upper - 2 * rc.BLOWUP_BAND)
    return np.linspace(lo, hi, count)


# One branch of every closed-form kind:
#        cot  linear zero tanh coth const
MIXED = (
    rc.JacobiSpectrum(kappas=(1.0, 0.0, 0.0, -1.0, -1.0, -1.0), tag="mixed"),
    (0.3, 0.8, 0.0, 0.4, 1.7, 1.0),
)
BRANCH_KINDS = ["cot", "linear", "zero", "tanh", "coth", "const"]


def mixed_family():
    return rc.riccati_family(*MIXED)


class TestConstruction:
    def test_space_form_spectrum(self):
        jac = rc.space_form(2.5, 4)
        assert jac.tag == rc.SPACE_FORM
        assert jac.kappas == (2.5, 2.5, 2.5, 2.5)
        assert jac.c == 2.5

    def test_space_form_needs_positive_dimension(self):
        with pytest.raises(ConstructionError, match="must be >= 1"):
            rc.space_form(1.0, 0)

    def test_rank_one_block_layout(self):
        jac = rc.rank_one(1.0, 4.0, 3, 7)
        assert jac.tag == rc.RANK_ONE
        # kappa1 block first (n - m copies), kappa2 block last (m copies)
        assert jac.kappas == (1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0)
        assert (jac.kappa1, jac.kappa2, jac.m) == (1.0, 4.0, 3)

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
        "jacobi,mu0",
        [
            (rc.space_form(1.0, 2), (np.nan, 0.2)),
            (rc.space_form(1.0, 2), (0.1, np.inf)),
            (rc.space_form(np.nan, 2), (0.1, 0.2)),
            (rc.rank_one(1.0, -np.inf, 1, 2), (0.1, 0.2)),
        ],
        ids=["nan-mu0", "inf-mu0", "nan-kappa", "inf-kappa"],
    )
    def test_family_rejects_non_finite_entries(self, jacobi, mu0):
        # A NaN branch has no pole; the family used to build with a NaN
        # column inside an interval set by the other branches.
        with pytest.raises(ConstructionError, match="must be finite"):
            rc.riccati_family(jacobi, mu0)

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
        assert info.value.time == pytest.approx(0.5)
        with pytest.raises(BlowUpError):
            rc.evolve_closed(fam, 0.7)  # past the pole entirely

    def test_grid_names_its_first_time_in_the_band(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))  # pole at 0.5
        grid = np.array([-0.2, 0.1, 0.5 - 1e-4, 0.3, 0.7])
        for evolve in (rc.evolve_closed, rc.evolve_derivative):
            with pytest.raises(BlowUpError, match=f"t = {0.5 - 1e-4} ") as info:
                evolve(fam, grid)
            assert info.value.time == pytest.approx(0.5)
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
        moments += [(rc.gamma_derivative, i, j) for i in range(1, 6) for j in range(3)]
        for moment, i, j in moments:
            stacked = moment(fam, grid, i, j)
            assert np.array_equal(stacked, [moment(fam, t, i, j) for t in grid])
            assert isinstance(moment(fam, grid[0], i, j), float)

    def test_mixed_family_covers_every_branch_kind(self):
        assert [branch[0] for branch in mixed_family().branches] == BRANCH_KINDS

    def test_rk4_overflow_past_pole(self):
        fam = rc.riccati_family(rc.space_form(0.0, 1), (2.0,))
        with pytest.raises(IntegrationError):
            rc.evolve_numeric(fam, 1.5, steps=20000)

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
        kappas = np.array(fam.jacobi.kappas)
        for t in clipped_times(fam, -0.45, 0.45, 9):
            mu = rc.evolve_closed(fam, float(t))
            dmu = rc.evolve_derivative(fam, float(t))
            assert np.max(np.abs(dmu - (mu**2 + kappas))) < 1e-10


class TestMoments:
    def test_gamma_against_matrix_traces(self):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 1, 4), (0.9, -0.3, 0.25, 1.1)
        )
        t = 0.17
        S = np.diag(rc.evolve_closed(fam, t))
        R = np.diag(fam.jacobi.kappas)
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
                rc.gamma_derivative(fam, 0.1, 0, j)
        with pytest.raises(ValueError, match="nonnegative"):
            rc.gamma_derivative(fam, 0.1, 1, -1)

    def test_q_derivative_matches_central_difference(self):
        fam = mixed_family()
        h = 1e-6
        for t in clipped_times(fam, -0.4, 0.4, 7):
            for i in (1, 2, 3, 4):
                fd = (
                    rc.gamma_ij(fam, t + h, i, 0) - rc.gamma_ij(fam, t - h, i, 0)
                ) / (2.0 * h)
                exact = rc.gamma_derivative(fam, float(t), i, 0)
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
                exact = rc.gamma_derivative(fam, float(t), i, 1)
                assert abs(exact - fd) < 1e-5 * max(1.0, abs(exact))


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
            assert rc.check_power_sum_recurrence(fam, times, i_max=6) < 1e-9

    def test_gamma_recurrence_exact(self):
        for fam in self.families():
            times = clipped_times(fam, -0.4, 0.4, 9)
            assert rc.check_gamma_recurrence(fam, times, i_max=5) < 1e-9

    def test_block_split_recovers_mixed_moments(self):
        for fam in self.families():
            for t in clipped_times(fam, -0.3, 0.3, 4):
                for i in (1, 2, 3):
                    for j in (0, 1, 2):
                        split = rc.gamma_block_split(fam, float(t), i, j)
                        full = rc.gamma_ij(fam, float(t), i, j)
                        assert split == pytest.approx(full, rel=1e-10, abs=1e-9)

    def test_moment_chain_two_paths_agree(self):
        for fam in self.families():
            times = clipped_times(fam, -0.4, 0.4, 9)
            report = rc.check_moment_chain(fam, times)
            assert report.max_residual < 1e-8
            # every stage is reported, none silently absent
            for field in ("gamma11", "gamma21", "q4", "gamma31", "q5"):
                assert getattr(report, field) >= 0.0


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
        assert np.isnan(report.max_residual)
        assert np.isnan(report.q5)


class TestBlockSplit:
    def test_phi_psi_sum_to_power_sum(self):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
        )
        for t in clipped_times(fam, -0.3, 0.3, 5):
            for i in (1, 2, 3, 4):
                phi, psi = rc.phi_psi_split(fam, float(t), i)
                assert phi + psi == pytest.approx(
                    rc.gamma_ij(fam, float(t), i, 0), rel=1e-12, abs=1e-12
                )

    def test_phi_covers_first_block_only(self):
        # freeze the kappa2 block at its fixed point so Psi_1 is constant
        fam = rc.riccati_family(rc.rank_one(1.0, -4.0, 1, 3), (0.2, -0.1, 2.0))
        phi0, psi0 = rc.phi_psi_split(fam, 0.0, 1)
        phi1, psi1 = rc.phi_psi_split(fam, 0.3, 1)
        assert psi0 == psi1 == 2.0
        assert phi0 != phi1

    def test_phi_psi_derivative_matches_central_difference(self):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 3, 7), (0.9, -0.3, 0.25, 1.1, -0.7, 0.5, 0.05)
        )
        h = 1e-6
        for t in clipped_times(fam, -0.3, 0.3, 4):
            for i in (1, 2, 3):
                dphi, dpsi = rc.phi_psi_derivative(fam, float(t), i)
                pp = rc.phi_psi_split(fam, t + h, i)
                mm = rc.phi_psi_split(fam, t - h, i)
                assert dphi == pytest.approx((pp[0] - mm[0]) / (2 * h), abs=1e-5)
                assert dpsi == pytest.approx((pp[1] - mm[1]) / (2 * h), abs=1e-5)

    def test_split_requires_rank_one(self):
        fam = rc.riccati_family(rc.space_form(1.0, 2), (0.1, 0.2))
        with pytest.raises(ValueError, match="rank-one"):
            rc.phi_psi_split(fam, 0.1, 2)
        with pytest.raises(ValueError, match="rank-one"):
            rc.phi_psi_derivative(fam, 0.1, 2)


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
            recovered = np.sort(rc.moment_to_spectrum_evolution(fam, float(t)).values)
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
        assert np.max(np.abs(np.sort(spec.values) - mu)) < 1e-4


class TestSphereCrossCheck:
    """The unit-sphere flow must reproduce the cotangent-shift law: moving
    time s along the normal geodesic shifts the level parameter
    tau = arccos(t)/g down by s."""

    @pytest.mark.parametrize(
        "g, m1, m2, t0",
        [(3, 1, 1, 0.0), (3, 2, 2, 0.25), (4, 2, 1, 0.0), (4, 1, 1, -0.3)],
    )
    def test_flow_matches_level_shift(self, g, m1, m2, t0):
        spec0 = MunznerSpectrum.at_level(g, m1, m2, t0)
        mu0 = spec0.values()
        fam = rc.riccati_family(rc.space_form(1.0, len(mu0)), mu0)
        for s in (-0.08, 0.05, 0.12):
            tau_new = spec0.tau - s
            level_new = math.cos(g * tau_new)
            predicted = MunznerSpectrum.at_level(g, m1, m2, level_new).values()
            evolved = rc.evolve_closed(fam, s)
            dev = np.max(np.abs(np.sort(evolved) - np.sort(predicted)))
            assert dev < 1e-9

    def test_domain_ends_at_focal_points(self):
        # from the middle level of the g = 3 family both focal sets sit at
        # tau-distance pi/6
        spec0 = MunznerSpectrum.at_level(3, 1, 1, 0.0)
        fam = rc.riccati_family(rc.space_form(1.0, 3), spec0.values())
        assert fam.t_upper == pytest.approx(np.pi / 6, abs=1e-12)
        assert fam.t_lower == pytest.approx(-np.pi / 6, abs=1e-12)


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        fam = rc.riccati_family(
            rc.rank_one(1.0, 4.0, 1, 4), (0.9, -0.3, 0.25, 1.1)
        )
        path = tmp_path / "traj.csv"
        header, rows = rc.trajectory_table(fam, -0.3, 0.3, 13, k_max=4)
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
