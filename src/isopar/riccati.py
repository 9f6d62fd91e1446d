"""Shape-operator evolution along unit-speed normal geodesics.

For curvature-adapted hypersurface families each principal curvature obeys
the scalar Riccati equation mu' = mu^2 + kappa with its own Jacobi
eigenvalue kappa. This module carries the per-branch closed forms with
their analytic derivatives, an RK4 cross-check, the mixed trace moments
Gamma_ij(t) = tr(S^i R^j), and the inductive identities that let higher
power sums be propagated from derivatives of lower ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, IntegrationError
from .symmat import Spectrum, spectrum_from_moments

BLOWUP_BAND = 1e-3
OVERFLOW_LIMIT = 1e12

SPACE_FORM = "space-form"
RANK_ONE = "rank-one"


@dataclass(frozen=True)
class JacobiSpectrum:
    """Eigenvalues of the (parallel, diagonal) Jacobi operator R.

    space-form: all equal to c. rank-one: two values with multiplicities
    (n - m, m), m in {1, 3, 7}.
    """

    kappas: tuple
    tag: str
    c: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    m: int | None = None


def space_form(c: float, n: int) -> JacobiSpectrum:
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    return JacobiSpectrum(kappas=(float(c),) * n, tag=SPACE_FORM, c=float(c))


def rank_one(kappa1: float, kappa2: float, m: int, n: int) -> JacobiSpectrum:
    if m not in (1, 3, 7):
        raise ValueError(f"m = {m} must be one of 1, 3, 7")
    if n <= m:
        raise ValueError(f"n = {n} must exceed m = {m}")
    if kappa1 == kappa2:
        raise ValueError("rank-one spectrum needs two distinct values")
    return JacobiSpectrum(
        kappas=(float(kappa1),) * (n - m) + (float(kappa2),) * m,
        tag=RANK_ONE,
        kappa1=float(kappa1),
        kappa2=float(kappa2),
        m=m,
    )


def _branch(kappa, mu0):
    """Closed-form branch for mu' = mu^2 + kappa, mu(0) = mu0.

    Returns (kind, omega, c0, poles). kinds: 'cot', 'linear', 'zero',
    'tanh', 'coth', 'const'.
    """
    if kappa > 0.0:
        omega = np.sqrt(kappa)
        c0 = (0.5 * np.pi - np.arctan(mu0 / omega)) / omega  # arccot into (0, pi)
        return "cot", omega, c0, (c0 - np.pi / omega, c0)
    if kappa == 0.0:
        if mu0 == 0.0:
            return "zero", 0.0, 0.0, ()
        return "linear", 0.0, mu0, (1.0 / mu0,)
    omega = np.sqrt(-kappa)
    if abs(mu0) < omega:
        return "tanh", omega, np.arctanh(mu0 / omega) / omega, ()
    if abs(mu0) > omega:
        return "coth", omega, np.arctanh(omega / mu0) / omega, (
            np.arctanh(omega / mu0) / omega,
        )
    return "const", omega, mu0, ()


def _mu_closed(branch, t):
    kind, omega, c0, _ = branch
    if kind == "cot":
        u = omega * (c0 - t)
        return omega * np.cos(u) / np.sin(u)
    if kind == "linear":
        return c0 / (1.0 - c0 * t)
    if kind == "zero":
        return 0.0
    if kind == "tanh":
        return omega * np.tanh(omega * (c0 - t))
    if kind == "coth":
        return omega / np.tanh(omega * (c0 - t))
    return c0  # const


def _dmu_closed(branch, t):
    """Analytic derivative of the closed form; distinct expressions from
    mu^2 + kappa, so identity checks against the flow are not circular."""
    kind, omega, c0, _ = branch
    if kind == "cot":
        return omega**2 / np.sin(omega * (c0 - t)) ** 2
    if kind == "linear":
        return c0**2 / (1.0 - c0 * t) ** 2
    if kind == "zero":
        return 0.0
    if kind == "tanh":
        return -(omega**2) / np.cosh(omega * (c0 - t)) ** 2
    if kind == "coth":
        return omega**2 / np.sinh(omega * (c0 - t)) ** 2
    return 0.0  # const


@dataclass(frozen=True)
class RiccatiFamily:
    """A Jacobi spectrum with initial principal curvatures and the open time
    interval (t_lower, t_upper) between the nearest blow-ups around 0."""

    jacobi: JacobiSpectrum
    mu0: tuple
    branches: tuple
    t_lower: float
    t_upper: float


def riccati_family(jacobi: JacobiSpectrum, mu0) -> RiccatiFamily:
    mu0 = tuple(float(v) for v in mu0)
    if len(mu0) != len(jacobi.kappas):
        raise ValueError(
            f"got {len(mu0)} initial curvatures for {len(jacobi.kappas)} eigenvalues"
        )
    branches = tuple(_branch(k, v) for k, v in zip(jacobi.kappas, mu0))
    lower, upper = -np.inf, np.inf
    for branch in branches:
        for pole in branch[3]:
            if pole <= 0.0:
                lower = max(lower, pole)
            else:
                upper = min(upper, pole)
    return RiccatiFamily(
        jacobi=jacobi, mu0=mu0, branches=branches,
        t_lower=float(lower), t_upper=float(upper),
    )


def _require_in_domain(fam: RiccatiFamily, t: float):
    if not fam.t_lower + BLOWUP_BAND < t < fam.t_upper - BLOWUP_BAND:
        nearest = fam.t_upper if t > 0 else fam.t_lower
        raise BlowUpError(
            f"t = {t} is outside the safe interval "
            f"({fam.t_lower + BLOWUP_BAND:.6g}, {fam.t_upper - BLOWUP_BAND:.6g})",
            time=nearest,
        )


def evolve_closed(fam: RiccatiFamily, t: float) -> np.ndarray:
    """Principal curvatures at time t from the per-branch closed forms."""
    t = float(t)
    _require_in_domain(fam, t)
    return np.array([_mu_closed(branch, t) for branch in fam.branches])


def evolve_derivative(fam: RiccatiFamily, t: float) -> np.ndarray:
    """Analytic d mu / dt at time t."""
    t = float(t)
    _require_in_domain(fam, t)
    return np.array([_dmu_closed(branch, t) for branch in fam.branches])


def evolve_numeric(fam: RiccatiFamily, t, steps: int) -> np.ndarray:
    """Classical RK4 integration of mu' = mu^2 + kappa from 0 to t.

    t is one time, giving shape (n,), or an array of times integrated
    together as one stacked array, giving shape t.shape + (n,). Each time
    takes its own step h = t/steps, so every row carries exactly the
    arithmetic of integrating that time alone.
    """
    t = np.asarray(t, dtype=float)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    mu = np.broadcast_to(np.array(fam.mu0), t.shape + (len(fam.mu0),)).copy()
    if steps == 0:
        if np.any(t != 0.0):
            raise ValueError("zero steps only reproduce the initial time")
        return mu
    kappas = np.array(fam.jacobi.kappas)
    h = (t / steps)[..., None]
    rhs = lambda m: m * m + kappas
    for _ in range(steps):
        k1 = rhs(mu)
        k2 = rhs(mu + 0.5 * h * k1)
        k3 = rhs(mu + 0.5 * h * k2)
        k4 = rhs(mu + h * k3)
        mu = mu + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = ~(np.abs(mu) <= OVERFLOW_LIMIT).all(axis=-1)
        if bad.any():
            raise IntegrationError(
                f"integration overflowed on the way to t = {t[bad].flat[0]}"
            )
    return mu


def gamma_ij(fam: RiccatiFamily, t: float, i: int, j: int) -> float:
    """Mixed trace moment Gamma_ij(t) = tr(S^i R^j) = sum mu^i kappa^j."""
    if i < 0 or j < 0:
        raise ValueError("moments need nonnegative exponents")
    mu = evolve_closed(fam, t)
    kappas = np.array(fam.jacobi.kappas)
    return float(np.sum(mu**i * kappas**j))


def q_moment(fam: RiccatiFamily, t: float, i: int) -> float:
    """Q_i(t) = tr S^i."""
    return gamma_ij(fam, t, i, 0)


def q_derivative(fam: RiccatiFamily, t: float, i: int) -> float:
    """Analytic dQ_i/dt = i sum mu^(i-1) mu'."""
    if i < 1:
        raise ValueError("i must be >= 1")
    mu = evolve_closed(fam, t)
    dmu = evolve_derivative(fam, t)
    return float(i * np.sum(mu ** (i - 1) * dmu))


def gamma_i1_derivative(fam: RiccatiFamily, t: float, i: int) -> float:
    """Analytic d Gamma_i1 / dt = i sum mu^(i-1) mu' kappa."""
    if i < 1:
        raise ValueError("i must be >= 1")
    mu = evolve_closed(fam, t)
    dmu = evolve_derivative(fam, t)
    kappas = np.array(fam.jacobi.kappas)
    return float(i * np.sum(mu ** (i - 1) * dmu * kappas))


def check_power_sum_recurrence(fam: RiccatiFamily, t_samples, i_max: int = 6) -> float:
    """Max residual of Q_(i+1) = (1/i) dQ_i/dt - Gamma_(i-1,1)."""
    worst = 0.0
    for t in t_samples:
        for i in range(1, i_max + 1):
            lhs = q_moment(fam, t, i + 1)
            rhs = q_derivative(fam, t, i) / i - gamma_ij(fam, t, i - 1, 1)
            worst = max(worst, abs(lhs - rhs))
    return worst


def check_gamma_recurrence(fam: RiccatiFamily, t_samples, i_max: int = 5) -> float:
    """Max residual of the Gamma_(i+1,1) recurrence for parallel diagonal R:
    Gamma_(i+1,1) = (1/i) (dGamma_i1/dt - sum_j tr(S^j R S^(i-1-j) R)),
    where each of the i cross terms collapses to Gamma_(i-1,2)."""
    worst = 0.0
    for t in t_samples:
        for i in range(1, i_max + 1):
            lhs = gamma_ij(fam, t, i + 1, 1)
            cross = i * gamma_ij(fam, t, i - 1, 2)
            rhs = (gamma_i1_derivative(fam, t, i) - cross) / i
            worst = max(worst, abs(lhs - rhs))
    return worst


def gamma_block_split(fam: RiccatiFamily, t: float, i: int, j: int) -> float:
    """Gamma_ij recovered without powering the spectrum directly.

    Space forms: Gamma_ij = c^j Q_i. Rank-one spectra: the block traces
    tr(A_i), tr(C_i) of S^i over the two R-eigenspaces follow from the pair
    (Q_i, Gamma_i1) by a 2x2 solve, after which any kappa power can be
    attached."""
    jac = fam.jacobi
    if jac.tag == SPACE_FORM:
        return jac.c**j * q_moment(fam, t, i)
    k1, k2 = jac.kappa1, jac.kappa2
    qi = q_moment(fam, t, i)
    gi1 = gamma_ij(fam, t, i, 1)
    tr_a = (gi1 - k2 * qi) / (k1 - k2)
    tr_c = (k1 * qi - gi1) / (k1 - k2)
    return k1**j * tr_a + k2**j * tr_c


@dataclass(frozen=True)
class MomentChainReport:
    """Two-path residuals of the propagated moments."""

    gamma11: float
    gamma21: float
    q4: float
    gamma31: float
    q5: float

    @property
    def max_residual(self) -> float:
        return max(self.gamma11, self.gamma21, self.q4, self.gamma31, self.q5)


def check_moment_chain(fam: RiccatiFamily, t_samples) -> MomentChainReport:
    """Propagate Q_4 and Q_5 from derivatives of lower moments and compare
    against the direct power sums.

    Chain: Gamma_11 = Q_2'/2 - Q_3; Gamma_21 = Gamma_11' - tr R^2;
    Q_4 = Q_3'/3 - Gamma_21; Gamma_31 = Gamma_21'/2 - Gamma_12 with
    Gamma_12 recovered by the block split; Q_5 = Q_4'/4 - Gamma_31.
    """
    kappas = np.array(fam.jacobi.kappas)
    tr_r2 = float(np.sum(kappas**2))
    worst = dict(gamma11=0.0, gamma21=0.0, q4=0.0, gamma31=0.0, q5=0.0)
    for t in t_samples:
        g11_chain = 0.5 * q_derivative(fam, t, 2) - q_moment(fam, t, 3)
        g21_chain = gamma_i1_derivative(fam, t, 1) - tr_r2
        q4_chain = q_derivative(fam, t, 3) / 3.0 - g21_chain
        g12 = gamma_block_split(fam, t, 1, 2)
        g31_chain = 0.5 * gamma_i1_derivative(fam, t, 2) - g12
        q5_chain = q_derivative(fam, t, 4) / 4.0 - g31_chain
        worst["gamma11"] = max(
            worst["gamma11"], abs(g11_chain - gamma_ij(fam, t, 1, 1))
        )
        worst["gamma21"] = max(
            worst["gamma21"], abs(g21_chain - gamma_ij(fam, t, 2, 1))
        )
        worst["q4"] = max(worst["q4"], abs(q4_chain - q_moment(fam, t, 4)))
        worst["gamma31"] = max(
            worst["gamma31"], abs(g31_chain - gamma_ij(fam, t, 3, 1))
        )
        worst["q5"] = max(worst["q5"], abs(q5_chain - q_moment(fam, t, 5)))
    return MomentChainReport(**worst)


def phi_psi_split(fam: RiccatiFamily, t: float, i: int):
    """(Phi_i, Psi_i): the power sum split over the two R-eigenspace blocks
    of a rank-one spectrum."""
    if fam.jacobi.tag != RANK_ONE:
        raise ValueError("split moments need a rank-one spectrum")
    mu = evolve_closed(fam, t)
    cut = len(mu) - fam.jacobi.m
    return float(np.sum(mu[:cut] ** i)), float(np.sum(mu[cut:] ** i))


def phi_psi_derivative(fam: RiccatiFamily, t: float, i: int):
    """Analytic derivatives of the split power sums."""
    if fam.jacobi.tag != RANK_ONE:
        raise ValueError("split moments need a rank-one spectrum")
    if i < 1:
        raise ValueError("i must be >= 1")
    mu = evolve_closed(fam, t)
    dmu = evolve_derivative(fam, t)
    cut = len(mu) - fam.jacobi.m
    return (
        float(i * np.sum(mu[:cut] ** (i - 1) * dmu[:cut])),
        float(i * np.sum(mu[cut:] ** (i - 1) * dmu[cut:])),
    )


def moment_to_spectrum_evolution(fam: RiccatiFamily, t: float) -> Spectrum:
    """Recover the evolved curvature multiset from its first n power sums."""
    n = len(fam.mu0)
    moments = [q_moment(fam, t, i) for i in range(1, n + 1)]
    return spectrum_from_moments(moments, n)


def write_trajectory_csv(path, fam: RiccatiFamily, t0, t1, steps, k_max=4):
    """Rows (t, mu_1.., Q_1..Q_kmax, H) with H = Q_1; 17 significant digits.

    Times inside a blow-up band are skipped, so the file may be partial."""
    n = len(fam.mu0)
    written = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["t"]
            + [f"mu{i}" for i in range(1, n + 1)]
            + [f"Q{k}" for k in range(1, k_max + 1)]
            + ["H"]
        )
        for t in np.linspace(t0, t1, steps):
            try:
                mu = evolve_closed(fam, float(t))
            except BlowUpError:
                continue
            row = [float(t)] + list(mu)
            row += [float(np.sum(mu**k)) for k in range(1, k_max + 1)]
            row.append(float(np.sum(mu)))
            writer.writerow([f"{value:.17g}" for value in row])
            written += 1
    return written
