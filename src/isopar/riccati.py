"""Shape-operator evolution along unit-speed normal geodesics.

For curvature-adapted hypersurface families each principal curvature obeys
the scalar Riccati equation mu' = mu^2 + kappa with its own Jacobi
eigenvalue kappa. This module carries the per-branch closed forms with
their analytic derivatives, an RK4 cross-check, the mixed trace moments
Gamma_ij(t) = tr(S^i R^j), and the inductive identities that let higher
power sums be propagated from derivatives of lower ones.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import BlowUpError, ConstructionError, IntegrationError
from .symmat import Spectrum, scalar_or_stack, spectrum_from_moments

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
        raise ConstructionError(f"n = {n} must be >= 1")
    return JacobiSpectrum(kappas=(float(c),) * n, tag=SPACE_FORM, c=float(c))


def rank_one(kappa1: float, kappa2: float, m: int, n: int) -> JacobiSpectrum:
    if m not in (1, 3, 7):
        raise ConstructionError(f"m = {m} must be one of 1, 3, 7")
    if n <= m:
        raise ConstructionError(f"n = {n} must exceed m = {m}")
    if kappa1 == kappa2:
        raise ConstructionError("rank-one spectrum needs two distinct values")
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
    if kind == "tanh":
        return omega * np.tanh(omega * (c0 - t))
    if kind == "coth":
        return omega / np.tanh(omega * (c0 - t))
    return c0  # const, and zero with c0 = 0


def _dmu_closed(branch, t):
    """Analytic derivative of the closed form; distinct expressions from
    mu^2 + kappa, so identity checks against the flow are not circular."""
    kind, omega, c0, _ = branch
    if kind == "cot":
        return omega**2 / np.sin(omega * (c0 - t)) ** 2
    if kind == "linear":
        return c0**2 / (1.0 - c0 * t) ** 2
    if kind == "tanh":
        return -(omega**2) / np.cosh(omega * (c0 - t)) ** 2
    if kind == "coth":
        return omega**2 / np.sinh(omega * (c0 - t)) ** 2
    return 0.0  # const and zero


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
        raise ConstructionError(
            f"got {len(mu0)} initial curvatures for {len(jacobi.kappas)} eigenvalues"
        )
    # A NaN branch has no pole, so it would narrow no interval and poison
    # its column unseen.
    if not np.all(np.isfinite(jacobi.kappas + mu0)):
        raise ConstructionError(
            f"kappa {jacobi.kappas} and mu0 {mu0} entries must be finite"
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


def _in_domain(fam: RiccatiFamily, t):
    return (fam.t_lower + BLOWUP_BAND < t) & (t < fam.t_upper - BLOWUP_BAND)


def _closed_table(fam: RiccatiFamily, t, form) -> np.ndarray:
    """One closed form per branch: shape (n,) at one time, t.shape + (n,)
    at an array of times. Raises BlowUpError naming the first time outside
    the safe interval. A single time is evaluated as a one-row array too:
    numpy squares a scalar with libm pow but an array exactly, so only this
    keeps every row bit-identical to the single-time call."""
    t = np.asarray(t, dtype=float)
    ok = _in_domain(fam, t)
    if not ok.all():
        bad = float(t[~ok][0])
        raise BlowUpError(
            f"t = {bad} is outside the safe interval "
            f"({fam.t_lower + BLOWUP_BAND:.6g}, {fam.t_upper - BLOWUP_BAND:.6g})",
            time=fam.t_upper if bad > 0 else fam.t_lower,
        )
    grid = t.reshape(-1)
    columns = [np.broadcast_to(form(b, grid), grid.shape) for b in fam.branches]
    return np.stack(columns, axis=-1).reshape(t.shape + (len(columns),))


def evolve_closed(fam: RiccatiFamily, t) -> np.ndarray:
    """Principal curvatures from the per-branch closed forms: one time gives
    shape (n,), an array of times t.shape + (n,)."""
    return _closed_table(fam, t, _mu_closed)


def evolve_derivative(fam: RiccatiFamily, t) -> np.ndarray:
    """Analytic d mu / dt, shaped like evolve_closed."""
    return _closed_table(fam, t, _dmu_closed)


def evolve_numeric(fam: RiccatiFamily, t, steps: int) -> np.ndarray:
    """Classical RK4 integration of mu' = mu^2 + kappa from 0 to t.

    t is one time, giving shape (n,), or an array of times integrated
    together as one stacked array, giving shape t.shape + (n,). Each time
    takes its own step h = t/steps, so every row carries exactly the
    arithmetic of integrating that time alone.
    """
    t = np.asarray(t, dtype=float)
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    mu = np.broadcast_to(np.array(fam.mu0), t.shape + (len(fam.mu0),))
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


def _gamma(mu, kappas, i: int, j: int):
    """sum mu^i kappa^j over the last axis of a curvature table."""
    if i < 0 or j < 0:
        raise ValueError("moments need nonnegative exponents")
    return np.sum(mu**i * kappas**j, axis=-1)


def _gamma_derivative(mu, dmu, kappas, i: int, j: int):
    """i sum mu^(i-1) mu' kappa^j over the last axis."""
    if i < 1 or j < 0:
        raise ValueError("i must be >= 1 and j nonnegative")
    return i * np.sum(mu ** (i - 1) * dmu * kappas**j, axis=-1)


def gamma_ij(fam: RiccatiFamily, t, i: int, j: int):
    """Mixed trace moment Gamma_ij(t) = tr(S^i R^j) = sum mu^i kappa^j: a
    float at one time, an array shaped like t at an array of times.
    Gamma_i0 is the power sum Q_i = tr S^i."""
    return scalar_or_stack(
        _gamma(evolve_closed(fam, t), np.array(fam.jacobi.kappas), i, j)
    )


def _flow(fam: RiccatiFamily, t):
    """mu, mu' and the kappas, each time evaluated once."""
    return evolve_closed(fam, t), evolve_derivative(fam, t), np.array(fam.jacobi.kappas)


def gamma_derivative(fam: RiccatiFamily, t, i: int, j: int):
    """Analytic d Gamma_ij / dt = i sum mu^(i-1) mu' kappa^j, shaped like
    gamma_ij."""
    return scalar_or_stack(_gamma_derivative(*_flow(fam, t), i, j))


def _worst(residuals) -> float:
    """Largest |residual|; a NaN residual is returned, not dropped."""
    return float(np.max(np.abs(residuals), initial=0.0))


def check_power_sum_recurrence(fam: RiccatiFamily, t_samples, i_max: int = 6) -> float:
    """Max residual of Q_(i+1) = (1/i) dQ_i/dt - Gamma_(i-1,1)."""
    mu, dmu, kappas = _flow(fam, t_samples)
    return _worst([
        _gamma(mu, kappas, i + 1, 0)
        - (_gamma_derivative(mu, dmu, kappas, i, 0) / i - _gamma(mu, kappas, i - 1, 1))
        for i in range(1, i_max + 1)
    ])


def check_gamma_recurrence(fam: RiccatiFamily, t_samples, i_max: int = 5) -> float:
    """Max residual of the Gamma_(i+1,1) recurrence for parallel diagonal R:
    Gamma_(i+1,1) = (1/i) (dGamma_i1/dt - sum_j tr(S^j R S^(i-1-j) R)),
    where each of the i cross terms collapses to Gamma_(i-1,2)."""
    mu, dmu, kappas = _flow(fam, t_samples)
    return _worst([
        _gamma(mu, kappas, i + 1, 1)
        - (_gamma_derivative(mu, dmu, kappas, i, 1) - i * _gamma(mu, kappas, i - 1, 2)) / i
        for i in range(1, i_max + 1)
    ])


def _block_split(jac: JacobiSpectrum, mu, i: int, j: int):
    kappas = np.array(jac.kappas)
    if jac.tag == SPACE_FORM:
        return jac.c**j * _gamma(mu, kappas, i, 0)
    k1, k2 = jac.kappa1, jac.kappa2
    qi = _gamma(mu, kappas, i, 0)
    gi1 = _gamma(mu, kappas, i, 1)
    tr_a = (gi1 - k2 * qi) / (k1 - k2)
    tr_c = (k1 * qi - gi1) / (k1 - k2)
    return k1**j * tr_a + k2**j * tr_c


def gamma_block_split(fam: RiccatiFamily, t, i: int, j: int):
    """Gamma_ij recovered without powering the spectrum directly, shaped
    like gamma_ij.

    Space forms: Gamma_ij = c^j Q_i. Rank-one spectra: the block traces
    tr(A_i), tr(C_i) of S^i over the two R-eigenspaces follow from the pair
    (Q_i, Gamma_i1) by a 2x2 solve, after which any kappa power can be
    attached."""
    return scalar_or_stack(_block_split(fam.jacobi, evolve_closed(fam, t), i, j))


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
        return float(np.max(astuple(self)))


def check_moment_chain(fam: RiccatiFamily, t_samples) -> MomentChainReport:
    """Propagate Q_4 and Q_5 from derivatives of lower moments and compare
    against the direct power sums.

    Chain: Gamma_11 = Q_2'/2 - Q_3; Gamma_21 = Gamma_11' - tr R^2;
    Q_4 = Q_3'/3 - Gamma_21; Gamma_31 = Gamma_21'/2 - Gamma_12 with
    Gamma_12 recovered by the block split; Q_5 = Q_4'/4 - Gamma_31.
    """
    mu, dmu, kappas = _flow(fam, t_samples)
    gamma = lambda i, j: _gamma(mu, kappas, i, j)
    deriv = lambda i, j: _gamma_derivative(mu, dmu, kappas, i, j)
    tr_r2 = float(np.sum(kappas**2))
    g11_chain = 0.5 * deriv(2, 0) - gamma(3, 0)
    g21_chain = deriv(1, 1) - tr_r2
    q4_chain = deriv(3, 0) / 3.0 - g21_chain
    g31_chain = 0.5 * deriv(2, 1) - _block_split(fam.jacobi, mu, 1, 2)
    q5_chain = deriv(4, 0) / 4.0 - g31_chain
    return MomentChainReport(
        gamma11=_worst(g11_chain - gamma(1, 1)),
        gamma21=_worst(g21_chain - gamma(2, 1)),
        q4=_worst(q4_chain - gamma(4, 0)),
        gamma31=_worst(g31_chain - gamma(3, 1)),
        q5=_worst(q5_chain - gamma(5, 0)),
    )


def _blocks(fam: RiccatiFamily):
    """Slices of the kappa1 and kappa2 blocks of a rank-one spectrum."""
    if fam.jacobi.tag != RANK_ONE:
        raise ValueError("split moments need a rank-one spectrum")
    cut = len(fam.mu0) - fam.jacobi.m
    return slice(None, cut), slice(cut, None)


def phi_psi_split(fam: RiccatiFamily, t, i: int):
    """(Phi_i, Psi_i): the power sum split over the two R-eigenspace blocks
    of a rank-one spectrum, each shaped like gamma_ij."""
    blocks = _blocks(fam)
    mu, kappas = evolve_closed(fam, t), np.array(fam.jacobi.kappas)
    return tuple(scalar_or_stack(_gamma(mu[..., b], kappas[b], i, 0)) for b in blocks)


def phi_psi_derivative(fam: RiccatiFamily, t, i: int):
    """Analytic derivatives of the split power sums."""
    blocks = _blocks(fam)
    mu, dmu, kappas = _flow(fam, t)
    return tuple(
        scalar_or_stack(_gamma_derivative(mu[..., b], dmu[..., b], kappas[b], i, 0))
        for b in blocks
    )


def moment_to_spectrum_evolution(fam: RiccatiFamily, t: float) -> Spectrum:
    """Recover the evolved curvature multiset at one time from its first n
    power sums."""
    n = len(fam.mu0)
    mu, kappas = evolve_closed(fam, t), np.array(fam.jacobi.kappas)
    return spectrum_from_moments(
        [float(_gamma(mu, kappas, i, 0)) for i in range(1, n + 1)], n
    )


def trajectory_table(fam: RiccatiFamily, t0, t1, steps, k_max=4):
    """Header and rows (t, mu_1.., Q_1..Q_kmax, H) with H = Q_1 over `steps`
    evenly spaced times. Times inside a blow-up band are skipped, so the
    table may have fewer rows."""
    n = len(fam.mu0)
    times = np.linspace(t0, t1, steps)
    times = times[_in_domain(fam, times)]
    mu = evolve_closed(fam, times)
    kappas = np.array(fam.jacobi.kappas)
    q = [_gamma(mu, kappas, k, 0) for k in range(1, k_max + 1)]
    header = (
        ["t"]
        + [f"mu{i}" for i in range(1, n + 1)]
        + [f"Q{k}" for k in range(1, k_max + 1)]
        + ["H"]
    )
    return header, np.column_stack([times, mu, *q, np.sum(mu, axis=-1)])
