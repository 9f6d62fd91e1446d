"""Shape-operator evolution along unit-speed normal geodesics.

For curvature-adapted hypersurface families each principal curvature obeys
the scalar Riccati equation mu' = mu^2 + kappa with its own Jacobi
eigenvalue kappa. Its closed form runs through the Jacobi pair, the
generalized cosine C and sine S with C'' = -kappa C, S'' = -kappa S,
C(0) = S'(0) = 1 and C'(0) = S(0) = 0:

    mu = (kappa S + C mu0) / (C - S mu0),  mu' = (kappa + mu0^2) / (C - S mu0)^2,

the derivative read off the constant Wronskian. Blow-ups are the zeros of
C - S mu0. This module carries that closed form, an RK4 cross-check, the
mixed trace moments Gamma_ij(t) = tr(S^i R^j), and the inductive
identities that let higher power sums be propagated from derivatives of
lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConstructionError, IntegrationError
from .symmat import max_abs, scalar_or_stack, spectrum_from_moments

BLOWUP_BAND = 1e-3
OVERFLOW_LIMIT = 1e12


def space_form(c: float, n: int) -> tuple:
    """Eigenvalues of the Jacobi operator R of a space form: n copies of c."""
    if n < 1:
        raise ConstructionError(f"n = {n} must be >= 1")
    return (float(c),) * n


def rank_one(kappa1: float, kappa2: float, m: int, n: int) -> tuple:
    """Eigenvalues of R in a rank-one space: the kappa1 block (n - m copies)
    first, then the kappa2 block (m copies), m in {1, 3, 7}."""
    if m not in (1, 3, 7):
        raise ConstructionError(f"m = {m} must be one of 1, 3, 7")
    if n <= m:
        raise ConstructionError(f"n = {n} must exceed m = {m}")
    if kappa1 == kappa2:
        raise ConstructionError("rank-one spectrum needs two distinct values")
    return (float(kappa1),) * (n - m) + (float(kappa2),) * m


def _poles(kappa, mu0):
    """Zeros of C - S mu0 nearest t = 0 on each side, where they exist."""
    if kappa > 0.0:
        omega = np.sqrt(kappa)
        c0 = (0.5 * np.pi - np.arctan(mu0 / omega)) / omega  # arccot into (0, pi)
        return c0 - np.pi / omega, c0
    if kappa == 0.0:
        return (1.0 / mu0,) if mu0 != 0.0 else ()
    omega = np.sqrt(-kappa)
    return (np.arctanh(omega / mu0) / omega,) if abs(mu0) > omega else ()


@dataclass(frozen=True)
class RiccatiFamily:
    """Jacobi eigenvalues with initial principal curvatures and the open
    time interval (t_lower, t_upper) between the nearest blow-ups around 0."""

    kappas: tuple
    mu0: tuple
    t_lower: float
    t_upper: float


def riccati_family(kappas, mu0) -> RiccatiFamily:
    kappas = tuple(float(v) for v in kappas)
    mu0 = tuple(float(v) for v in mu0)
    if len(mu0) != len(kappas):
        raise ConstructionError(
            f"got {len(mu0)} initial curvatures for {len(kappas)} eigenvalues"
        )
    # A NaN branch has no pole, so it would narrow no interval and poison
    # its column unseen.
    if not np.all(np.isfinite(kappas + mu0)):
        raise ConstructionError(
            f"kappa {kappas} and mu0 {mu0} entries must be finite"
        )
    lower, upper = -np.inf, np.inf
    for kappa, start in zip(kappas, mu0):
        for pole in _poles(kappa, start):
            if pole <= 0.0:
                lower = max(lower, pole)
            else:
                upper = min(upper, pole)
    return RiccatiFamily(
        kappas=kappas, mu0=mu0, t_lower=float(lower), t_upper=float(upper)
    )


def _in_domain(fam: RiccatiFamily, t):
    return (fam.t_lower + BLOWUP_BAND < t) & (t < fam.t_upper - BLOWUP_BAND)


def _jacobi_pair(kappas, mu0, t):
    """The Jacobi pair at every (time, eigenvalue), returned as
    (kappa, s, E, S).

    C and S are (cos, sin/omega) for kappa > 0, (1, t) for kappa = 0 and
    (cosh, sinh/omega) for kappa < 0, with omega = sqrt|kappa|. C is
    carried as E + s S, where s is the constant solution +-omega nearest
    mu0 for kappa < 0 (0 otherwise) and E = C - s S = exp(-s t) is computed
    directly: mu0 = s then stays exact at every time, where cosh - sinh
    would cancel to zero once omega |t| nears 18. kappa comes back as
    sign(kappa) omega^2, whose constant solutions are exactly +-omega."""
    pos, neg = kappas > 0.0, kappas < 0.0
    omega = np.sqrt(np.abs(kappas))
    shift = np.where(neg, np.copysign(omega, mu0), 0.0)
    arg = np.multiply.outer(t, omega)
    E = np.ones_like(arg)
    S = np.multiply.outer(t, np.ones_like(omega))
    E[:, pos], S[:, pos] = np.cos(arg[:, pos]), np.sin(arg[:, pos]) / omega[pos]
    # Past omega |t| = 350 a hyperbolic branch sits at its limit to machine
    # precision, so clipping there changes no value and keeps sinh finite.
    x = np.clip(arg[:, neg], -350.0, 350.0)
    E[:, neg], S[:, neg] = np.exp(-np.sign(shift[neg]) * x), np.sinh(x) / omega[neg]
    return np.sign(kappas) * omega**2, shift, E, S


def _mu(mu0, kappa, shift, E, S):
    """(kappa S + C mu0) / (C - S mu0) with C = E + s S."""
    return (mu0 * E + (kappa + shift * mu0) * S) / (E + (shift - mu0) * S)


def _dmu(mu0, kappa, shift, E, S):
    """The constant Wronskian kappa + mu0^2 over (C - S mu0)^2."""
    return (kappa + mu0**2) / (E + (shift - mu0) * S) ** 2


def _closed_table(fam: RiccatiFamily, t, form) -> np.ndarray:
    """form(mu0, *pair) over the Jacobi pair: shape (n,) at one
    time, t.shape + (n,) at an array of times. Raises BlowUpError naming
    the first time outside the safe interval. A single time is evaluated
    as a one-row array too: numpy squares a scalar with libm pow but an
    array exactly, so only this keeps every row bit-identical to the
    single-time call."""
    t = np.asarray(t, dtype=float)
    ok = _in_domain(fam, t)
    if not ok.all():
        bad = float(t[~ok][0])
        raise BlowUpError(
            f"t = {bad} is outside the safe interval "
            f"({fam.t_lower + BLOWUP_BAND:.6g}, {fam.t_upper - BLOWUP_BAND:.6g})"
        )
    kappas, mu0 = np.array(fam.kappas), np.array(fam.mu0)
    table = form(mu0, *_jacobi_pair(kappas, mu0, t.reshape(-1)))
    return table.reshape(t.shape + kappas.shape)


def evolve_closed(fam: RiccatiFamily, t) -> np.ndarray:
    """Principal curvatures from the closed form: one time gives shape
    (n,), an array of times t.shape + (n,)."""
    return _closed_table(fam, t, _mu)


def evolve_derivative(fam: RiccatiFamily, t) -> np.ndarray:
    """Analytic d mu / dt from the Wronskian, shaped like evolve_closed; an
    expression distinct from mu^2 + kappa, so identity checks against the
    flow are not circular."""
    return _closed_table(fam, t, _dmu)


def evolve_numeric(fam: RiccatiFamily, t, steps: int) -> np.ndarray:
    """Classical RK4 integration of mu' = mu^2 + kappa from 0 to t.

    t is one time, giving shape (n,), or an array of times integrated
    together as one stacked array, giving shape t.shape + (n,). Each time
    takes its own step h = t/steps, so every row carries exactly the
    arithmetic of integrating that time alone. kappa and h are laid out at
    the full shape once, so nothing in the loop broadcasts, and 0.5 h and
    h/6 are formed once: a stage multiplies them first, as 0.5 * h * k
    does. The stages write into six arrays allocated once (positional out),
    computing mu + h/6 (k1 + 2 k2 + 2 k3 + k4) with the operations of that
    expression in its order, so each element sees the same IEEE operations
    in the same order.
    """
    t = np.asarray(t, dtype=float)
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    shape = t.shape + (len(fam.mu0),)
    mu = np.broadcast_to(np.array(fam.mu0), shape).copy()
    kappas = np.broadcast_to(np.array(fam.kappas), shape).copy()
    h = np.broadcast_to((t / steps)[..., None], shape).copy()
    half_h, sixth_h = 0.5 * h, h / 6.0
    k1, k2, k3, k4, y = (np.empty(shape) for _ in range(5))
    mul, add = np.multiply, np.add
    for _ in range(steps):
        # k = y * y + kappa at y = mu, mu + h/2 k1, mu + h/2 k2, mu + h k3
        mul(mu, mu, k1)
        add(k1, kappas, k1)
        for step, k, out in ((half_h, k1, k2), (half_h, k2, k3), (h, k3, k4)):
            mul(step, k, y)
            add(mu, y, y)
            mul(y, y, out)
            add(out, kappas, out)
        mul(2.0, k2, k2)
        add(k1, k2, k1)
        mul(2.0, k3, k3)
        add(k1, k3, k1)
        add(k1, k4, k1)
        mul(sixth_h, k1, k1)
        add(mu, k1, mu)
        # One reduction gates the step (initial: an empty grid passes);
        # max carries a NaN through, so the comparison fails on it too.
        if not np.abs(mu, y).max(initial=0.0) <= OVERFLOW_LIMIT:
            bad = ~(np.abs(mu) <= OVERFLOW_LIMIT).all(axis=-1)
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
    return scalar_or_stack(_gamma(evolve_closed(fam, t), np.array(fam.kappas), i, j))


def _flow(fam: RiccatiFamily, t):
    """mu, mu' and the kappas, each time evaluated once."""
    return evolve_closed(fam, t), evolve_derivative(fam, t), np.array(fam.kappas)


def check_power_sum_recurrence(fam: RiccatiFamily, t_samples) -> float:
    """Max residual of Q_(i+1) = (1/i) dQ_i/dt - Gamma_(i-1,1), i = 1..6."""
    mu, dmu, kappas = _flow(fam, t_samples)
    return max_abs([
        _gamma(mu, kappas, i + 1, 0)
        - (_gamma_derivative(mu, dmu, kappas, i, 0) / i - _gamma(mu, kappas, i - 1, 1))
        for i in range(1, 7)
    ])


def check_gamma_recurrence(fam: RiccatiFamily, t_samples) -> float:
    """Max residual of the Gamma_(i+1,1) recurrence for parallel diagonal R,
    i = 1..5: Gamma_(i+1,1) = (1/i) (dGamma_i1/dt - sum_j tr(S^j R S^(i-1-j) R)),
    where each of the i cross terms collapses to Gamma_(i-1,2)."""
    mu, dmu, kappas = _flow(fam, t_samples)
    return max_abs([
        _gamma(mu, kappas, i + 1, 1)
        - (_gamma_derivative(mu, dmu, kappas, i, 1) - i * _gamma(mu, kappas, i - 1, 2)) / i
        for i in range(1, 6)
    ])


def _block_split(kappas, mu, i: int, j: int):
    """Gamma_ij recovered without powering the spectrum directly.

    One distinct kappa value c: Gamma_ij = c^j Q_i. Two values: the traces
    of S^i over the two R-eigenspaces follow from the pair (Q_i, Gamma_i1)
    by a 2x2 solve, after which any kappa power can be attached."""
    values = tuple(dict.fromkeys(kappas))
    if len(values) > 2:
        raise ValueError(
            f"block split needs at most two distinct kappa values, got {len(values)}"
        )
    kappas = np.array(kappas)
    qi = _gamma(mu, kappas, i, 0)
    if len(values) == 1:
        return values[0] ** j * qi
    k1, k2 = values
    gi1 = _gamma(mu, kappas, i, 1)
    tr_a = (gi1 - k2 * qi) / (k1 - k2)
    tr_c = (k1 * qi - gi1) / (k1 - k2)
    return k1**j * tr_a + k2**j * tr_c


def check_moment_chain(fam: RiccatiFamily, t_samples) -> dict:
    """Propagate Q_4 and Q_5 from derivatives of lower moments and compare
    against the direct power sums; returns the max-abs two-path residual of
    each stage by name.

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
    g31_chain = 0.5 * deriv(2, 1) - _block_split(fam.kappas, mu, 1, 2)
    q5_chain = deriv(4, 0) / 4.0 - g31_chain
    return {
        "gamma11": max_abs(g11_chain - gamma(1, 1)),
        "gamma21": max_abs(g21_chain - gamma(2, 1)),
        "q4": max_abs(q4_chain - gamma(4, 0)),
        "gamma31": max_abs(g31_chain - gamma(3, 1)),
        "q5": max_abs(q5_chain - gamma(5, 0)),
    }


def moment_to_spectrum_evolution(fam: RiccatiFamily, t: float) -> np.ndarray:
    """Recover the evolved curvatures at one time, sorted descending, from
    their first n power sums."""
    n = len(fam.mu0)
    mu, kappas = evolve_closed(fam, t), np.array(fam.kappas)
    return spectrum_from_moments(
        [float(_gamma(mu, kappas, i, 0)) for i in range(1, n + 1)], n
    )


def trajectory_table(fam: RiccatiFamily, t0, t1, steps):
    """Header and rows (t, mu_1.., Q_1..Q_4, H) with H = Q_1 over `steps`
    evenly spaced times. Times inside a blow-up band are skipped, so the
    table may have fewer rows."""
    n = len(fam.mu0)
    times = np.linspace(t0, t1, steps)
    times = times[_in_domain(fam, times)]
    mu = evolve_closed(fam, times)
    kappas = np.array(fam.kappas)
    q = [_gamma(mu, kappas, k, 0) for k in range(1, 5)]
    header = (
        ["t"]
        + [f"mu{i}" for i in range(1, n + 1)]
        + [f"Q{k}" for k in range(1, 5)]
        + ["H"]
    )
    return header, np.column_stack([times, mu, *q, np.sum(mu, axis=-1)])
