"""Symmetric-matrix kernel.

Elementary symmetric functions sigma_k and power sums rho_k of a spectrum,
Newton's identities in both directions, one dense eigensolver (LAPACK),
spectrum recovery from moments via a companion matrix, and a Bjorck-Pereyra
solver for dual Vandermonde systems. A spectrum is a plain array of
eigenvalues sorted descending; cluster_starts is the one way to group it
into near-equal values. Everything downstream (level-set invariants, shape
operators, trace recurrences) reduces to these primitives.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConditioningError, IllPosedMomentsError, NonFiniteError

# Eigenvalue grouping scale; far below the curvature gaps that occur on
# regular level sets, far above eigensolver noise.
CLUSTER_TOL = 1e-6

NODE_GAP_MIN = 1e-8
IMAG_TOL = 1e-6  # largest |Im| of a companion root still read as real


class SymmetricMatrix:
    """Dense real symmetric matrix, or a stack of them with shape
    (..., n, n); entries are symmetrized at construction.

    Rejects input whose asymmetry exceeds roundoff scale instead of silently
    averaging away a bug; the gate is judged per matrix of a stack, and names
    the first failing one as a sample (first_bad).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim < 2 or a.shape[-2] != a.shape[-1] or a.shape[-1] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # One contiguous copy of a^T serves a - a^T and a^T + a (reading the
        # strided transpose is the slow part). |a| gives the scale; its
        # buffer then takes a - a^T, which is exactly antisymmetric, so its
        # max is its largest |entry|. A NaN or infinite entry makes the
        # scale non-finite, and the difference (where inf - inf would warn)
        # is then left to the error path.
        axes = (-2, -1)
        sym = np.swapaxes(a, -2, -1).copy()
        buf = np.abs(a)
        scale = buf.max(axis=axes)
        if not (
            np.isfinite(scale).all()
            and (np.subtract(a, sym, out=buf).max(axis=axes)
                 <= 1e-8 * np.maximum(1.0, scale)).all()
        ):
            raise _gate_error(a, sym, scale)
        sym += a
        sym /= 2.0
        sym.flags.writeable = False
        self.entries = sym

    @property
    def order(self) -> int:
        return self.entries.shape[-1]

    def trace(self):
        """tr M: a float, or one value per matrix of a stack."""
        return scalar_or_stack(np.trace(self.entries, axis1=-2, axis2=-1))


def _gate_error(a, sym, scale) -> ValueError:
    """The symmetry gate's error for the first failing member of a: its
    first non-finite entry by name, or its asymmetry."""
    with np.errstate(invalid="ignore"):
        skew = (a - sym).max(axis=(-2, -1))
    i, where = first_bad(
        np.isfinite(scale) & (skew <= 1e-8 * np.maximum(1.0, scale))
    )
    if not np.isfinite(np.ravel(scale)[i]):
        member = a.reshape((-1,) + a.shape[-2:])[i]
        r, c = np.argwhere(~np.isfinite(member))[0]
        return ValueError(
            f"matrix has a non-finite entry {member[r, c]} at ({r}, {c}){where}"
        )
    return ValueError(
        f"matrix is not symmetric: max asymmetry {np.ravel(skew)[i]:.3e}{where}"
    )


def first_bad(ok):
    """(i, where) for the first member of a stack failing ok, i its flat
    index and where the phrase " (sample i)" naming it (empty for a single
    point or matrix, where ok is a scalar), or None when all pass.

    Every gate that judges a block or stack row by row names its failure
    this way, so spherelevel.in_blocks can re-index any of them among all
    samples."""
    bad = ~np.asarray(ok)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, f" (sample {i})" if bad.ndim else ""


def scalar_or_stack(value):
    """A Python float for one matrix or point, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def max_abs(residuals) -> float:
    """Largest |residual| over an array or a list of equal-shape arrays, 0.0
    for none; np.max, unlike the builtin max, returns a NaN, not drops it."""
    return float(np.max(np.abs(residuals), initial=0.0))


def cluster_starts(w):
    """Where a new cluster starts in descending eigenvalues w (or in each
    row of a stack): after w[i - 1], wherever w[i - 1] - w[i] > CLUSTER_TOL.
    Shaped (..., n - 1)."""
    return w[..., :-1] - w[..., 1:] > CLUSTER_TOL


def eigh(matrix):
    """Eigenvalues of a symmetric matrix (or a stack), descending, and the
    eigenvector columns in that order (LAPACK through np.linalg.eigh)."""
    w, v = np.linalg.eigh(matrix)
    return w[..., ::-1], v[..., ::-1]


# bench/spans.py traces the eigensolve under this name.
eigh_jacobi = eigh


def eigensolve(M: SymmetricMatrix) -> np.ndarray:
    """Eigenvalues of M (one row per matrix of a stack), descending;
    cluster_starts groups them by multiplicity."""
    return eigh(M.entries)[0]


def elementary_symmetric(M: SymmetricMatrix, k: int) -> np.ndarray:
    """sigma_0..sigma_k of the eigenvalues of M from one eigensolve, along a
    new last axis (one row per matrix of a stack)."""
    w = eigensolve(M)
    # e[..., j] accumulates the degree-j elementary symmetric function of the
    # eigenvalues; the slice RHS is materialized before the in-place add, so
    # order is safe, and e[..., j] does not depend on k.
    e = np.zeros(w.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for j in range(w.shape[-1]):
        e[..., 1 : k + 1] += w[..., j, None] * e[..., 0:k]
    return e


def sigma_k(M: SymmetricMatrix, k: int):
    """Elementary symmetric function of the eigenvalues, sigma_0 = 1; one
    value per matrix of a stack."""
    n = M.order
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} out of range [0, {n}]")
    if k == 0:
        return scalar_or_stack(np.ones(M.entries.shape[:-2]))
    return scalar_or_stack(elementary_symmetric(M, k)[..., k])


def sigma_k_minor_sum(M: SymmetricMatrix, k: int) -> float:
    """sigma_k as the sum of principal k-minors.

    Brute force over index subsets; independent of the eigenvalue path and
    meant as an oracle for order <= 8.
    """
    n = M.order
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} out of range [0, {n}]")
    if k == 0:
        return 1.0
    total = 0.0
    for rows in itertools.combinations(range(n), k):
        sub = M.entries[np.ix_(rows, rows)]
        total += float(np.linalg.det(sub))
    return total


def rho_k(M: SymmetricMatrix, ks):
    """Power sums of the eigenvalues, tr(M^k), for every k in ks; rho_0 =
    order. A tuple with one entry per k, each a float or one value per
    matrix of a stack; any non-finite value raises.

    Each M^k is the product np.linalg.matrix_power(M, k) forms, bit for bit,
    but every k reads one ladder of squares M^(2^j): for k <= 6, M^2 and
    M^4 once, then M^2 M, M M^4 and M^2 M^4."""
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 0:
            raise ValueError(f"k = {k} must be nonnegative")
    squares = [M.entries]

    def square(j):
        while len(squares) <= j:
            squares.append(squares[-1] @ squares[-1])
        return squares[j]

    sums = []
    for k in ks:
        if k == 0:
            order = np.full(M.entries.shape[:-2], float(M.order))
            sums.append(scalar_or_stack(order))
            continue
        if k == 3:
            power = square(1) @ M.entries  # matrix_power's short-cut (M M) M
        else:
            # matrix_power's binary decomposition, low bit first
            power = None
            for j in range(k.bit_length()):
                if k >> j & 1:
                    power = square(j) if power is None else power @ square(j)
        value = np.trace(power, axis1=-2, axis2=-1)
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"rho_{k} overflowed to a non-finite value")
        sums.append(scalar_or_stack(value))
    return tuple(sums)


def newton_sigma_from_rho(rho, n: int):
    """sigma_1..sigma_k from rho_1..rho_k by Newton's identities (k <= n)."""
    rho = [float(r) for r in rho]
    k = len(rho)
    if k == 0:
        raise ValueError("need at least one power sum")
    if k > n:
        raise ValueError(f"got {k} power sums for order n = {n}")
    sigma = [1.0]
    for j in range(1, k + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (-1.0) ** (i - 1) * sigma[j - i] * rho[i - 1]
        sigma.append(acc / j)
    return sigma[1:]


def newton_rho_from_sigma(sigma, n: int):
    """rho_1..rho_k from sigma_1..sigma_k, inverting Newton's identities."""
    sigma = [float(s) for s in sigma]
    k = len(sigma)
    if k == 0:
        raise ValueError("need at least one elementary symmetric value")
    if k > n:
        raise ValueError(f"got {k} values for order n = {n}")
    full = [1.0] + sigma
    rho = []
    for j in range(1, k + 1):
        acc = 0.0
        for i in range(1, j):
            acc += (-1.0) ** (i - 1) * full[j - i] * rho[i - 1]
        rho.append((-1.0) ** (j - 1) * (j * full[j] - acc))
    return rho


def spectrum_from_moments(rho, n: int) -> np.ndarray:
    """Recover the eigenvalues of a symmetric operator of order n, sorted
    descending, from its first n power sums.

    Newton's identities give the characteristic polynomial; its roots come
    from a companion-matrix eigensolve. Roots with imaginary part above
    IMAG_TOL mean the moments are not realizable and raise
    IllPosedMomentsError.
    """
    rho = [float(r) for r in rho]
    if len(rho) != n:
        raise ValueError(f"need exactly n = {n} power sums, got {len(rho)}")
    sigma = newton_sigma_from_rho(rho, n)
    if n == 1:
        return np.array(sigma)
    comp = np.zeros((n, n))
    # x^n - sigma_1 x^(n-1) + sigma_2 x^(n-2) - ... ; first-row companion.
    comp[0, :] = [(-1.0) ** k * sigma[k] for k in range(n)]
    comp[1:, :-1] = np.eye(n - 1)
    roots = np.linalg.eigvals(comp)
    imag = float(np.max(np.abs(roots.imag)))
    if imag > IMAG_TOL:
        raise IllPosedMomentsError(
            f"complex spectrum (max imaginary part {imag:.3e}); moments not "
            "realizable by a real symmetric operator"
        )
    return np.sort(roots.real)[::-1]


def vandermonde_solve(nodes, moments):
    """Solve sum_j nodes_j**i * w_j = moments_i for the weights w.

    Bjorck-Pereyra elimination on the dual Vandermonde system: O(n^2), exact
    up to roundoff for well-separated nodes. Nodes closer than NODE_GAP_MIN
    raise ConditioningError naming the offending gap.
    """
    x = np.asarray(nodes, dtype=float)
    b = np.array(moments, dtype=float)
    n = len(x)
    if x.ndim != 1 or b.shape != (n,):
        raise ValueError("nodes and moments must be 1-D of equal length")
    if n == 0:
        raise ValueError("need at least one node")
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(x[i] - x[j])
            if gap <= NODE_GAP_MIN:
                raise ConditioningError(f"nodes {x[i]} and {x[j]} are {gap:.3e} apart")
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            b[i] -= x[k] * b[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            b[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            b[i] -= b[i + 1]
    return b
