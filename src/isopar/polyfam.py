"""The two isoparametric polynomial families and their differential data.

Degree-4 family from a symmetric Clifford system on R^(2r):
    F(z) = |z|^4 - 2 sum_p <A_p z, z>^2,  g = 4, multiplicities (m, r-m-1).

Degree-3 family on R^(3m+2) for algebra dimension m in {1, 2, 4, 8}
(reals, complexes, quaternions, octonions), coordinates x = (u, v, X, Y, Z):
    F = u^3 - 3 u v^2 + (3/2) u (|X|^2 + |Y|^2 - 2|Z|^2)
        + (3 sqrt3 / 2) v (|X|^2 - |Y|^2) + 3 sqrt3 Re((X Y) Z),
    g = 3, multiplicities (m, m).

Each family has one evaluation path: the cubic's constant tensor T = D^3 F
(D^2 F = T.x, DF = T(x,x)/2, F = T(x,x,x)/6) or the quartic's stacked Clifford
generators, with the monomial oracle: F's coefficients written out on their
own, checked against the path at construction, differentiated on demand.
"""

from __future__ import annotations

import itertools

import numpy as np

from .clifford import (
    CliffordSystem,
    build_ozeki_takeuchi_system,
    build_standard_system,
)
from .errors import ConstructionError
from .monomials import MonomialForm, norm_square_form, quadratic_form
from .symmat import (
    SymmetricMatrix,
    elementary_symmetric,
    first_bad,
    rho_k,
    scalar_or_stack,
)

XCHECK_SEED = 20240817
XCHECK_POINTS = 100
XCHECK_TOL = 1e-10

CARTAN_ALGEBRA_DIMS = (1, 2, 4, 8)


def cd_conj(a):
    """Cayley-Dickson conjugate on R^1, R^2, R^4, R^8, along the last axis."""
    out = -np.asarray(a, dtype=float)
    out[..., 0] = -out[..., 0]
    return out


def cd_mult(a, b):
    """Cayley-Dickson product along the last axis (leading axes broadcast);
    doubling rule (a1,a2)(b1,b2) = (a1 b1 - conj(b2) a2, b2 a1 + a2 conj(b1))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a.shape[-1]
    if d == 1:
        return a * b
    h = d // 2
    a1, a2 = a[..., :h], a[..., h:]
    b1, b2 = b[..., :h], b[..., h:]
    return np.concatenate(
        [
            cd_mult(a1, b1) - cd_mult(cd_conj(b2), a2),
            cd_mult(b2, a1) + cd_mult(a2, cd_conj(b1)),
        ],
        axis=-1,
    )


def _cartan_products(m):
    """Structure constants of the m-dimensional Cayley-Dickson algebra:
    (a, b, c, sign) for every basis pair, with e_a e_b = sign * e_c."""
    basis = np.eye(m)
    prods = cd_mult(np.repeat(basis, m, axis=0), np.tile(basis, (m, 1)))
    cs = np.argmax(np.abs(prods), axis=1)
    signs = prods[np.arange(m * m), cs]
    return [
        (a, b, int(c), float(sign))
        for (a, b), c, sign in zip(itertools.product(range(m), repeat=2), cs, signs)
    ]


def _cartan_tensor(m, products):
    """Read-only third-derivative tensor D^3 F of the cubic, shape (d, d, d)."""
    d = 3 * m + 2
    s3 = np.sqrt(3.0)
    t = np.zeros((d, d, d))

    def put(i, j, k, value):
        for idx in itertools.permutations((i, j, k)):
            t[idx] = value

    put(0, 0, 0, 6.0)
    put(0, 1, 1, -6.0)
    for a in range(m):
        ix, iy, iz = 2 + a, 2 + m + a, 2 + 2 * m + a
        put(0, ix, ix, 3.0)
        put(0, iy, iy, 3.0)
        put(0, iz, iz, -6.0)
        put(1, ix, ix, 3.0 * s3)
        put(1, iy, iy, -3.0 * s3)
    # Re(e_c e_c') pairs c with itself: +1 for the real unit, -1 otherwise.
    for a, b, c, sign in products:
        pairing = 1.0 if c == 0 else -1.0
        put(2 + a, 2 + m + b, 2 + 2 * m + c, 3.0 * s3 * sign * pairing)
    t.flags.writeable = False
    return t


def _cartan_monomials(m, products):
    nvars = 3 * m + 2
    s3 = np.sqrt(3.0)

    def term(coeff, *pairs):
        expo = [0] * nvars
        for idx, e in pairs:
            expo[idx] += e
        return tuple(expo), coeff

    terms = [term(1.0, (0, 3)), term(-3.0, (0, 1), (1, 2))]
    for a in range(m):
        ix, iy, iz = 2 + a, 2 + m + a, 2 + 2 * m + a
        terms += [
            term(1.5, (0, 1), (ix, 2)),
            term(1.5, (0, 1), (iy, 2)),
            term(-3.0, (0, 1), (iz, 2)),
            term(1.5 * s3, (1, 1), (ix, 2)),
            term(-1.5 * s3, (1, 1), (iy, 2)),
        ]
    # Trilinear part: 3 sqrt3 Re((X Y) Z), with e_a e_b = sign * e_c.
    for a, b, c, sign in products:
        pairing = 1.0 if c == 0 else -1.0
        terms.append(
            term(
                3.0 * s3 * sign * pairing,
                (2 + a, 1), (2 + m + b, 1), (2 + 2 * m + c, 1),
            )
        )
    return MonomialForm(nvars, terms)


def _fkm_monomials(system: CliffordSystem):
    dim = system.dim
    sq = norm_square_form(dim)
    f = sq * sq
    for a in system.generators:
        q = quadratic_form(a)
        f = f - 2.0 * (q * q)
    return f


class IsoPolynomial:
    """One family member: its evaluation data (the cubic's tensor or the
    quartic's generator stack), with the monomial oracle cross-checked at
    construction.

    Immutable after construction. Fields: family ('fkm' | 'cartan'), g,
    m1, m2, ambient_dim, n = ambient_dim - 2, plus the family payload
    (Clifford system or algebra dimension).
    """

    def __init__(self, family, *, system=None, algebra_dim=None):
        if family == "fkm":
            if system is None:
                raise ConstructionError("fkm family needs a Clifford system")
            r = system.dim // 2
            m2 = r - system.m - 1
            if m2 <= 0:
                raise ConstructionError(
                    f"multiplicity r - m - 1 = {m2} must be positive "
                    f"(r = {r}, m = {system.m})"
                )
            self.g = 4
            self.m1 = system.m
            self.m2 = m2
            self.ambient_dim = system.dim
            self.system = system
            self.algebra_dim = None
            self._generators = np.stack(system.generators)
            self._generators.flags.writeable = False
            mono = _fkm_monomials(system)
        elif family == "cartan":
            if algebra_dim not in CARTAN_ALGEBRA_DIMS:
                raise ConstructionError(
                    f"algebra dimension must be one of {CARTAN_ALGEBRA_DIMS}, "
                    f"got {algebra_dim}"
                )
            self.g = 3
            self.m1 = self.m2 = algebra_dim
            self.ambient_dim = 3 * algebra_dim + 2
            self.system = None
            self.algebra_dim = algebra_dim
            products = _cartan_products(algebra_dim)
            self._tensor = _cartan_tensor(algebra_dim, products)
            mono = _cartan_monomials(algebra_dim, products)
        else:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.n = self.ambient_dim - 2
        self._mono = mono
        self._construction_check()

    def _construction_check(self):
        rng = np.random.default_rng(XCHECK_SEED)
        lams = rng.uniform(0.5, 2.0, size=XCHECK_POINTS)
        pts = rng.standard_normal((XCHECK_POINTS, self.ambient_dim))
        pts *= 1.5 / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
        closed = eval_F(self, pts)
        miss = _first_miss(closed, self._mono(pts))
        if miss is not None:
            i, dev = miss
            raise ConstructionError(
                f"closed and monomial forms disagree by {dev:.3e} (check point {i})"
            )
        target = lams**self.g * closed
        miss = _first_miss(target, eval_F(self, lams[:, None] * pts))
        if miss is not None:
            i, dev = miss
            raise ConstructionError(
                f"homogeneity violated by {dev:.3e} at lambda={lams[i]} "
                f"(check point {i})"
            )

    def __repr__(self):
        if self.family == "fkm":
            return (
                f"IsoPolynomial(fkm, dim={self.ambient_dim}, "
                f"m=({self.m1},{self.m2}), tag={self.system.tag})"
            )
        return f"IsoPolynomial(cartan, algebra_dim={self.algebra_dim})"


def _first_miss(reference, values):
    """(index, deviation) of the first check point where values leaves
    reference by more than XCHECK_TOL relative (a NaN misses too), or None."""
    dev = np.abs(values - reference)
    miss = ~(dev <= XCHECK_TOL * np.maximum(1.0, np.abs(reference)))
    if not miss.any():
        return None
    i = int(np.argmax(miss))
    return i, dev[i]


def make_cartan(m: int) -> IsoPolynomial:
    return IsoPolynomial("cartan", algebra_dim=m)


def make_fkm(m: int, r: int) -> IsoPolynomial:
    return IsoPolynomial("fkm", system=build_standard_system(m, r))


def make_ot(r: int) -> IsoPolynomial:
    return IsoPolynomial("fkm", system=build_ozeki_takeuchi_system(r))


def _check_point(P: IsoPolynomial, x):
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != P.ambient_dim:
        raise ValueError(
            f"point has shape {x.shape}, expected ({P.ambient_dim},) "
            f"or (N, {P.ambient_dim})"
        )
    return x


# Every kernel takes one point (d,) or a block of samples (N, d) through the
# same code: vectors enter matmul as (..., 1, d) rows or (..., d, 1) columns,
# so a row of a block is computed by exactly the BLAS calls that compute the
# single point, and agrees with it bit for bit.


def _dot(a, b):
    """<a, b> along the last axis."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _apply(m, v):
    """m v along the last axis of v, leading axes broadcast."""
    return (m @ v[..., :, None])[..., 0]


def point_norm(x):
    """|x| for one point or each row of a block, as np.linalg.norm(x)
    computes it for one point."""
    return scalar_or_stack(np.sqrt(_dot(x, x)))


def _apply_stack(stack, x):
    """stack . x for a (k, d, d) stack: the stack read as one (k d, d)
    matrix, so each sample is one gemv, shaped (..., k, d)."""
    k, d, _ = stack.shape
    return _apply(stack.reshape(k * d, d), x).reshape(x.shape[:-1] + (k, d))


def _fkm_parts(P: IsoPolynomial, x):
    """|x|^2, the generator images A_p x (..., p, d) and <A_p x, x> (..., p)."""
    az = _apply_stack(P._generators, x)
    return _dot(x, x), az, _apply(az, x)


def _contract(P: IsoPolynomial, x):
    """The one contraction of a block that F, DF and D^2F all read: the
    quartic's _fkm_parts, or the cubic's T.x = D^2F."""
    if P.family == "fkm":
        return _fkm_parts(P, x)
    return _apply_stack(P._tensor, x)


def _value(P: IsoPolynomial, x, parts):
    """F from the contraction: |x|^4 - 2 sum q_p^2, or x^T (T.x) x / 6."""
    if P.family == "fkm":
        z2, _, q = parts
        return scalar_or_stack(z2 * z2 - 2.0 * _dot(q, q))
    return scalar_or_stack(_dot((x[..., None, :] @ parts)[..., 0, :], x) / 6.0)


def _gradient(P: IsoPolynomial, x, parts) -> np.ndarray:
    """DF from the contraction: 4 (|x|^2 x - 2 sum q_p A_p x), or (T.x) x / 2."""
    if P.family == "fkm":
        z2, az, q = parts
        return 4.0 * (z2[..., None] * x - 2.0 * (q[..., None, :] @ az)[..., 0, :])
    return _apply(parts, x) / 2.0


def _hessian(P: IsoPolynomial, x, parts) -> SymmetricMatrix:
    """D^2F from the contraction, a SymmetricMatrix (stack)."""
    if P.family == "fkm":
        z2, az, q = parts
        dim = P.ambient_dim
        # 4 (|x|^2 I + 2 x x^T - (2 sum q_p A_p + (4 az^T) az)), built in
        # place with the same operations in the same order
        h = z2[..., None, None] * np.eye(dim)
        xx = x[..., :, None] * x[..., None, :]
        xx *= 2.0
        h += xx
        gens = P._generators.reshape(len(P._generators), dim * dim)
        qa = (q[..., None, :] @ gens).reshape(x.shape[:-1] + (dim, dim))
        qa *= 2.0
        qa += 4.0 * np.swapaxes(az, -2, -1) @ az
        h -= qa
        h *= 4.0
        return SymmetricMatrix(h)
    return SymmetricMatrix(parts)


def eval_F(P: IsoPolynomial, x):
    """Value of F at x: a float, or one value per row of an (N, d) block."""
    x = _check_point(P, x)
    return _value(P, x, _contract(P, x))


def eval_F_monomial(P: IsoPolynomial, x):
    """Monomial-form value of F; exact alternate route to eval_F."""
    return P._mono(_check_point(P, x))


def eval_grad(P: IsoPolynomial, x) -> np.ndarray:
    """Ambient gradient DF, shaped like x: from the generator stack for the
    quartic family, T(x, x)/2 for the cubic; eval_grad_monomial is the
    oracle."""
    x = _check_point(P, x)
    return _gradient(P, x, _contract(P, x))


def eval_grad_monomial(P: IsoPolynomial, x) -> np.ndarray:
    x = _check_point(P, x)
    return np.stack(
        [P._mono.partial(i)(x) for i in range(P.ambient_dim)], axis=-1
    )


def eval_hessian(P: IsoPolynomial, x) -> SymmetricMatrix:
    """Ambient Hessian D^2 F as a SymmetricMatrix, a (N, d, d) stack for a
    block of samples."""
    x = _check_point(P, x)
    return _hessian(P, x, _contract(P, x))


def eval_jet(P: IsoPolynomial, x):
    """(F, DF, D^2F) at x from one contraction of the point or block: each
    equals eval_F, eval_grad and eval_hessian at x bit for bit."""
    x = _check_point(P, x)
    parts = _contract(P, x)
    return _value(P, x, parts), _gradient(P, x, parts), _hessian(P, x, parts)


def eval_hessian_monomial(P: IsoPolynomial, x) -> SymmetricMatrix:
    x = _check_point(P, x)
    dim = P.ambient_dim
    h = np.zeros(x.shape[:-1] + (dim, dim))
    for i in range(dim):
        grad_form = P._mono.partial(i)
        for j in range(i, dim):
            h[..., i, j] = h[..., j, i] = grad_form.partial(j)(x)
    return SymmetricMatrix(h)


def gradient_profile(P: IsoPolynomial, f):
    """b(f) = g^2 (1 - f^2), the profile |grad f|^2 = b(f) of the spherical
    restriction f = F|_S at the level f (float or array)."""
    return P.g**2 * (1.0 - f * f)


def laplacian_profile(P: IsoPolynomial, f):
    """a(f) = (g^2/2)(m2 - m1) - g (n + g) f, the profile Delta f = a(f) of
    the spherical restriction at the level f (float or array)."""
    return 0.5 * P.g**2 * (P.m2 - P.m1) - P.g * (P.n + P.g) * f


def _nonzero_radius(x):
    radius = point_norm(x)
    bad = first_bad(np.asarray(radius) != 0.0)
    if bad is not None:
        raise ValueError(f"x must be nonzero{bad[1]}")
    return radius


def cm_residuals(P: IsoPolynomial, x):
    """Residuals of the two defining differential equations at ambient x:
    (|DF|^2 - g^2 |x|^(2g-2),  tr D^2F - (g^2/2)(m2 - m1) |x|^(g-2)),
    floats for one point, one value per row of an (N, d) block."""
    x = _check_point(P, x)
    radius = _nonzero_radius(x)
    _, grad, hess = eval_jet(P, x)
    g = P.g
    res_grad = _dot(grad, grad) - g * g * radius ** (2 * g - 2)
    res_lap = hess.trace() - 0.5 * g * g * (
        P.m2 - P.m1
    ) * radius ** (g - 2)
    return scalar_or_stack(res_grad), scalar_or_stack(res_lap)


def delta_k(P: IsoPolynomial, x, ks):
    """k-th elementary symmetric function of the ambient Hessian at x for
    every k in ks, from one Hessian and one eigensolve: a tuple with one
    entry per k, each a float or one value per row of an (N, d) block."""
    for k in ks:
        if not 1 <= k <= P.ambient_dim:
            raise ValueError(f"k = {k} out of range [1, {P.ambient_dim}]")
    sigma = elementary_symmetric(eval_hessian(P, x), max(ks))
    return tuple(scalar_or_stack(sigma[..., k]) for k in ks)


def _rho_closed(P: IsoPolynomial, F, r, k: int):
    """The homogenized closed form of rho_k(D^2 F), k in {2, 3, 4}."""
    g, n = float(P.g), float(P.n)
    dm = float(P.m2 - P.m1)
    if k == 2:
        return -(g**3 / 2.0) * (g - 2.0) * dm * F * r ** (g - 4) + g * g * (
            g - 1.0
        ) * (n + 2.0 * g - 2.0) * r ** (2 * g - 4)
    if k == 3:
        return (
            (g**4 / 4.0) * (g - 2.0) * (g - 4.0) * dm * F * F * r ** (g - 6)
            - n * g**3 * (g - 1.0) * (g - 2.0) * F * r ** (2 * g - 6)
            + (g**4 / 4.0) * (g * g - 2.0) * dm * r ** (3 * g - 6)
        )
    return (
        -(g**5 / 12.0) * (g - 2.0) * (g - 4.0) * (g - 6.0) * dm * F**3 * r ** (g - 8)
        + (2.0 * n / 3.0) * g**4 * (g - 1.0) * (g - 2.0) * (g - 3.0) * F * F
        * r ** (2 * g - 8)
        - (g**5 / 12.0) * (g - 2.0) * (5.0 * g * g - 2.0 * g - 12.0) * dm * F
        * r ** (3 * g - 8)
        + ((n / 3.0) * g**4 * (g - 1.0) * (g * g + g - 3.0)
           + 2.0 * g**4 * (g - 1.0) ** 4) * r ** (4 * g - 8)
    )


def hidden_rho_residual(P: IsoPolynomial, x, ks):
    """Residual of the closed form for rho_k(D^2 F) for every k in ks, each
    in {2, 3, 4}, from one jet: a tuple with one entry per k, each a float
    or one value per row of an (N, d) block.

    The k = 4 expression is stated for n >= 4; for smaller families it is
    evaluated exactly as written and the residual simply reported.
    """
    for k in ks:
        if k not in (2, 3, 4):
            raise ValueError(f"closed forms available for k in (2, 3, 4), got {k}")
    x = _check_point(P, x)
    r = _nonzero_radius(x)
    F, _, hess = eval_jet(P, x)
    return tuple(
        scalar_or_stack(rho - _rho_closed(P, F, r, k))
        for k, rho in zip(ks, rho_k(hess, ks))
    )
