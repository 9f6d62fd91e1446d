"""Unit-sphere restriction of a family member.

Adapted frames and shape operators on regular level sets, the cotangent-shift
principal curvature spectrum, power sums of the level-set and ambient
Hessians as functions of the level parameter t (with their first-order
recurrences), and projection of a point to a prescribed level along its
normal great circle.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConditioningError, FocalPointError, IsoparError, ProjectionError
from .polyfam import (
    IsoPolynomial,
    eval_F,
    eval_grad,
    eval_hessian,
    eval_jet,
    gradient_profile,
    laplacian_profile,
    point_norm,
)
from .symmat import (
    SymmetricMatrix,
    eigensolve,
    first_bad,
    max_abs,
    rho_k,
    scalar_or_stack,
)

EPS_FOCAL = 1e-3  # levels with |f| > 1 - EPS_FOCAL count as focal
COMPLEX_STEP = 1e-20  # imaginary step of the complex-step t-derivative
MATCH_TOL = 1e-6
PROJECTION_TOL = 1e-10  # level and path gates of level_project
# Highest order k of the Q_k / rhobar_k recurrence checks and their table.
RECURRENCE_K_MAX = 6

# Samples per kernel call on every block path (verify-cm, verify-hidden,
# alpha-scan, spectrum): large enough to amortize the per-call overhead,
# small enough that the (block, d, d) Hessian and frame stacks stay a
# fraction of a megabyte.
SAMPLE_BLOCK = 16
_SAMPLE_PHRASE = re.compile(r"\(sample (\d+)\)")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# the mixing multipliers and the 32-bit word mask.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_chain(init, mult, count):
    """The first count + 1 values of hash_const *= mult from init, mod 2^32."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of a uint32 array (or int) with the hash
    constant before (xor) and after (mult) its multiplier step."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


# generate_state(4, uint64) reads the pool cyclically into 8 words.
_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 8)
_STATE_XOR = np.array(_STATE_CHAIN[:-1], dtype=np.uint64)
_STATE_MULT = np.array(_STATE_CHAIN[1:], dtype=np.uint64)


def _seed_pool(seed: int):
    """SeedSequence(seed, spawn_key=key)'s entropy pool before the first key
    word is mixed in, numpy's SeedSequence(seed).pool (numpy hashes missing
    seed words as zeros, as it pads them for a key), and the hash constant,
    moved on by 4 hashes per seed word, padded to the pool size."""
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * words, _MASK32 + 1) & _MASK32
    return np.random.SeedSequence(seed).pool, hash_const


class _SeedState:
    """One stream's generate_state(4, uint64), computed ahead, so PCG64
    seeds itself from it exactly as from the SeedSequence. seeded_streams
    registers it as a numpy ISeedSequence on use, so importing this module
    does not import numpy.random, which commands that draw no samples
    never load."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the PCG64 seed state (4 uint64 words) is held")
        return self.words


def seeded_streams(seed: int, keys):
    """One Generator per row of keys, (K, L) integers in [0, 2^32), in row
    order: the stream of np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=key)) bit for bit.

    SeedSequence's mixing of the key words and its generate_state(4, uint64)
    run for every key at once as uint32 array arithmetic (held in uint64 and
    masked) on the seed's pool, which numpy's SeedSequence(seed) supplies
    once for every key. The Generators are built as the returned iterator
    is read, so one at a time is alive in a loop over it."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be a (K, L) integer array, got {keys!r}")
    if not ((keys >= 0) & (keys <= _MASK32)).all():
        raise ValueError("stream key entries must lie in [0, 2^32)")
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    pool, hash_const = _seed_pool(seed)
    pool = np.tile(np.array(pool, dtype=np.uint64), (len(keys), 1))
    for column in keys.T.astype(np.uint64):
        # each key word is hashed once per pool word, the constant moving on
        chain = _hash_chain(hash_const, _MULT_A, _POOL_SIZE)
        hash_const = chain[-1]
        hashed = _hashmix(
            column[:, None],
            np.array(chain[:-1], dtype=np.uint64),
            np.array(chain[1:], dtype=np.uint64),
        )
        pool = _mix(pool, hashed)
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_SeedState(w))) for w in words)


def regular_sphere_points(P: IsoPolynomial, count: int, seed: int, f_bound=0.9):
    """Unit-sphere samples with |F| <= f_bound, redrawing per-index substreams
    (i, attempt) so the result is reproducible and independent of rejection
    counts. Each attempt round seeds every pending index's stream with one
    seeded_streams call, then normalises and gates the round with one
    point_norm and one eval_F."""
    pts = np.empty((count, P.ambient_dim))
    pending = np.arange(count)
    for attempt in range(64):
        if not pending.size:
            return pts
        keys = np.stack([pending, np.full_like(pending, attempt)], axis=1)
        for i, rng in zip(pending, seeded_streams(seed, keys)):
            pts[i] = rng.standard_normal(P.ambient_dim)
        rows = pts[pending]
        rows /= point_norm(rows)[:, None]
        pts[pending] = rows
        pending = pending[~(np.abs(eval_F(P, rows)) <= f_bound)]
    if pending.size:
        raise FocalPointError("could not draw a point away from the focal bands")
    return pts


def orthonormal_complement(vectors) -> np.ndarray:
    """Orthonormal rows spanning the complement of the given rows, (k, dim)
    in and (dim - k, dim) out, or a stack (..., k, dim) in and out.

    The trailing dim - k columns of the complete Householder QR of the k
    input columns (LAPACK, deterministic, one stacked call). Raises
    ConditioningError when the input rows of any member are rank-deficient
    (min |diag R| below 1e-8), naming the first such member and its gap.
    """
    v = np.asarray(vectors, dtype=float)
    k = v.shape[-2]
    q, r = np.linalg.qr(np.swapaxes(v, -2, -1), mode="complete")
    gaps = np.abs(np.diagonal(r, axis1=-2, axis2=-1)).min(axis=-1)
    bad = first_bad(gaps >= 1e-8)
    if bad is not None:
        raise ConditioningError(
            f"rank-deficient input rows: min |diag R| "
            f"{np.ravel(gaps)[bad[0]]:.3e}{bad[1]}"
        )
    return np.swapaxes(q[..., :, k:], -2, -1)


def _spherical_normal(P: IsoPolynomial, x, f, df):
    """|grad f| for the spherical gradient df - g f x of f = F|_S at unit x
    (Euler: DF.x = gF), and the level set's unit normal nu; x may be a block."""
    grad_sph = df - np.multiply(P.g, f)[..., None] * x
    grad_norm = point_norm(grad_sph)
    return grad_norm, grad_sph / np.asarray(grad_norm)[..., None]


@dataclass(frozen=True)
class SpherePointFrame:
    """Adapted data at a regular point x of the unit sphere, or a stack of
    frames at the rows of an (N, d) block (every field then gains the
    leading sample axis).

    df and d2f are the ambient DF and D^2F at x, evaluated once; every
    derived quantity reads them, and P, the family member, gives g, m1 and
    m2. nu is the level set's unit normal, the spherical gradient over its
    norm grad_norm. tangent_basis: n orthonormal rows spanning the level-set
    tangent space (orthogonal to x and to nu). hessian_sph is the spherical
    Hessian of f = F|_S in the frame (e_1..e_n, nu), order n+1, derived at
    construction; shape is the level-set shape operator, order n, derived
    and gated on first read.
    """

    point: np.ndarray
    f: float
    df: np.ndarray
    d2f: np.ndarray
    grad_norm: float
    nu: np.ndarray
    tangent_basis: np.ndarray
    P: IsoPolynomial
    hessian_sph: SymmetricMatrix = field(init=False)
    # hessian_sph before symmetrisation, which shape is read from
    _hessian_raw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        raw = self.hessian_in(
            np.concatenate([self.tangent_basis, self.nu[..., None, :]], axis=-2)
        )
        object.__setattr__(self, "_hessian_raw", raw)
        object.__setattr__(self, "hessian_sph", SymmetricMatrix(raw))

    @cached_property
    def shape(self) -> SymmetricMatrix:
        """-hessian_sph[:n, :n] / grad_norm, read from the unsymmetrised
        Hessian and symmetry-gated on first read."""
        n = self.tangent_basis.shape[-2]
        return SymmetricMatrix(
            -self._hessian_raw[..., :n, :n] / _stacked(self.grad_norm)
        )

    def hessian_in(self, rows) -> np.ndarray:
        """Spherical Hessian of f on orthonormal rows tangent to the sphere
        at the point: rows D^2F rows^T - g f I."""
        k = rows.shape[-2]
        return rows @ self.d2f @ np.swapaxes(rows, -2, -1) - _stacked(
            np.multiply(self.P.g, self.f)
        ) * np.eye(k)


def _stacked(value):
    """A per-sample scalar (or a stack of them) shaped to scale matrices."""
    return np.asarray(value)[..., None, None]


def in_blocks(count: int, evaluate) -> tuple:
    """The columns of evaluate over range(count), SAMPLE_BLOCK consecutive
    samples at a time: evaluate(block) takes a slice of sample indices and
    returns a sequence of columns, each with one leading entry per sample of
    the block, and each column is joined along that axis over the blocks,
    in order (no column for count = 0).

    A gate names a failing row of its block as "(sample k)" (first_bad); the
    error is re-raised naming that row by its index in range(count)."""
    parts = []
    for start in range(0, count, SAMPLE_BLOCK):
        block = slice(start, min(start + SAMPLE_BLOCK, count))
        try:
            parts.append(evaluate(block))
        except (IsoparError, ValueError) as exc:
            exc.args = (
                _SAMPLE_PHRASE.sub(
                    lambda m: f"(sample {start + int(m[1])})", str(exc)
                ),
            )
            raise
    return tuple(map(np.concatenate, zip(*parts)))


def frame_at(P: IsoPolynomial, x) -> SpherePointFrame:
    """Build the adapted frame at a unit vector x on a regular level, or the
    frame stack at every row of an (N, d) block.

    F, DF and D^2F come from one eval_jet, so the block is contracted once;
    the Hopf layer reads the frame. Any non-unit or focal row raises,
    naming the row.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"point has shape {x.shape}, expected (d,) or (N, d)")
    bad = first_bad(np.abs(point_norm(x) - 1.0) <= 1e-12)
    if bad is not None:
        raise ValueError(f"x must lie on the unit sphere to 1e-12{bad[1]}")
    f, df, d2f = eval_jet(P, x)
    bad = first_bad(np.abs(f) <= 1.0 - EPS_FOCAL)
    if bad is not None:
        raise FocalPointError(
            f"level f = {np.ravel(f)[bad[0]]:.6f} is inside the focal band{bad[1]}"
        )
    grad_norm, nu = _spherical_normal(P, x, f, df)
    return SpherePointFrame(
        point=x,
        f=f,
        df=df,
        d2f=d2f.entries,
        grad_norm=grad_norm,
        nu=nu,
        tangent_basis=orthonormal_complement(np.stack([x, nu], axis=-2)),
        P=P,
    )


def cotangent_shift(g: int, m1: int, m2: int, t) -> tuple:
    """The cotangent-shift prediction at level t: the g principal curvatures
    cot(arccos(t)/g + i pi/g), i = 0..g-1, and their multiplicities
    (m1, m2, m1, ...). The curvatures descend for real t in (-1, 1), since
    cot decreases on (0, pi); t may be complex."""
    tau = np.arccos(t) / g
    curvatures = tuple(1.0 / np.tan(tau + i * np.pi / g) for i in range(g))
    return curvatures, tuple((m1, m2)[i % 2] for i in range(g))


def munzner_check(frame: SpherePointFrame):
    """Compare the shape spectrum of a frame, or of each frame of a stack,
    against the cotangent-shift prediction for its own (g, m1, m2).

    Returns (max_deviation, orientation_flipped, expected): a float, a bool
    and the n expected values, descending, for one frame, one of each per
    row for a stack. orientation_flipped marks a row that matches only
    after a global sign flip, so an orientation mismatch is told apart from
    a genuine failure.
    """
    P = frame.P
    curvatures, mult = cotangent_shift(P.g, P.m1, P.m2, frame.f)
    expected = np.repeat(np.stack(curvatures, axis=-1), mult, axis=-1)
    observed = eigensolve(frame.shape)
    dev = np.max(np.abs(observed - expected), axis=-1)
    flipped = np.sort(-expected, axis=-1)[..., ::-1]
    dev_flipped = np.max(np.abs(observed - flipped), axis=-1)
    orientation_flipped = ~(dev <= MATCH_TOL) & (dev_flipped <= MATCH_TOL)
    return scalar_or_stack(dev), orientation_flipped, expected


def munzner_q1_closed(g: int, m1: int, m2: int, t: float) -> float:
    """Closed form of Q_1 used as the recurrence seed."""
    return 0.5 * m1 * g * np.sqrt((1.0 + t) / (1.0 - t)) - 0.5 * m2 * g * np.sqrt(
        (1.0 - t) / (1.0 + t)
    )


def level_power_sums(g: int, m1: int, m2: int, t, k_max: int) -> tuple:
    """Power sums at every level of t, real or complex of any shape, for
    k = 0..k_max along a new last axis: (Q, rhobar).

    Q_k sums the k-th powers of the level-set principal curvatures, the m1
    branches first, then the m2 branches. rhobar_k sums those of the ambient
    Hessian eigenvalues on the level: the shifted curvatures
    -g sqrt(1 - t^2) lambda + g t, then the fixed pair +-g(g - 1). The
    powers are np.float_power, which calls libm's pow as a Python float's
    power does; np.power's vectorised loop rounds some values differently
    in the last bit.
    """
    t = np.asarray(t)
    ks = np.arange(k_max + 1)

    def powers(base):
        return np.float_power(np.expand_dims(base, -1), ks)

    curvatures, mult = cotangent_shift(g, m1, m2, t)
    # branches j, j + 2, ... share the multiplicity mult[j]
    q = sum(mult[j] * sum(map(powers, curvatures[j::2])) for j in (0, 1))
    stretch = g * np.sqrt(1.0 - t * t)
    rhobar = sum(
        m * powers(-stretch * lam + g * t) for lam, m in zip(curvatures, mult)
    )
    # the pair contributes 2 (g (g - 1))^k at even k and cancels at odd k
    return q, rhobar + 2.0 * (g * (g - 1)) ** ks * (1 - ks % 2)


def _sums_and_slopes(g: int, m1: int, m2: int, t, k_max: int) -> tuple:
    """level_power_sums at the real levels t to order k_max + 1, and the
    t-derivative of each table as Im sums(t + ih)/h (complex step, Squire &
    Trapp 1998): no difference is taken, so it is exact to roundoff."""
    stepped = level_power_sums(g, m1, m2, t + 1j * COMPLEX_STEP, k_max + 1)
    return (
        level_power_sums(g, m1, m2, t, k_max + 1),
        tuple(np.imag(table) / COMPLEX_STEP for table in stepped),
    )


def _recurrence_residual(sums, rhs) -> np.ndarray:
    """|lhs - rhs| for lhs = sums[..., k + 1] and its prediction rhs[..., k - 1],
    k = 1..K, relative to the size of its terms. An odd-order sum cancels to
    roundoff of terms far above 1 (at t = 0 when m1 = m2), so the scale is
    max(1, |lhs|, the next even-order sum); a NaN anywhere is kept."""
    k = np.arange(1, rhs.shape[-1] + 1)
    lhs = sums[..., k + 1]
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), sums[..., k + 2 - k % 2])
    return np.abs(lhs - rhs) / scale


def qk_recurrence_check(g: int, m1: int, m2: int, t_samples) -> float:
    """Worst relative residual of Q_{k+1} = (g/k) sqrt(1-t^2) dQ_k/dt - Q_{k-1},
    k < RECURRENCE_K_MAX, over the levels t_samples; dQ_k/dt by complex step."""
    k_max = RECURRENCE_K_MAX
    t = np.asarray(t_samples, dtype=float)
    outside = ~((-0.9 < t) & (t < 0.9))
    if outside.any():
        raise ValueError(f"t = {t[outside][0]} outside (-0.9, 0.9)")
    (q, _), (dq, _) = _sums_and_slopes(g, m1, m2, t, k_max)
    k = np.arange(1, k_max)
    rhs = (g / k) * np.sqrt(1.0 - t * t)[..., None] * dq[..., k] - q[..., k - 1]
    return max_abs(_recurrence_residual(q, rhs))


def rhobar_recurrence_check(P: IsoPolynomial, t_samples, seed: int) -> dict:
    """Check the ambient-Hessian power sums rhobar_k, k <= RECURRENCE_K_MAX,
    along levels two ways.

    Path (a) is the analytic eigenvalue-list formula (level_power_sums);
    path (b) evaluates rho_k of the actual Hessian at one seeded point
    projected to each level, SAMPLE_BLOCK levels per level_project,
    eval_hessian and rho_k call. The first-order recurrence in t, whose
    source term alternates with the parity of k, is checked on path (a)
    with a complex-step derivative. Returns the max-abs residuals by name:
    "recurrence" (relative), "path-agreement" (a vs b), "seed-zero"
    (|rhobar_0 - (n + 2)|) and "seed-one" (|rhobar_1 - (g^2/2)(m2 - m1)|).
    """
    g, m1, m2, k_max = P.g, P.m1, P.m2, RECURRENCE_K_MAX
    t = np.asarray(t_samples, dtype=float)
    ks = range(k_max + 1)
    x0 = regular_sphere_points(P, 1, seed)[0]
    levels = t.ravel()

    def hessian_sums(block):
        y = level_project(P, x0, levels[block])
        return (np.stack(rho_k(eval_hessian(P, y), ks), axis=-1),)

    # one joined (levels, k_max + 1) column, none for no levels
    rho = in_blocks(levels.size, hessian_sums)
    (_, rb), (_, drb) = _sums_and_slopes(g, m1, m2, t, k_max)
    k = np.arange(1, k_max)
    source = 2.0 * g ** (k + 1) * (g - 1) ** k * (g - 2.0)
    rhs = (
        -(g * g / k) * (1.0 - t * t)[..., None] * drb[..., k]
        - g * (g - 2.0) * t[..., None] * rb[..., k]
        + g * g * (g - 1.0) * rb[..., k - 1]
        + np.where(k % 2 == 1, source, source * t[..., None])
    )
    return {
        "recurrence": max_abs(_recurrence_residual(rb, rhs)),
        "path-agreement": max_abs(
            rb[..., : k_max + 1] - np.reshape(rho, t.shape + (k_max + 1,))
        ),
        "seed-zero": max_abs(rb[..., 0] - (P.n + 2.0)),
        "seed-one": max_abs(rb[..., 1] - 0.5 * g * g * (m2 - m1)),
    }


def landing_arc(tau0: float, t_target: float, g: int) -> float:
    """Arc s on the normal great circle where cos(g (tau0 - s)) = t_target,
    taken on the monotone branch g (tau0 - s) in (0, pi)."""
    return tau0 - np.arccos(t_target) / g


# bench/spans.py traces the arc step under this name.
brentq = landing_arc


def level_project(P: IsoPolynomial, x, t_target) -> np.ndarray:
    """Move x along its normal great circle to the level F = t_target and
    return the landed unit point, or land every row of an (N, d) block.
    t_target is one level, or an (N,) array of one level per row broadcast
    against the rows: one point x then lands on each of the N levels.

    F(cos s x + sin s nu) = cos(g (tau0 - s)) on the normal arc, so the
    landing arc is closed form. Both the landing level and, at 20
    intermediate arcs per row, the whole path are then verified through
    eval_F; either missing PROJECTION_TOL raises ProjectionError, naming
    the first failing row of a block. A focal target or start level raises
    FocalPointError, naming its row the same way.
    """
    x = np.asarray(x, dtype=float)
    t_target = np.asarray(t_target)
    bad = first_bad(np.abs(t_target) <= 1.0 - EPS_FOCAL)
    if bad is not None:
        raise FocalPointError(
            f"target level {np.ravel(t_target)[bad[0]]} is not a regular "
            f"level{bad[1]}"
        )
    f0 = eval_F(P, x)
    bad = first_bad(np.abs(f0) <= 1.0 - EPS_FOCAL)
    if bad is not None:
        raise FocalPointError(
            f"start level {np.ravel(f0)[bad[0]]:.6f} is not regular{bad[1]}"
        )
    _, nu = _spherical_normal(P, x, f0, eval_grad(P, x))
    tau0 = np.asarray(np.arccos(f0) / P.g)
    arc = np.asarray(landing_arc(tau0, t_target, P.g))
    y = np.cos(arc)[..., None] * x + np.sin(arc)[..., None] * nu
    y /= np.asarray(point_norm(y))[..., None]
    level_residual = np.abs(eval_F(P, y) - t_target)
    bad = first_bad(level_residual <= PROJECTION_TOL)
    if bad is not None:
        raise ProjectionError(
            f"projected level misses target by "
            f"{np.ravel(level_residual)[bad[0]]:.3e}{bad[1]}"
        )
    # One eval_F on the (N 20, d) arc stack; np.max, unlike the builtin max,
    # carries a NaN through to the gate.
    s = np.linspace(np.minimum(0.0, arc), np.maximum(0.0, arc), 20, axis=-1)
    arcs = np.cos(s)[..., None] * x[..., None, :]
    arcs += np.sin(s)[..., None] * nu[..., None, :]
    path = eval_F(P, arcs.reshape(-1, P.ambient_dim)) - np.ravel(
        np.cos(P.g * (tau0[..., None] - s))
    )
    path_residual = np.max(np.abs(path).reshape(s.shape), axis=-1)
    bad = first_bad(path_residual <= PROJECTION_TOL)
    if bad is not None:
        raise ProjectionError(
            f"normal arc leaves cos(g (tau0 - s)) by "
            f"{np.ravel(path_residual)[bad[0]]:.3e}{bad[1]}"
        )
    return y


def transnormal_residuals(P: IsoPolynomial, x):
    """Residuals of the spherical profile equations at unit x:
    (|grad f|^2 - b(f),  Delta f - a(f)), floats for one point, one value
    per row of an (N, d) block."""
    frame = frame_at(P, x)
    res_grad = np.asarray(frame.grad_norm) ** 2 - gradient_profile(frame.P, frame.f)
    res_lap = frame.hessian_sph.trace() - laplacian_profile(frame.P, frame.f)
    return scalar_or_stack(res_grad), scalar_or_stack(res_lap)


def recurrence_table(g, m1, m2, t_values):
    """Header and rows (t, Q_1..Q_kmax, rhobar_0..rhobar_kmax) for k_max =
    RECURRENCE_K_MAX, one row per level in t_values."""
    k_max = RECURRENCE_K_MAX
    header = (
        ["t"]
        + [f"Q{k}" for k in range(1, k_max + 1)]
        + [f"rhobar{k}" for k in range(0, k_max + 1)]
    )
    t = np.asarray(t_values, dtype=float)
    q, rhobar = level_power_sums(g, m1, m2, t, k_max)
    return header, np.column_stack([t, q[:, 1:], rhobar])
