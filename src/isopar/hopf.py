"""Circle-action invariants of the quartic family.

For a complex structure J commuting suitably with the Clifford system, F is
invariant under z -> cos(theta) z + sin(theta) J z. This module measures
that invariance, computes the quartic form Omega = DF^T J D^2F J DF (and
its closed form, one expression per supported (system, J) pair) and the
vertical curvature alpha it determines, compresses the shape operator off
the fibre direction J x, and decomposes J x over the curvature eigenspaces
by eigenprojection. Each quantity has one route here; the oracles it is
checked against live in the tests. Omega, alpha and the decomposition read
a frame or a frame stack. alpha_scan draws its sample points once, projects
them to each requested level, and frames them SAMPLE_BLOCK samples at a
time through spherelevel.in_blocks, which names a failing sample by its
index among all samples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .clifford import ComplexStructure, TAG_OZEKI_TAKEUCHI, TAG_STANDARD, J_BLOCK, J_LEFT, J_RIGHT
from .errors import InvarianceError, UnsupportedPairError
from .polyfam import IsoPolynomial, eval_F, point_norm
from .spherelevel import (
    SpherePointFrame,
    frame_at,
    in_blocks,
    level_project,
    orthonormal_complement,
    regular_sphere_points,
    seeded_streams,
)
from .symmat import CLUSTER_TOL, SymmetricMatrix, cluster_starts, eigh, scalar_or_stack

INVARIANCE_TOL = 1e-9
CONTEXT_CHECK_SAMPLES = 50
CONTEXT_CHECK_SEED = 911


def s1_invariance_residual(P: IsoPolynomial, J: ComplexStructure) -> float:
    """Max |F(cos t z + sin t Jz) - F(z)| over CONTEXT_CHECK_SAMPLES (z,
    theta) pairs seeded from CONTEXT_CHECK_SEED."""
    samples, seed = CONTEXT_CHECK_SAMPLES, CONTEXT_CHECK_SEED
    jm = J.matrix
    if jm.shape != (P.ambient_dim, P.ambient_dim):
        raise ValueError("J has the wrong dimension for this family")
    zs = np.empty((samples, P.ambient_dim))
    thetas = np.empty(samples)
    # pair i reads the stream of SeedSequence(seed, spawn_key=(i,))
    for i, rng in enumerate(seeded_streams(seed, np.arange(samples)[:, None])):
        zs[i] = rng.standard_normal(P.ambient_dim)
        thetas[i] = rng.uniform(0.0, 2.0 * np.pi)
    zs /= point_norm(zs)[:, None]
    jz = (jm @ zs[..., None])[..., 0]
    ws = np.cos(thetas)[:, None] * zs + np.sin(thetas)[:, None] * jz
    # Two eval_F calls over the whole sample; a NaN residual propagates.
    return float(np.max(np.abs(eval_F(P, ws) - eval_F(P, zs)), initial=0.0))


class HopfContext:
    """A family member paired with a complex structure it is invariant under.

    Construction verifies the circle invariance at CONTEXT_CHECK_SAMPLES
    seeded (z, theta) pairs and refuses non-invariant pairs.
    """

    def __init__(self, P: IsoPolynomial, J: ComplexStructure):
        if not isinstance(J, ComplexStructure):
            raise TypeError("J must be a ComplexStructure")
        if J.dim != P.ambient_dim:
            raise ValueError(
                f"dimension mismatch: family {P.ambient_dim}, J {J.dim}"
            )
        residual = s1_invariance_residual(P, J)
        if not residual <= INVARIANCE_TOL:
            raise InvarianceError(
                f"F is not invariant under this circle action "
                f"(residual {residual:.3e})"
            )
        self.P = P
        self.J = J


def omega_direct(ctx: HopfContext, frame: SpherePointFrame):
    """Omega = DF^T J D^2F J DF, from the raw derivatives the frame holds: a
    float, or one value per frame of a stack. DF enters as a (..., 1, d) row
    and J DF as a (..., d, 1) column, so a row of a stack goes through the
    BLAS calls of the single frame."""
    jm = ctx.J.matrix
    jdf = jm @ frame.df[..., :, None]
    omega = frame.df[..., None, :] @ jm @ frame.d2f @ jdf
    return scalar_or_stack(omega[..., 0, 0])


def omega_closed_form(ctx: HopfContext, x) -> float:
    """Closed form of Omega for the supported (system, J) pairs: the
    standard-block formula for the standard system with the block structure
    (any m), and one quaternion-block expression for each structure of the
    Ozeki-Takeuchi system. Unsupported combinations raise
    UnsupportedPairError.
    """
    P = ctx.P
    if P.family != "fkm" or P.system is None:
        raise UnsupportedPairError("closed forms exist for the quartic family only")
    system = P.system
    jm = ctx.J.matrix
    z = np.asarray(x, dtype=float)
    F = eval_F(P, z)
    qs = [float(z @ (a @ z)) for a in system.generators]
    if system.tag == TAG_STANDARD and ctx.J.tag == J_BLOCK:
        m = system.m
        acc = 2.0 * F * F - F - 2.0 + 8.0 * (1.0 + F) * (qs[0] ** 2 + qs[1] ** 2)
        for q in range(2, m + 1):
            inner = sum(
                qs[p] * float(z @ (system.generators[q] @ (jm @ (system.generators[p] @ z))))
                for p in range(2, m + 1)
            )
            acc += 16.0 * inner * inner
        return 64.0 * acc
    if system.tag == TAG_OZEKI_TAKEUCHI and ctx.J.tag == J_RIGHT:
        acc = 2.0 * F * F - F - 2.0
        for q in range(4):
            inner = sum(
                qs[p] * float((jm @ (system.generators[q] @ z)) @ (system.generators[p] @ z))
                for p in range(4)
            )
            acc += 16.0 * inner * inner
        return 64.0 * acc
    if system.tag == TAG_OZEKI_TAKEUCHI and ctx.J.tag == J_LEFT:
        a0, a1 = system.generators[0], system.generators[1]
        cross = float(z @ (a0 @ (jm @ (a1 @ z))))
        acc = (
            2.0 * F * F - F - 2.0
            + 8.0 * (1.0 + F) * (qs[2] ** 2 + qs[3] ** 2)
            + 16.0 * (qs[0] ** 2 + qs[1] ** 2) * cross * cross
        )
        return 64.0 * acc
    raise UnsupportedPairError(
        f"no closed form for ({system.tag}, {ctx.J.tag})"
    )


def alpha_at(ctx: HopfContext, frame: SpherePointFrame):
    """Vertical curvature alpha = <S Jnu, Jnu> at a frame on a regular level,
    and the Omega it is read from: floats, or one value each per frame of a
    stack.

    alpha = (g^3 F (3 - 2F^2) + Omega) / (g^3 (1 - F^2)^(3/2)). The power is
    np.float_power, which calls libm's pow as Python's float power does;
    np.power's vectorised loop rounds some values differently in the last
    bit.
    """
    F = frame.f
    g = float(ctx.P.g)
    omega = omega_direct(ctx, frame)
    alpha = (g**3 * F * (3.0 - 2.0 * F * F) + omega) / (
        g**3 * np.float_power(1.0 - F * F, 1.5)
    )
    return scalar_or_stack(alpha), omega


def _fibre_coords(ctx: HopfContext, frame: SpherePointFrame) -> np.ndarray:
    """Coordinates of the fibre direction J x in the frame's tangent basis,
    (..., n) for a frame stack."""
    jx = ctx.J.matrix @ frame.point[..., :, None]
    return (frame.tangent_basis @ jx)[..., 0]


def hopf_blocks(ctx: HopfContext, frame: SpherePointFrame) -> SymmetricMatrix:
    """S~ = B S B^T, the shape operator compressed to the tangent complement
    B of v = J x, in the frame's tangent basis."""
    if abs(float((ctx.J.matrix @ frame.point) @ frame.nu)) > 1e-8:
        raise InvarianceError(
            "J x is not tangent to the level set; frame is degenerate here"
        )
    rest = orthonormal_complement(_fibre_coords(ctx, frame)[None, :])
    return SymmetricMatrix(rest @ frame.shape.entries @ rest.T)


class HopfDecomposition(NamedTuple):
    """Weights of Jx over the curvature eigenspaces: Jx = sum phi_i eps_i,
    for a frame, or one row per frame of a stack.

    lambdas are the g distinct curvatures, descending, and phi_sq the
    squared weights by eigenprojection, (..., g); l counts weights above
    CLUSTER_TOL. Where the eigenvalues do not fall into g clusters, l is -1
    and lambdas and phi_sq are NaN.
    """

    lambdas: np.ndarray
    phi_sq: np.ndarray
    l: np.ndarray | int


def phi_decomposition(ctx: HopfContext, frame: SpherePointFrame) -> HopfDecomposition:
    w, vecs = eigh(frame.shape.entries)
    # each eigenvalue's cluster, and the (..., g, n) cluster membership
    cluster = np.zeros(w.shape, dtype=int)
    cluster[..., 1:] = np.cumsum(cluster_starts(w), axis=-1)
    member = cluster[..., None, :] == np.arange(ctx.P.g)[:, None]
    split = (cluster[..., -1] != ctx.P.g - 1)[..., None]
    # J x in the eigenbasis: V^T (J x coordinates)
    coords = (np.swapaxes(vecs, -2, -1) @ _fibre_coords(ctx, frame)[..., None])[..., 0]
    weights = np.sum(member * coords[..., None, :] ** 2, axis=-1)
    means = np.sum(member * w[..., None, :], axis=-1) / np.maximum(member.sum(-1), 1)
    phi_sq = np.where(split, np.nan, weights)
    l = np.where(split[..., 0], -1, np.count_nonzero(phi_sq > CLUSTER_TOL, axis=-1))
    return HopfDecomposition(
        lambdas=np.where(split, np.nan, means),
        phi_sq=phi_sq,
        l=l if l.ndim else int(l),
    )


def witness_points(ctx: HopfContext):
    """The two reference points on F = 0 where Omega takes the values +128
    and -128, or None for a (system, J) pair with none recorded. Recorded:
    the m = 2 standard system with the block structure, and the
    Ozeki-Takeuchi system with either quaternion structure."""
    system = ctx.P.system
    if system is None:
        return None
    dim = ctx.P.ambient_dim
    if system.tag == TAG_STANDARD and system.m == 2 and ctx.J.tag == J_BLOCK:
        r = dim // 2
        half = r // 2
        z_plus = np.zeros(dim)
        z_plus[0] = 1.0 / np.sqrt(2.0)
        z_plus[r] = 0.5
        z_plus[r + 1] = 0.5
        z_minus = np.zeros(dim)
        z_minus[0] = 1.0 / np.sqrt(2.0)
        z_minus[r + half] = 0.5
        z_minus[r + half + 1] = 0.5
        return z_plus, z_minus
    if system.tag == TAG_OZEKI_TAKEUCHI:
        half = dim // 2
        c_plus = 0.5 * np.sqrt(2.0 + np.sqrt(2.0))
        c_minus = 0.5 * np.sqrt(2.0 - np.sqrt(2.0))
        z_plus = np.zeros(dim)
        z_plus[0] = c_plus
        z_plus[half] = c_minus
        z_minus = np.zeros(dim)
        z_minus[0] = c_plus / np.sqrt(2.0)
        z_minus[half] = c_plus / np.sqrt(2.0)
        z_minus[half + 4] = c_minus
        return z_plus, z_minus
    return None


class AlphaSample(NamedTuple):
    """alpha_scan's columns, one entry per sample: index, level, alpha,
    Omega and the weight count l."""

    index: np.ndarray
    level: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    l: np.ndarray


def alpha_scan(ctx: HopfContext, levels, samples: int, seed: int):
    """alpha, Omega and the weight count l at `samples` points, drawn once
    and projected to each level in turn, then framed and decomposed
    SAMPLE_BLOCK rows at a time.

    Returns the AlphaSample columns, level by level, and one summary of
    alpha per level: its level, min, max, mean and std."""
    P = ctx.P
    pts = regular_sphere_points(P, samples, seed, f_bound=0.85)

    def scan(level):
        def evaluate(block):
            frames = frame_at(P, level_project(P, pts[block], level))
            return *alpha_at(ctx, frames), phi_decomposition(ctx, frames).l

        return in_blocks(samples, evaluate)

    scans = [scan(level) for level in levels]
    alpha, omega, l = map(np.concatenate, zip(*scans))
    columns = AlphaSample(
        index=np.tile(np.arange(samples), len(levels)),
        level=np.repeat(levels, samples),
        alpha=alpha,
        omega=omega,
        l=l,
    )
    summaries = [
        {
            "level": level,
            "min": float(a.min()),
            "max": float(a.max()),
            "mean": float(a.mean()),
            "std": float(a.std()),
        }
        for level, (a, _, _) in zip(levels, scans)
    ]
    return columns, summaries
