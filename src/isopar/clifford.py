"""Symmetric Clifford systems and the complex structures paired with them.

A system is a tuple (A_0, ..., A_m) of symmetric orthogonal matrices on
R^(2r) with A_i A_j + A_j A_i = 2 delta_ij I. Two constructions are
provided: the block-standard one (diagonal/off-diagonal identity blocks plus
skew E-blocks for m = 2, 3) and the quaternion-block system on R^(8r+8)
with multiplicities (3, 4r).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConstructionError
from .symmat import max_abs

ENTRY_TOL = 1e-12  # constructions are exact sign matrices; violations are bugs

# Quaternion blocks on R^4 = H: D1, D2, D3 are left multiplication by i, j, k;
# D0 is right multiplication by i. D0 commutes with all three.
D0 = np.array(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
)
D1 = np.array(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
)
D2 = np.array(
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
)
D3 = np.array(
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
)
for _d in (D0, D1, D2, D3):
    _d.flags.writeable = False

TAG_STANDARD = "standard-block"
TAG_OZEKI_TAKEUCHI = "ozeki-takeuchi-34r"

J_BLOCK = "block-standard"
J_RIGHT = "right-mult-i"
J_LEFT = "left-mult-i"


class CliffordSystem(NamedTuple):
    """Generators (A_0..A_m) on R^dim with their construction tag."""

    m: int
    dim: int
    generators: tuple
    tag: str


class ComplexStructure(NamedTuple):
    """Orthogonal J with J^2 = -I on R^dim, tagged by construction."""

    dim: int
    matrix: np.ndarray
    tag: str


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def verify_clifford(system: CliffordSystem) -> float:
    """Largest residual of the defining relations: pairwise anticommutation
    |A_i A_j + A_j A_i| (i < j), symmetry |A_i - A_i^T| and orthogonality
    |A_i^2 - I|. A NaN anywhere is returned, not dropped."""
    gens = system.generators
    if not gens:
        raise ValueError("no generators given")
    eye = np.eye(system.dim)
    return max_abs(
        [a @ b + b @ a for i, a in enumerate(gens) for b in gens[i + 1 :]]
        + [a - a.T for a in gens]
        + [a @ a - eye for a in gens]
    )


def _validated(system: CliffordSystem) -> CliffordSystem:
    residual = verify_clifford(system)
    if not residual <= ENTRY_TOL:
        raise ConstructionError(
            f"system relations violated (max residual {residual:.3e})"
        )
    return system


def _skew_blocks(m, r):
    """The E-blocks entering A_2.., pairwise anticommuting with E^2 = -I."""
    if m == 2:
        if r % 2:
            raise ConstructionError(
                f"r = {r} must be even for m = 2 (one complex-structure block)"
            )
        half = r // 2
        z = np.zeros((half, half))
        eye = np.eye(half)
        return [np.block([[z, -eye], [eye, z]])]
    if m == 3:
        if r % 4:
            raise ConstructionError(
                f"r = {r} must be divisible by 4 for m = 3 "
                "(two anticommuting quaternion blocks)"
            )
        reps = np.eye(r // 4)
        return [np.kron(reps, D1), np.kron(reps, D2)]
    raise ConstructionError(
        f"standard blocks are implemented for m <= 3 only (got m = {m})"
    )


def build_standard_system(m: int, r: int) -> CliffordSystem:
    """Block-standard system on R^(2r): A_0 = diag(I, -I), A_1 = offdiag(I, I),
    A_j = offdiag(-E_j, E_j) for skew anticommuting E_j (m = 2, 3)."""
    if m < 1:
        raise ValueError(f"m = {m} must be >= 1")
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    eye = np.eye(r)
    z = np.zeros((r, r))
    gens = [np.block([[eye, z], [z, -eye]]), np.block([[z, eye], [eye, z]])]
    if m >= 2:
        for e in _skew_blocks(m, r):
            gens.append(np.block([[z, -e], [e, z]]))
    system = CliffordSystem(
        m=m, dim=2 * r, generators=tuple(_freeze(a) for a in gens), tag=TAG_STANDARD
    )
    return _validated(system)


def build_ozeki_takeuchi_system(r: int) -> CliffordSystem:
    """Quaternion-block system on R^(8r+8), four generators, multiplicities
    (3, 4r) for the associated quartic."""
    if r < 1:
        raise ConstructionError(f"r = {r} must be >= 1")
    k = 4 * r
    dim = 8 * r + 8
    half = dim // 2  # = 4r + 4
    a0 = np.zeros((dim, dim))
    a0[0:4, half : half + 4] = np.eye(4)
    a0[half : half + 4, 0:4] = np.eye(4)
    a0[4 : 4 + k, 4 : 4 + k] = np.eye(k)
    a0[half + 4 :, half + 4 :] = -np.eye(k)
    gens = [a0]
    z = np.zeros((half, half))
    for d in (D1, D2, D3):
        delta = np.kron(np.eye(r + 1), d)
        gens.append(np.block([[z, delta], [-delta, z]]))
    system = CliffordSystem(
        m=3, dim=dim, generators=tuple(_freeze(a) for a in gens), tag=TAG_OZEKI_TAKEUCHI
    )
    return _validated(system)


def build_complex_structure(tag: str, dim: int) -> ComplexStructure:
    """Orthogonal complex structure on R^dim for one of the known tags."""
    if dim < 2 or dim % 2:
        raise ConstructionError(f"dim = {dim} must be even and positive")
    if tag == J_BLOCK:
        half = dim // 2
        z = np.zeros((half, half))
        eye = np.eye(half)
        j = np.block([[z, -eye], [eye, z]])
    elif tag in (J_RIGHT, J_LEFT):
        if dim % 4:
            raise ConstructionError(
                f"dim = {dim} must be divisible by 4 for quaternion-block structures"
            )
        j = np.kron(np.eye(dim // 4), D0 if tag == J_RIGHT else D1)
    else:
        raise ValueError(f"unknown complex structure tag {tag!r}")
    residual = max_abs([j @ j + np.eye(dim), j + j.T])
    if not residual <= ENTRY_TOL:
        raise ConstructionError(f"J relations violated (residual {residual:.3e})")
    return ComplexStructure(dim=dim, matrix=_freeze(j), tag=tag)
