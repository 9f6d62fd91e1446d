"""Clifford systems and complex structures: defining relations."""

import math

import numpy as np
import pytest

from isopar import clifford
from isopar.clifford import (
    J_BLOCK,
    J_LEFT,
    J_RIGHT,
    TAG_OZEKI_TAKEUCHI,
    TAG_STANDARD,
    CliffordSystem,
    build_complex_structure,
    build_ozeki_takeuchi_system,
    build_standard_system,
    verify_clifford,
)
from isopar.errors import ConstructionError


class TestStandardSystems:
    @pytest.mark.parametrize(
        "m,r",
        [(1, 2), (1, 3), (1, 5), (2, 2), (2, 4), (2, 6), (3, 4), (3, 8)],
    )
    def test_defining_relations(self, m, r):
        sys = build_standard_system(m, r)
        assert sys.tag == TAG_STANDARD
        assert sys.dim == 2 * r
        assert len(sys.generators) == m + 1
        assert verify_clifford(sys) < 1e-12

    def test_generators_are_exact_sign_matrices(self):
        sys = build_standard_system(2, 4)
        for a in sys.generators:
            vals = np.unique(np.abs(a))
            assert set(vals.tolist()) <= {0.0, 1.0}

    def test_m2_needs_even_r(self):
        with pytest.raises(ConstructionError, match="even"):
            build_standard_system(2, 3)

    def test_m3_needs_r_multiple_of_4(self):
        with pytest.raises(ConstructionError):
            build_standard_system(3, 6)

    def test_large_m_rejected(self):
        with pytest.raises(ConstructionError):
            build_standard_system(4, 8)

    def test_generators_immutable(self):
        sys = build_standard_system(1, 2)
        with pytest.raises(ValueError):
            sys.generators[0][0, 0] = 2.0


class TestOzekiTakeuchiSystems:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_defining_relations(self, r):
        sys = build_ozeki_takeuchi_system(r)
        assert sys.tag == TAG_OZEKI_TAKEUCHI
        assert sys.dim == 8 * r + 8
        assert len(sys.generators) == 4
        assert verify_clifford(sys) < 1e-12

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ConstructionError):
            build_ozeki_takeuchi_system(0)


class TestVerifyClifford:
    def test_detects_corruption(self):
        sys = build_standard_system(2, 4)
        gens = [a.copy() for a in sys.generators]
        gens[1][0, 1] += 1e-3
        corrupted = CliffordSystem(m=2, dim=8, generators=tuple(gens), tag=TAG_STANDARD)
        assert verify_clifford(corrupted) >= 1e-3

    def test_empty_input(self):
        with pytest.raises(ValueError):
            verify_clifford(CliffordSystem(m=0, dim=2, generators=(), tag=TAG_STANDARD))

    def test_nan_generator_is_not_a_zero_residual(self):
        gens = (np.eye(4), np.full((4, 4), np.nan))
        system = CliffordSystem(m=1, dim=4, generators=gens, tag=TAG_STANDARD)
        assert math.isnan(verify_clifford(system))

    def test_validation_rejects_nan_generators(self):
        gens = (np.eye(4), np.full((4, 4), np.nan))
        system = CliffordSystem(m=1, dim=4, generators=gens, tag=TAG_STANDARD)
        with pytest.raises(ConstructionError, match="max residual nan"):
            clifford._validated(system)


class TestComplexStructures:
    @pytest.mark.parametrize(
        "tag,dim",
        [(J_BLOCK, 8), (J_BLOCK, 16), (J_RIGHT, 16), (J_LEFT, 16), (J_RIGHT, 8)],
    )
    def test_square_is_minus_identity(self, tag, dim):
        J = build_complex_structure(tag, dim)
        assert np.max(np.abs(J.matrix @ J.matrix + np.eye(dim))) < 1e-14
        assert np.max(np.abs(J.matrix + J.matrix.T)) < 1e-14

    def test_right_and_left_differ(self):
        a = build_complex_structure(J_RIGHT, 16).matrix
        b = build_complex_structure(J_LEFT, 16).matrix
        assert np.max(np.abs(a - b)) > 1.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ConstructionError):
            build_complex_structure(J_BLOCK, 7)

    def test_quaternion_structures_need_dim_multiple_of_4(self):
        with pytest.raises(ConstructionError):
            build_complex_structure(J_RIGHT, 6)

    def test_nan_block_rejected(self, monkeypatch):
        monkeypatch.setattr(clifford, "D0", np.full((4, 4), np.nan))
        with pytest.raises(ConstructionError, match="residual nan"):
            build_complex_structure(J_RIGHT, 8)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_complex_structure("nonsense", 8)
