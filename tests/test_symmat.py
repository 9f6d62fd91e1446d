"""Symmetric-matrix kernel against independent oracles.

sigma_k is cross-checked against the principal-minor sum, the Vandermonde
solver against a dense solve. The eigensolver is LAPACK itself, so it is
held to the defining properties of its output: descending values,
A v = v w and orthonormal columns. Newton's identities are exercised as
round-trip properties.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isopar.errors import ConditioningError, IllPosedMomentsError, NonFiniteError
from isopar.symmat import (
    SymmetricMatrix,
    cluster_starts,
    eigensolve,
    eigh,
    newton_rho_from_sigma,
    newton_sigma_from_rho,
    rho_k,
    sigma_k,
    sigma_k_minor_sum,
    spectrum_from_moments,
    vandermonde_solve,
)


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * scale
    return SymmetricMatrix((a + a.T) / 2.0)


values_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestSymmetricMatrix:
    def test_symmetrizes_roundoff(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        m = SymmetricMatrix(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_genuine_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_asymmetry_message(self):
        # the gate names the largest |a - a^T| entry, as abs would
        a = random_symmetric(5, 7).entries.copy()
        a[3, 1] -= 4.5e-3
        a[0, 2] += 2.25e-3
        skew = np.abs(a - a.T).max()
        with pytest.raises(ValueError) as err:
            SymmetricMatrix(a)
        assert str(err.value) == f"matrix is not symmetric: max asymmetry {skew:.3e}"
        stack = random_stack(3, 5, 8)
        stack[2, 4, 0] += 3e-4
        skew = np.abs(stack[2] - stack[2].T).max()
        with pytest.raises(ValueError) as err:
            SymmetricMatrix(stack)
        assert str(err.value) == (
            f"matrix is not symmetric: max asymmetry {skew:.3e} (sample 2)"
        )

    def test_non_finite_entry_rejected(self):
        # a NaN, or an infinity even with an equal partner, fails the gate
        # by name, in the first bad member of a stack; a finite asymmetric
        # member is still named by index
        with pytest.raises(ValueError, match=r"non-finite entry nan at \(0, 1\)"):
            SymmetricMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=r"non-finite entry inf at \(0, 1\)"):
            SymmetricMatrix(np.array([[1.0, np.inf], [2.0, 3.0]]))
        # an infinity with an equal partner raises with no warning on the way
        with warnings.catch_warnings(), pytest.raises(
            ValueError, match=r"non-finite entry -inf at \(0, 1\)"
        ):
            warnings.simplefilter("error")
            SymmetricMatrix(np.array([[1.0, -np.inf], [-np.inf, 3.0]]))
        stack = random_stack(3, 4, 9)
        stack[2, 1, 1] = np.nan
        with pytest.raises(
            ValueError, match=r"non-finite entry nan at \(1, 1\) \(sample 2\)$"
        ):
            SymmetricMatrix(stack)
        stack[1, 2, 0] += 1.0
        with pytest.raises(ValueError, match=r"not symmetric.*\(sample 1\)$"):
            SymmetricMatrix(stack)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_entries_frozen(self):
        m = random_symmetric(3, 0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_diagonalizes(self, n):
        m = random_symmetric(n, seed=n)
        w, v = eigh(m.entries)
        assert np.all(np.diff(w) <= 0.0)
        # v diagonalizes: columns are eigenvectors for the sorted values.
        assert np.max(np.abs(m.entries @ v - v * w)) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12

    def test_zero_matrix(self):
        w, _ = eigh(np.zeros((4, 4)))
        assert np.all(w == 0.0)

    def test_known_eigenvalues(self):
        m = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        w, _ = eigh(m.entries)
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)


def multiplicities(w):
    """Cluster sizes of descending eigenvalues w, read off cluster_starts."""
    edges = np.concatenate([[True], cluster_starts(w), [True]])
    return tuple(np.diff(np.flatnonzero(edges)).tolist())


class TestSpectrum:
    def test_clustering(self):
        # values 1e-9 apart fall into one cluster; each row of a stack on its own
        w = np.array([3.0, 1.0 + 1e-9, 1.0, -2.0])
        assert cluster_starts(w).tolist() == [True, False, True]
        assert multiplicities(w) == (1, 2, 1)
        stack = np.array([w, [3.0, 3.0, 1.0, 1.0 - 1e-3]])
        assert cluster_starts(stack).tolist() == [
            [True, False, True],
            [False, True, True],
        ]

    def test_descending_order(self):
        m = SymmetricMatrix(np.diag([0.5, -1.0, 2.0]))
        assert list(eigensolve(m)) == [2.0, 0.5, -1.0]
        rho = [0.5**k + (-1.0) ** k + 2.0**k for k in (1, 2, 3)]
        rec = spectrum_from_moments(rho, 3)
        assert np.all(np.diff(rec) < 0.0)
        assert np.max(np.abs(rec - [2.0, 0.5, -1.0])) < 1e-10


class TestSigmaRho:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (6, 2), (6, 4), (8, 5)])
    def test_sigma_vs_minor_sum(self, n, k):
        m = random_symmetric(n, seed=10 * n + k)
        lhs = sigma_k(m, k)
        rhs = sigma_k_minor_sum(m, k)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_sigma_edges(self):
        m = random_symmetric(4, seed=3)
        assert sigma_k(m, 0) == 1.0
        assert abs(sigma_k(m, 1) - m.trace()) < 1e-12
        assert abs(sigma_k(m, 4) - np.linalg.det(m.entries)) < 1e-10
        with pytest.raises(ValueError):
            sigma_k(m, 5)

    def test_rho_edges(self):
        m = random_symmetric(4, seed=4)
        rho0, rho1, rho2 = rho_k(m, (0, 1, 2))
        assert rho0 == 4.0
        assert abs(rho1 - m.trace()) < 1e-12
        assert abs(rho2 - np.sum(m.entries * m.entries)) < 1e-10
        with pytest.raises(ValueError):
            rho_k(m, (2, -1))

    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_ladder_matches_matrix_power(self, n):
        # every k <= 6, in any order, bit for bit against matrix_power, for
        # one matrix and for a stack
        stack = random_stack(4, n, 30 + n)
        for entries in (stack[0], stack):
            m = SymmetricMatrix(entries)
            for ks in ((0, 1, 2, 3, 4, 5, 6), (6, 3), (4, 2, 5), (3,)):
                for k, rho in zip(ks, rho_k(m, ks)):
                    power = np.linalg.matrix_power(m.entries, k)
                    expected = np.trace(power, axis1=-2, axis2=-1)
                    if k == 0:
                        expected = np.full(entries.shape[:-2], float(n))
                    assert np.array_equal(rho, expected), (n, ks, k)
                    assert np.shape(rho) == entries.shape[:-2]

    def test_rho_overflow_raises_non_finite_error(self):
        m = SymmetricMatrix(np.full((2, 2), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="rho_3"):
                rho_k(m, (3,))


def random_stack(count, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, n, n))
    return a + np.swapaxes(a, 1, 2)


class TestStacks:
    """A (N, n, n) stack goes through the same code as one matrix."""

    def test_one_asymmetric_member_raises(self):
        stack = random_stack(5, 4, 21)
        stack[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"not symmetric.*\(sample 3\)$"):
            SymmetricMatrix(stack)

    def test_gate_is_per_matrix(self):
        # Roundoff asymmetry in one member is judged against that member's
        # own scale, not the stack's largest entry.
        stack = random_stack(3, 4, 22)
        stack[0] *= 1e12
        stack[2, 1, 2] += 1e-6
        with pytest.raises(ValueError, match=r"\(sample 2\)$"):
            SymmetricMatrix(stack)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            SymmetricMatrix(np.zeros((3, 2, 4)))

    def test_entries_symmetrized_per_member(self):
        stack = random_stack(4, 3, 23)
        stack[:, 0, 1] += 1e-12
        m = SymmetricMatrix(stack)
        assert m.order == 3
        for member, entries in zip(stack, m.entries):
            assert np.array_equal(SymmetricMatrix(member).entries, entries)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6])
    def test_rho_and_sigma_per_matrix(self, k):
        stack = random_stack(7, 6, 24 + k)
        m = SymmetricMatrix(stack)
        members = [SymmetricMatrix(a) for a in stack]
        (rho,) = rho_k(m, (k,))
        sigma = sigma_k(m, k)
        assert rho.shape == sigma.shape == (7,)
        assert np.allclose(
            rho, [rho_k(a, (k,))[0] for a in members], rtol=1e-13, atol=1e-13
        )
        assert np.allclose(
            sigma, [sigma_k(a, k) for a in members], rtol=1e-13, atol=1e-13
        )
        assert np.allclose(m.trace(), [a.trace() for a in members], rtol=1e-13)

    def test_stacked_eigh_matches_members(self):
        stack = random_stack(4, 5, 25)
        w, v = eigh(stack)
        for a, wa, va in zip(stack, w, v):
            w1, v1 = eigh(a)
            assert np.allclose(wa, w1, rtol=1e-13, atol=1e-13)
            assert np.max(np.abs(a @ va - va * wa)) < 1e-10

    def test_one_non_finite_member_raises(self):
        stack = random_stack(3, 2, 26)
        stack[1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="rho_3"):
                rho_k(SymmetricMatrix(stack), (3,))


class TestNewton:
    @given(values_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_from_rho(self, values):
        n = len(values)
        rho = [float(sum(v**k for v in values)) for k in range(1, n + 1)]
        sigma = newton_sigma_from_rho(rho, n)
        back = newton_rho_from_sigma(sigma, n)
        scale = max(1.0, max(abs(r) for r in rho))
        assert max(abs(a - b) for a, b in zip(rho, back)) <= 1e-10 * scale

    @given(values_lists)
    @settings(max_examples=60, deadline=None)
    def test_sigma_matches_polynomial_expansion(self, values):
        # prod (x + v_i) has coefficients equal to the elementary symmetric
        # functions; numpy's convolution-based expansion is the oracle.
        n = len(values)
        rho = [float(sum(v**k for v in values)) for k in range(1, n + 1)]
        sigma = newton_sigma_from_rho(rho, n)
        coeffs = np.array([1.0])
        for v in values:
            coeffs = np.convolve(coeffs, np.array([1.0, v]))
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        assert max(abs(s - c) for s, c in zip(sigma, coeffs[1:])) <= 1e-8 * scale

    def test_length_validation(self):
        with pytest.raises(ValueError):
            newton_sigma_from_rho([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            newton_rho_from_sigma([], 3)


class TestSpectrumFromMoments:
    def test_simple_round_trip(self):
        values = np.array([3.0, 2.0, 1.0])
        rho = [float(np.sum(values**k)) for k in range(1, 4)]
        rec = spectrum_from_moments(rho, 3)
        assert np.max(np.abs(rec - values)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_random_round_trip(self, n):
        rng = np.random.default_rng(n)
        values = np.sort(rng.uniform(-3.0, 3.0, n))[::-1]
        rho = [float(np.sum(values**k)) for k in range(1, n + 1)]
        rec = spectrum_from_moments(rho, n)
        assert np.max(np.abs(rec - values)) < 1e-6

    def test_rejects_unrealizable_moments(self):
        # rho_1 = 0, rho_2 = -2 forces lambda^2 sum < 0: no real spectrum.
        with pytest.raises(IllPosedMomentsError):
            spectrum_from_moments([0.0, -2.0], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectrum_from_moments([1.0, 2.0], 3)


class TestVandermonde:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(20 + n)
        nodes = np.sort(rng.uniform(-2.0, 2.0, n))
        while np.any(np.diff(nodes) < 1e-3):
            nodes = np.sort(rng.uniform(-2.0, 2.0, n))
        weights = rng.uniform(-1.0, 1.0, n)
        moments = np.array(
            [float(np.sum(nodes**i * weights)) for i in range(n)]
        )
        got = vandermonde_solve(nodes, moments)
        ref = np.linalg.solve(np.vander(nodes, increasing=True).T, moments)
        assert np.max(np.abs(got - ref)) < 1e-9
        assert np.max(np.abs(got - weights)) < 1e-8

    def test_rejects_close_nodes(self):
        with pytest.raises(ConditioningError):
            vandermonde_solve([1.0, 1.0 + 1e-12], [1.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vandermonde_solve([1.0, 2.0], [1.0])


def test_eigensolve_returns_clustered_spectrum():
    m = SymmetricMatrix(np.diag([2.0, 2.0, -1.0]))
    w = eigensolve(m)
    assert multiplicities(w) == (2, 1)
    assert abs(w[0] - 2.0) < 1e-12
