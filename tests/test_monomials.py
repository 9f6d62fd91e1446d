"""Sparse monomial forms: evaluation, differentiation, algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isopar.monomials import MonomialForm, norm_square_form, quadratic_form

FD_H = 1e-5


def sample_form():
    # 2 x0^3 - x0 x1 x2 + 4 x2^2
    return MonomialForm(3, [((3, 0, 0), 2.0), ((1, 1, 1), -1.0), ((0, 0, 2), 4.0)])


def assert_batch_matches_rows(form, pts):
    # One (N, d) call against N calls on (d,) rows.
    batched = form(pts)
    assert batched.shape == (len(pts),)
    rows = [form(x) for x in pts]
    assert all(isinstance(value, float) for value in rows)
    np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=0.0)


def test_evaluation():
    f = sample_form()
    x = np.array([1.0, 2.0, -1.0])
    assert f(x) == pytest.approx(2.0 + 2.0 + 4.0)
    assert_batch_matches_rows(f, np.stack([x, -x, 0.5 * x, np.zeros(3)]))
    for bad in (np.ones(4), np.ones((2, 4)), np.ones((2, 2, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="points of shape"):
            f(bad)


def test_zero_terms_pruned():
    f = MonomialForm(2, [((1, 0), 1.0), ((1, 0), -1.0)])
    assert len(f) == 0
    assert f(np.array([3.0, 4.0])) == 0.0
    assert_batch_matches_rows(f, np.arange(8.0).reshape(4, 2))
    assert_batch_matches_rows(MonomialForm(2), np.arange(8.0).reshape(4, 2))


def test_partial_matches_finite_differences():
    f = sample_form()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = FD_H
            fd = (f(x + e) - f(x - e)) / (2.0 * FD_H)
            assert f.partial(i)(x) == pytest.approx(fd, abs=1e-7, rel=1e-7)
    pts = rng.uniform(-2.0, 2.0, (10, 3))
    for i in range(3):
        assert_batch_matches_rows(f.partial(i), pts)


def test_degree_and_len():
    f = sample_form()
    assert f.degree() == 3
    assert len(f) == 3


def test_algebra_against_pointwise():
    f = sample_form()
    g = norm_square_form(3)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 3)
        assert (f + g)(x) == pytest.approx(f(x) + g(x), rel=1e-12, abs=1e-12)
        assert (f - g)(x) == pytest.approx(f(x) - g(x), rel=1e-12, abs=1e-12)
        assert (f * 3.5)(x) == pytest.approx(3.5 * f(x), rel=1e-12)
        assert (f * g)(x) == pytest.approx(f(x) * g(x), rel=1e-11, abs=1e-11)
    pts = rng.uniform(-1.5, 1.5, (7, 3))
    for form in (f + g, f - g, f * 3.5, f * g, f - f):
        assert_batch_matches_rows(form, pts)


def test_quadratic_form_matches_bilinear():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2.0
    q = quadratic_form(a)
    for _ in range(8):
        x = rng.uniform(-2.0, 2.0, 4)
        assert q(x) == pytest.approx(float(x @ a @ x), rel=1e-12, abs=1e-12)
    assert_batch_matches_rows(q, rng.uniform(-2.0, 2.0, (8, 4)))


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_homogeneity(coords, lam):
    f = sample_form()
    x = np.array(coords)
    # every term of sample_form has total degree 3 except the x2^2 term,
    # so test with the homogeneous cubic part alone
    g = MonomialForm(3, [((3, 0, 0), 2.0), ((1, 1, 1), -1.0)])
    assert g(lam * x) == pytest.approx(lam**3 * g(x), rel=1e-9, abs=1e-9)


def test_norm_square_form():
    q = norm_square_form(5)
    x = np.arange(5, dtype=float)
    assert q(x) == pytest.approx(float(x @ x))


def test_bad_exponents_rejected():
    for bad in ((1,), (1, 0, 0), (-1, 2), (2**15, 0)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MonomialForm(2, [(bad, 1.0)])
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MonomialForm(2, [((1, 1), 1.0), ((0, -1), 2.0)])
    big = MonomialForm(2, [((2**15 - 1, 0), 1.0)])
    with pytest.raises(ValueError, match="product degree"):
        big * MonomialForm(2, [((1, 0), 1.0)])
