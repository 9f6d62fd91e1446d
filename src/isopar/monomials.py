"""Sparse multivariate polynomials with exact differentiation.

A form stores one row of exponents and one coefficient per term, with like
terms merged and zero terms dropped. This is the exact companion to every
closed-form evaluator: gradients and Hessians obtained by formal
differentiation carry no truncation error, so disagreements with a closed
form point at the closed form, not at the oracle.
"""

from __future__ import annotations

import numpy as np

EXPONENT_DTYPE = np.int16
MAX_EXPONENT = int(np.iinfo(EXPONENT_DTYPE).max)


def _merged(expo, coef):
    """Exponent rows and coefficients with like terms summed (in input order)
    and zero sums dropped; rows are compared as fixed-width byte keys."""
    expo = np.ascontiguousarray(expo, dtype=EXPONENT_DTYPE)
    coef = np.asarray(coef, dtype=float)
    keys = expo.view(np.dtype((np.void, expo.itemsize * expo.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    summed = np.bincount(inverse, weights=coef, minlength=len(first))
    keep = summed != 0.0
    return expo[first[keep]], summed[keep]


class MonomialForm:
    """Polynomial in `nvars` variables, built from (exponent tuple,
    coefficient) pairs; repeated exponents are summed."""

    def __init__(self, nvars, terms=()):
        self.nvars = int(nvars)
        terms = list(terms)
        rows = [self._checked(expo) for expo, _ in terms]
        self._expo, self._coef = _merged(
            np.array(rows, dtype=EXPONENT_DTYPE).reshape(len(rows), self.nvars),
            [coeff for _, coeff in terms],
        )
        self._factors = None

    @classmethod
    def _of(cls, nvars, expo, coef):
        """Form over rows that are already distinct, with nonzero coefficients."""
        out = cls.__new__(cls)
        out.nvars, out._expo, out._coef, out._factors = nvars, expo, coef, None
        return out

    def _checked(self, expo):
        expo = tuple(int(e) for e in expo)
        if len(expo) != self.nvars or any(not 0 <= e <= MAX_EXPONENT for e in expo):
            raise ValueError(f"bad exponent tuple {expo} for {self.nvars} variables")
        return expo

    def _compiled(self):
        """Each term as its variable indices with repeats, one row per term,
        padded with index nvars (a column of ones at evaluation): factor k
        of a term is the number of variables whose running exponent sum is
        at most k."""
        if self._factors is None:
            running = np.cumsum(self._expo, axis=1)
            slots = np.arange(max(1, self.degree()))
            self._factors = (running[:, None, :] <= slots[:, None]).sum(axis=2)
        return self._factors

    def __call__(self, x):
        """Value at one point, shape (d,) -> float, or at each row of an
        (N, d) array -> shape (N,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.nvars:
            raise ValueError(f"points of shape {x.shape} for {self.nvars} variables")
        pts = x.reshape(-1, self.nvars)
        factors = self._compiled()
        padded = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
        prod = padded[:, factors[:, 0]]
        for column in factors.T[1:]:
            prod *= padded[:, column]
        values = prod @ self._coef
        return float(values[0]) if x.ndim == 1 else values

    def partial(self, i):
        """Exact partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        power = self._expo[:, i]
        keep = power > 0
        lowered = self._expo[keep]
        lowered[:, i] -= 1
        return MonomialForm._of(self.nvars, lowered, self._coef[keep] * power[keep])

    def degree(self):
        return int(self._expo.sum(axis=1, dtype=np.intp).max(initial=0))

    def __len__(self):
        return len(self._coef)

    def __add__(self, other):
        return MonomialForm._of(
            self.nvars,
            *_merged(
                np.vstack([self._expo, other._expo]),
                np.concatenate([self._coef, other._coef]),
            ),
        )

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, other):
        if np.isscalar(other):
            return MonomialForm._of(self.nvars, *_merged(self._expo, self._coef * other))
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        if self.degree() + other.degree() > MAX_EXPONENT:
            raise ValueError(f"product degree exceeds {MAX_EXPONENT}")
        expo = self._expo[:, None, :] + other._expo[None, :, :]
        coef = np.outer(self._coef, other._coef)
        return MonomialForm._of(
            self.nvars, *_merged(expo.reshape(-1, self.nvars), coef.ravel())
        )

    __rmul__ = __mul__


def quadratic_form(matrix):
    """MonomialForm of x^T A x for a symmetric matrix A."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    i, j = np.triu_indices(n)
    rows = np.arange(len(i))
    expo = np.zeros((len(i), n), dtype=EXPONENT_DTYPE)
    expo[rows, i] += 1
    expo[rows, j] += 1
    coef = np.where(i == j, a[i, j], a[i, j] + a[j, i])
    return MonomialForm._of(n, *_merged(expo, coef))


def norm_square_form(n):
    """MonomialForm of |x|^2 on R^n."""
    return MonomialForm._of(n, 2 * np.eye(n, dtype=EXPONENT_DTYPE), np.ones(n))
