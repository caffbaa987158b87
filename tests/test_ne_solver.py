"""Property tests of the normal-equation solver against a dense solve.

The matrices are random block-sparse Hermitian positive definite sums of
element Gram matrices, the shape of an assembled normal equation, with
random (x, y, component) sort keys on a coarse grid, so that the ordering
sees ties.  All four working dtypes.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from dlsfem.assembly import SparseSymmetric
from dlsfem.linalg import NotPositiveDefinite
from dlsfem.solve import _banded_cholesky_solve
from test_blockqr import DTYPES, PROPERTY, _random


@st.composite
def hpd_problems(draw, dtype):
    """(A, f, keys): A = positive diagonal + sum of P* P over random column
    sets, assembled in double and rounded to ``dtype``."""
    n = draw(st.integers(1, 40))
    nblocks = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = np.result_type(dtype, np.float64)
    a = np.diag(rng.uniform(0.1, 1.0, n)).astype(wide)
    for _ in range(nblocks):
        k = int(rng.integers(1, min(n, 8) + 1))
        cols = rng.choice(n, size=k, replace=False)
        p = _random(rng, (k + 2, k), wide)
        a[np.ix_(cols, cols)] += p.conj().T @ p
    a = 0.5 * (a + a.conj().T)
    keys = np.column_stack(
        [rng.integers(0, 5, n), rng.integers(0, 5, n), rng.integers(0, 2, n)]
    ).astype(float)
    return a.astype(dtype), _random(rng, n, dtype), keys


def _system(a):
    return SparseSymmetric(n=a.shape[0], matrix=scipy.sparse.csr_matrix(a))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_banded_cholesky_matches_dense_solve(dtype, data):
    a, f, keys = data.draw(hpd_problems(dtype))
    x = _banded_cholesky_solve(_system(a), f, keys)
    assert x.dtype == dtype
    wide = np.result_type(dtype, np.float64)
    ref = np.linalg.solve(a.astype(wide), f.astype(wide))
    # Cholesky forward error: a multiple of n u kappa(A)
    kappa = np.linalg.cond(a.astype(wide))
    bound = 10.0 * a.shape[0] * np.finfo(dtype).eps * kappa
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["indefinite", "zero column"]))
def test_property_nonpositive_pivot_raises(dtype, data, kind):
    a, f, keys = data.draw(hpd_problems(dtype))
    wide = np.result_type(dtype, np.float64)
    if kind == "indefinite":
        # lowest eigenvalue -lambda_max / 2, far beyond the round-off of a factorization
        lam = np.linalg.eigvalsh(a.astype(wide))
        a = (a.astype(wide) - (lam[0] + 0.5 * lam[-1]) * np.eye(a.shape[0])).astype(dtype)
    else:
        # a zero row and column: the pivot there is exactly zero
        j = data.draw(st.integers(0, a.shape[0] - 1))
        a[j, :] = 0.0
        a[:, j] = 0.0
    with pytest.raises(NotPositiveDefinite):
        _banded_cholesky_solve(_system(a), f, keys)
