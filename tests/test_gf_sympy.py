"""gf.rref, and the reductions of d1, d2, d1* and d2* of the cohomology
route, against sympy's DomainMatrix over GF(p), an independent route.

An RREF over a field is unique, so entries and pivot columns must agree
exactly; the reduction of d keeps the pivots and the candidates d kills,
and a p-power key the kernel dimension and kill mask of d1* or d2*, all
compared with sympy's rref alone.  sympy is an optional test
dependency (the ``oracle`` extra).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from filicoh import cochains, cohomology as coh, gf, liealg, restricted
from helpers import d1_star_matrix, dense_d2_star, matrices_mod_p, to_vector

GF = pytest.importorskip("sympy").GF
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


def sympy_rref(m, p):
    K = GF(p)
    rows, cols = m.shape
    dm = DomainMatrix([[K(int(x)) for x in row] for row in m], (rows, cols), K)
    r, pivots = dm.rref()
    flat = [int(K.to_int(x)) % p for row in r.to_list() for x in row]
    return np.array(flat, dtype=np.int64).reshape(rows, cols), list(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices_mod_p())
@example((np.array([[0, 0, 0, 0], [0, 2, 0, 4], [0, 0, 0, 0], [0, 1, 0, 3]]), 5))
@example((np.array([[0, 0, 3, 1], [0, 0, 0, 2], [0, 0, 6, 5]]), 7))
def test_rref_matches_sympy(case):
    m, p = case
    r, pivots = gf.rref(m, p)
    want_r, want_pivots = sympy_rref(m, p)
    assert pivots == want_pivots
    assert (r == want_r).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduced_matches_sympy_rref_of_dense_stacks(p):
    # the reduction of d1 or d2 keeps the pivots of sympy's rref of d
    # alone; lambda = 0 and a one-hot lambda (the unit rows added) keep
    # its kernel dimension and the candidates it kills (on the columns of
    # d1 or d2) as sympy's rref of the dense stack
    A = liealg.make_m0(p)
    for lam in ((0,) * p, (1,) + (0,) * (p - 1)):
        R = restricted.Family(p, lam)
        for degree, d, dense in (
            (1, cochains.d1_matrix(A), d1_star_matrix(R)),
            (2, cochains.d2_matrix(A), dense_d2_star(R)),
        ):
            assert coh._reduced(p, degree).pivots == tuple(sympy_rref(d, p)[1])
            want, want_pivots = sympy_rref(dense, p)
            n = math.comb(p, degree)
            kernel_dim, killed = coh._kernel(p, degree, any(lam))
            assert kernel_dim == n - len(want_pivots)
            vectors = np.stack([to_vector(c) for c in coh._candidates(p, degree, False)[0]])
            want_killed = ~((want[:, :n] @ vectors.T) % p).any(axis=0)
            assert (killed == want_killed).all()
