"""gf.rref against sympy's DomainMatrix over GF(p), an independent route.

An RREF over a field is unique, so entries and pivot columns must agree
exactly.  sympy is an optional test dependency (the ``oracle`` extra).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filicoh import gf

GF = pytest.importorskip("sympy").GF
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


@st.composite
def matrices_mod_p(draw):
    """A random matrix over GF(p), possibly empty, with some rows and
    columns forced to zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries, dtype=np.int64).reshape(rows, cols)
    zeroed = st.sampled_from([False, False, False, True])
    m[draw(st.lists(zeroed, min_size=rows, max_size=rows))] = 0
    m[:, draw(st.lists(zeroed, min_size=cols, max_size=cols))] = 0
    return m, p


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
def test_rref_matches_sympy(case):
    m, p = case
    r, pivots = gf.rref(m, p)
    want_r, want_pivots = sympy_rref(m, p)
    assert pivots == want_pivots
    assert (r == want_r).all()
