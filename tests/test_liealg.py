"""Lie algebra core: construction, brackets, grading, center, serialization."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filicoh import cochains, gf, liealg, restricted
from helpers import (
    algebra_from_json,
    center,
    dense_ad_matrix,
    dense_bracket,
    dense_structure,
    extend_ordinary,
    jacobi_check_triples,
    left_normed_bracket,
    make_m2,
    mat_pow,
    random_element,
)

PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", [2, 7])
def test_make_m0_is_shared_and_read_only(p):
    A = liealg.make_m0(p)
    assert liealg.make_m0(p) is A
    assert all(not vec.flags.writeable for vec in A.brackets.values())
    with pytest.raises(TypeError):
        A.brackets[(1, 2)] = A.zero()
    # a separately built copy still compares equal, and one that is not m_0 does not
    copy = liealg.LieAlgebra(p, p, {k: v.copy() for k, v in A.brackets.items()}, weights=A.weights)
    assert copy is not A and copy == A and A == copy
    assert liealg.LieAlgebra(p, p, {}, weights=[1] * p) != A
    # every family member shares make_m0(p)
    assert restricted.Family(p, (1,) * p).algebra is A


@pytest.mark.parametrize("p", PRIMES)
def test_make_m0_shape(p):
    A = liealg.make_m0(p)
    assert A.dim == p
    assert A.weights == tuple(range(1, p + 1))
    assert set(A.brackets) == {(1, i) for i in range(2, p)}
    for i in range(2, p):
        v = A.bracket_basis(1, i)
        assert v[i] == 1 and int(v.sum()) == 1


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_bracket_triples_are_the_triples_with_a_bracket(p):
    extended = extend_ordinary(liealg.make_m0(p), cochains.dual_cochain(p, p, (1, p)))
    for A in (liealg.make_m0(p), extended):
        want = tuple(
            (l, m, n)
            for l, m, n in cochains.index_tuples(A.dim, 3)
            if any(A.bracket_basis(i, j).any() for i, j in ((l, m), (l, n), (m, n)))
        )
        assert A.bracket_triples == want


def test_make_m0_rejects_composite():
    with pytest.raises(ValueError):
        liealg.make_m0(4)
    with pytest.raises(ValueError):
        liealg.make_m0(1)


def test_make_m0_2_is_abelian():
    A = liealg.make_m0(2)
    assert A.brackets == {}
    g = np.array([1, 1])
    assert not A.bracket(g, g).any()
    assert len(center(A)) == 2


def test_bracket_basis_antisymmetry_access():
    A = liealg.make_m0(5)
    assert A.bracket_basis(2, 1).tolist() == [0, 0, (-1) % 5, 0, 0]
    assert not A.bracket_basis(3, 3).any()
    assert not A.bracket_basis(2, 4).any()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_bracket_matches_closed_form_exhaustive_basis_pairs(p):
    A = liealg.make_m0(p)
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            g = A.basis_vector(i)
            h = A.basis_vector(j)
            assert (A.bracket(g, h) == liealg.bracket_closed_m0(p, g, h)).all()


@settings(max_examples=80, derandomize=True)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_bracket_matches_closed_form_random(data, p):
    """Structure-constant expansion agrees with the closed-form product."""
    A = liealg.make_m0(p)
    g = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p)))
    h = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p)))
    assert (A.bracket(g, h) == liealg.bracket_closed_m0(p, g, h)).all()


@settings(max_examples=60, derandomize=True)
@given(data=st.data(), p=st.sampled_from([3, 5, 7]))
def test_bracket_bilinear_antisymmetric(data, p):
    A = liealg.make_m0(p)
    vec = st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(np.array)
    g, h, f = data.draw(vec), data.draw(vec), data.draw(vec)
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    lhs = A.bracket((a * g + b * h) % p, f)
    rhs = (a * A.bracket(g, f) + b * A.bracket(h, f)) % p
    assert (lhs == rhs).all()
    assert (A.bracket(g, h) == (-A.bracket(h, g)) % p).all()
    assert not A.bracket(g, g).any()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_p_fold_left_normed_bracket_vanishes(p):
    """Any product of p basis factors is zero in the maximal-class algebra."""
    A = liealg.make_m0(p)
    rng = random.Random(7)
    for _ in range(30):
        elts = [random_element(A, rng) for _ in range(p)]
        assert not left_normed_bracket(A, elts).any()


def test_left_normed_chain_reaches_top():
    # [e_1, e_2, e_1, ..., e_1] with p - 3 trailing e_1 factors: each
    # bracketing with e_1 on the right flips sign and climbs one weight.
    p = 7
    A = liealg.make_m0(p)
    acc = A.bracket(A.basis_vector(1), A.basis_vector(2))
    assert acc.tolist() == [0, 0, 1, 0, 0, 0, 0]
    for step in range(p - 3):
        acc = A.bracket(acc, A.basis_vector(1))
    expected = gf.zeros(p)
    expected[p - 1] = pow(-1, p - 3, p)
    assert (acc == expected).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_ad_nilpotent_of_order_p(p):
    """(ad g)^p = 0 for every element of the maximal-class algebra."""
    A = liealg.make_m0(p)
    rng = random.Random(11)
    for _ in range(20):
        g = random_element(A, rng)
        m = liealg.ad_matrix(A, g)
        assert not mat_pow(m, p, p).any()


@pytest.mark.parametrize("p", PRIMES)
def test_ad_matrix_matches_bracket_columns(p):
    """ad(g) from the structure constants equals the bracket-built columns,
    on make_m0(p) and on its phi_k extensions, whose brackets land on c."""
    A = liealg.make_m0(p)
    algebras = [A] + [
        extend_ordinary(A, cochains.phi_k(p, k))
        for k in cochains.phi_weights(p)
    ]
    rng = random.Random(17 + p)
    for B in algebras:
        elements = [B.basis_vector(k) for k in range(1, B.dim + 1)]
        elements += [random_element(B, rng) for _ in range(5)]
        for g in elements:
            assert (liealg.ad_matrix(B, g) == dense_ad_matrix(B, g)).all()


def test_ad_matrix_of_e1():
    A = liealg.make_m0(5)
    m = liealg.ad_matrix(A, A.basis_vector(1))
    expected = gf.zeros((5, 5))
    for i in range(2, 5):
        expected[i, i - 1] = 1
    assert (m == expected).all()


@pytest.mark.parametrize("p", PRIMES)
def test_jacobi_holds(p):
    A = liealg.make_m0(p)
    ok, witness = liealg.jacobi_check(A)
    assert ok and witness is None


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_jacobi_holds_on_m2(p):
    # m_2 brackets through e_2 as well as e_1, so chains of two constants
    # meet on more triples than on make_m0(p)
    A = make_m2(p)
    assert liealg.jacobi_check(A) == jacobi_check_triples(A) == (True, None)


def test_jacobi_detects_violation():
    # Tamper: [e_2, e_3] = e_4 alongside [e_1, e_i] = e_{i+1} breaks Jacobi.
    p = 5
    A = liealg.make_m0(p)
    bad = dict(A.brackets)
    v = gf.zeros(p)
    v[3] = 1
    bad[(2, 3)] = v
    B = liealg.LieAlgebra(p, p, bad, weights=A.weights)
    ok, witness = liealg.jacobi_check(B)
    assert not ok
    assert witness == (1, 2, 3)


def random_structure_constants(rng, p, dim):
    """Sparse random brackets on dim basis vectors: Jacobi holds on some
    draws and fails on others."""
    brackets = {}
    for i, j in itertools.combinations(range(1, dim + 1), 2):
        if rng.random() < 0.3:
            brackets[(i, j)] = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(dim)]
    return liealg.LieAlgebra(p, dim, brackets, weights=range(1, dim + 1))


def test_jacobi_check_matches_triple_oracle_on_random_algebras():
    rng = random.Random(8)
    broken = 0
    for _ in range(600):
        A = random_structure_constants(rng, rng.choice([2, 3, 5, 7]), rng.randint(1, 6))
        got = liealg.jacobi_check(A)
        assert got == jacobi_check_triples(A), A.brackets
        broken += not got[0]
    assert 100 < broken < 500


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_jacobi_check_matches_triple_oracle_on_phi_extensions(p):
    A = liealg.make_m0(p)
    for k in cochains.phi_weights(p):
        E = extend_ordinary(A, cochains.phi_k(p, k))
        assert liealg.jacobi_check(E) == jacobi_check_triples(E) == (True, None)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_center_is_top_weight_line(p):
    A = liealg.make_m0(p)
    c = center(A)
    assert c.tolist() == [A.basis_vector(p).tolist()]


@pytest.mark.parametrize("p", PRIMES)
def test_json_round_trip(p):
    A = liealg.make_m0(p)
    data = liealg.to_json(A)
    B = algebra_from_json(data)
    assert A == B
    assert data["prime"] == p
    assert data["dim"] == p
    assert all(set(entry) == {"i", "j", "coeffs"} for entry in data["brackets"])


# ---------------------------------------------------------------------------
# row stacks and batches


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_bracket_and_ad_matrix_take_stacks(p):
    rng = random.Random(300 + p)
    A = extend_ordinary(liealg.make_m0(p), cochains.Cochain(p, p, 2))
    g = np.stack([random_element(A, rng) for _ in range(5)])
    h = np.stack([random_element(A, rng) for _ in range(5)])
    g[0] = 0
    assert (A.bracket(g, h) == np.stack([A.bracket(x, y) for x, y in zip(g, h)])).all()
    assert (liealg.ad_matrix(A, g) == np.stack([dense_ad_matrix(A, x) for x in g])).all()


def test_structure_is_read_only_and_antisymmetric():
    # the sparse constants are cached, read-only, and rebuild [e_i, e_j] for
    # every ordered pair, on m_0 and on an extension with several entries
    # per bracket
    p = 7
    A = liealg.make_m0(p)
    E = extend_ordinary(A, cochains.phi_k(p, 5))
    for B in (A, E):
        constants = B.constants
        assert B.constants is constants
        assert constants.dtype == np.int64 and constants.shape[1] == 4
        with pytest.raises(ValueError):
            constants[0, 3] = 1
        assert len(constants) == 2 * sum(int(v.astype(bool).sum()) for v in B.brackets.values())
        rebuilt = gf.zeros((B.dim, B.dim, B.dim))
        for i, j, k, c in constants.tolist():
            assert i != j and 0 < c < p
            rebuilt[i, j, k] += c
        for i, j in itertools.product(range(1, B.dim + 1), repeat=2):
            assert (rebuilt[i - 1, j - 1] == B.bracket_basis(i, j)).all()


@st.composite
def algebras_and_elements(draw):
    """Random brackets over GF(p), dim 1-8, not necessarily Lie: Jacobi may
    fail, several constants may land on one e_k, and some draws have no
    brackets at all; with a stack of rows and one vector."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    dim = draw(st.integers(1, 8))
    coeffs = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    pairs = list(itertools.combinations(range(1, dim + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    A = liealg.LieAlgebra(p, dim, {pair: draw(coeffs) for pair in chosen}, weights=[1] * dim)
    rows = draw(st.integers(0, 4))
    stack = np.array(draw(st.lists(coeffs, min_size=rows, max_size=rows)), dtype=np.int64)
    return A, stack.reshape(rows, dim), np.array(draw(coeffs), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(algebras_and_elements())
@example((liealg.LieAlgebra(5, 4, {}, weights=[1] * 4), np.arange(12).reshape(3, 4), np.arange(4)))
@example((liealg.make_m0(13), np.arange(26).reshape(2, 13), np.arange(13)[::-1].copy()))
def test_bracket_ad_matrix_and_center_match_the_dense_oracle(drawn):
    A, stack, vector = drawn
    assert (A.bracket(vector, vector[::-1]) == dense_bracket(A, vector, vector[::-1])).all()
    assert (A.bracket(stack, vector) == dense_bracket(A, stack, vector)).all()
    assert (A.bracket(vector, stack) == dense_bracket(A, vector, stack)).all()
    assert (A.bracket(stack, stack[::-1]) == dense_bracket(A, stack, stack[::-1])).all()
    assert A.bracket(stack, vector).shape == stack.shape
    assert (liealg.ad_matrix(A, vector) == dense_ad_matrix(A, vector)).all()
    assert (liealg.ad_matrix(A, stack) == dense_ad_matrix(A, stack)).all()
    assert liealg.ad_matrix(A, stack).shape == (len(stack), A.dim, A.dim)
    # row (j, k) of the center's equations is the e_k entry of [-, e_j]
    equations = dense_structure(A).transpose(2, 1, 0).reshape(-1, A.dim)
    want = gf.kernel_basis(equations, A.prime)
    assert center(A).shape == want.shape and (center(A) == want).all()


@pytest.mark.parametrize("cells", [1, 64, 1 << 12])
def test_jacobi_check_batches_find_the_first_failing_triple(cells):
    # one planted violation in a late pair, and on extensions a planted
    # bracket [e_5, e_9] = e_14 that only a few triples meet; each case
    # draws its own random algebras from random.Random(cells)
    p = 7
    A = liealg.make_m0(p)
    for pair, coeff in (((2, 3), 4), ((4, 6), 2), ((5, 6), 1)):
        bad = dict(A.brackets)
        v = gf.zeros(p)
        v[coeff] = 1
        bad[pair] = v
        B = liealg.LieAlgebra(p, p, bad, weights=A.weights)
        want = jacobi_check_triples(B)
        assert not want[0]
        assert liealg.jacobi_check(B) == want
    rng = random.Random(cells)
    for _ in range(100):
        C = random_structure_constants(rng, rng.choice([2, 3, 5]), rng.randint(1, 6))
        assert liealg.jacobi_check(C) == jacobi_check_triples(C)
    p = 13
    extended = [extend_ordinary(liealg.make_m0(p), cochains.phi_k(p, k))
                for k in cochains.phi_weights(p)]
    for E in extended:
        assert liealg.jacobi_check(E) == jacobi_check_triples(E) == (True, None)
    # the oracle stops at its first failing triple, so it stays cheap at p = 61
    extended.append(extend_ordinary(liealg.make_m0(61), cochains.phi_k(61, 7)))
    for E in extended:
        bad = dict(E.brackets)
        bad[(5, 9)] = E.basis_vector(14)
        B = liealg.LieAlgebra(E.prime, E.dim, bad, weights=E.weights)
        want = jacobi_check_triples(B)
        assert not want[0]
        assert liealg.jacobi_check(B) == want
