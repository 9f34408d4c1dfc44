"""Cochain arithmetic and the differentials, checked against closed forms."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filicoh import cochains, liealg
from filicoh.cochains import Cochain, dual_cochain
from helpers import (
    cochain_from_vector,
    coefficient,
    extend_ordinary,
    homogeneous_weight,
    make_m2,
    mat_mul,
    random_element,
    to_vector,
)

PRIMES = [3, 5, 7, 11, 13]


def test_key_normalization_sorts_with_sign():
    c = Cochain(5, 5, 2, {(3, 2): 1})
    assert c.coeffs == {(2, 3): 4}
    assert coefficient(c, (2, 3)) == 4
    assert coefficient(c, (3, 2)) == 1


def test_repeated_indices_vanish():
    assert Cochain(5, 5, 2, {(2, 2): 3}).is_zero()
    assert Cochain(5, 5, 3, {(1, 2, 1): 3}).is_zero()
    assert coefficient(dual_cochain(5, 5, (1, 2)), (1, 1)) == 0


def test_three_index_normalization():
    c = Cochain(7, 7, 3, {(3, 1, 2): 2})
    # (3,1,2) -> (1,2,3) is an even permutation.
    assert c.coeffs == {(1, 2, 3): 2}
    c2 = Cochain(7, 7, 3, {(2, 1, 3): 2})
    assert c2.coeffs == {(1, 2, 3): 5}


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Cochain(5, 5, 2, {(1, 6): 1})
    with pytest.raises(ValueError):
        Cochain(5, 5, 2, {(1, 2, 3): 1})


def test_evaluate_degree_two():
    c = dual_cochain(5, 5, (1, 3))
    e1 = [1, 0, 0, 0, 0]
    e3 = [0, 0, 1, 0, 0]
    assert c.evaluate(e1, e3) == 1
    assert c.evaluate(e3, e1) == 4
    assert c.evaluate(e1, e1) == 0
    assert c.evaluate([2, 0, 0, 0, 0], [0, 0, 3, 0, 0]) == 1  # 2*3 = 6 = 1 mod 5


def test_evaluate_degree_three_determinant():
    c = dual_cochain(5, 5, (1, 2, 3))
    u = [1, 1, 0, 0, 0]
    v = [0, 1, 1, 0, 0]
    w = [1, 0, 1, 0, 0]
    # det [[1,1,0],[0,1,1],[1,0,1]] = 2
    assert c.evaluate(u, v, w) == 2


def test_vector_round_trip():
    c = Cochain(7, 7, 2, {(2, 5): 1, (3, 4): 6})
    back = cochain_from_vector(7, 7, 2, to_vector(c))
    assert back == c
    assert len(to_vector(c)) == 21


@settings(max_examples=100, derandomize=True)
@given(data=st.data(), degree=st.integers(1, 3), dim=st.integers(1, 9), p=st.sampled_from([2, 3, 7]))
def test_to_vector_matches_enumeration(data, degree, dim, p):
    # the cached position map places each coefficient where a walk over
    # index_tuples(dim, degree) puts it
    order = cochains.index_tuples(dim, degree)
    keys = data.draw(st.lists(st.sampled_from(order), max_size=8)) if order else []
    c = Cochain(p, dim, degree, {key: data.draw(st.integers(1, p - 1)) for key in keys})
    got = to_vector(c)
    assert got.dtype == np.int64
    assert got.tolist() == [c.coeffs.get(key, 0) for key in order]


def test_str_paper_notation():
    assert str(cochains.phi_k(7, 7)) == "e^{2,5} - e^{3,4}"
    assert str(cochains.phi_k(7, 9)) == "e^{2,7} - e^{3,6} + e^{4,5}"
    assert str(cochains.phi_k(3, 5)) == "e^{2,3}"
    assert str(Cochain(5, 5, 2)) == "0"
    assert str(dual_cochain(5, 5, (1, 5))) == "e^{1,5}"
    assert str(2 * dual_cochain(5, 5, (1, 5))) == "2 e^{1,5}"
    assert str(3 * dual_cochain(5, 5, (1, 5))) == "- 2 e^{1,5}"


@settings(max_examples=50, derandomize=True)
@given(data=st.data(), p=st.sampled_from([3, 5, 7]))
def test_evaluate_alternating_and_linear(data, p):
    pairs = cochains.index_tuples(p, 2)
    coeffs = {
        pair: data.draw(st.integers(0, p - 1), label=str(pair)) for pair in pairs[: p]
    }
    c = Cochain(p, p, 2, coeffs)
    vec = st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(np.array)
    u, v, w = data.draw(vec), data.draw(vec), data.draw(vec)
    a = data.draw(st.integers(0, p - 1))
    assert c.evaluate(u, v) == (-c.evaluate(v, u)) % p
    assert c.evaluate(u, u) == 0
    assert c.evaluate((a * u + v) % p, w) == (a * c.evaluate(u, w) + c.evaluate(v, w)) % p


@pytest.mark.parametrize("p", PRIMES)
def test_d1_matches_closed_form(p):
    A = liealg.make_m0(p)
    for k in range(1, p + 1):
        got = cochains.d1(A, dual_cochain(p, p, (k,)))
        assert got == cochains.d1_closed_m0(p, k), k


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_d1_kernel_weights(p):
    """d1 kills exactly e^1, e^2 among duals; d1(e^k) has pure weight k."""
    A = liealg.make_m0(p)
    for k in range(1, p + 1):
        image = cochains.d1(A, dual_cochain(p, p, (k,)))
        if k <= 2 or p == 2:
            assert image.is_zero()
        else:
            assert homogeneous_weight(image) == k


@pytest.mark.parametrize("p", PRIMES)
def test_d2_matches_corrected_closed_form(p):
    A = liealg.make_m0(p)
    for i, j in cochains.index_tuples(p, 2):
        got = cochains.d2(A, dual_cochain(p, p, (i, j)))
        assert got == cochains.d2_closed_m0_corrected(p, i, j), (i, j)


def test_d2_printed_variant_disagrees_at_seven():
    """The printed closed form maps e^{2,5} to e^{1,2,3}; the differential gives e^{1,2,4}."""
    p = 7
    A = liealg.make_m0(p)
    generic = cochains.d2(A, dual_cochain(p, p, (2, 5)))
    assert generic == Cochain(p, p, 3, {(1, 2, 4): 1})
    printed = cochains.d2_closed_m0_printed(p, 2, 5)
    assert printed == Cochain(p, p, 3, {(1, 2, 3): 1})
    assert printed != generic


def test_d2_printed_variant_agrees_at_three():
    p = 3
    A = liealg.make_m0(p)
    for i, j in cochains.index_tuples(p, 2):
        assert cochains.d2_closed_m0_printed(p, i, j) == cochains.d2(A, dual_cochain(p, p, (i, j)))


def _oracle_matrix(A, differential, degree):
    """Matrix of an evaluate-based differential, one dual cochain per column."""
    cols = [
        to_vector(differential(A, dual_cochain(A.prime, A.dim, key)))
        for key in cochains.index_tuples(A.dim, degree)
    ]
    return np.stack(cols, axis=1)


def _assert_matrices_match_oracle(A):
    for built, oracle in (
        (cochains.d1_matrix(A), _oracle_matrix(A, cochains.d1, 1)),
        (cochains.d2_matrix(A), _oracle_matrix(A, cochains.d2, 2)),
    ):
        assert built.shape == oracle.shape
        for col in range(oracle.shape[1]):
            assert (built[:, col] == oracle[:, col]).all(), f"column {col}"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_matrices_match_evaluate_oracle(p):
    _assert_matrices_match_oracle(liealg.make_m0(p))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_matrices_match_evaluate_oracle_on_extensions(p):
    # dim p+1, with brackets landing on the new central generator
    for k in cochains.phi_weights(p):
        E = extend_ordinary(liealg.make_m0(p), cochains.phi_k(p, k))
        _assert_matrices_match_oracle(E)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_differentials_on_m2_match_the_evaluate_oracles(p):
    # m_2(p): d2 has rows with three entries from p = 7 on, and ad(e_2)
    # is not zero, which no input built on make_m0 has
    A = make_m2(p)
    for degree, oracle in ((1, cochains.d1), (2, cochains.d2)):
        dense = _oracle_matrix(A, oracle, degree)
        targets = cochains.index_tuples(p, degree + 1)
        built = np.zeros_like(dense)
        for key, row in cochains.differential_rows(A, degree).items():
            assert row and all(0 < value < p for value in row.values())
            for col, value in row.items():
                built[targets.index(key), col] = value
        assert (built == dense).all()
        keys = cochains.index_tuples(p, degree)
        for col, key in enumerate(keys):
            assert (to_vector(cochains.differential(A, dual_cochain(p, p, key))) == dense[:, col]).all()
        c = _dense_cochain(A, degree)
        assert cochains.differential(A, c) == oracle(A, c)
    three = sum(len(row) == 3 for row in cochains.differential_rows(A, 2).values())
    assert three == p - 5


def _cochain_of(draw, A, degree):
    keys = cochains.index_tuples(A.dim, degree)
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return Cochain(A.prime, A.dim, degree, {key: draw(st.integers(1, A.prime - 1)) for key in chosen})


@st.composite
def algebras_and_cochains(draw):
    """Random brackets over GF(p), dim 1-8, not necessarily Lie: several
    constants may land on one e_k, and some draws have no brackets at all;
    with a random 1-cochain and 2-cochain over the algebra."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    dim = draw(st.integers(1, 8))
    coeffs = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    pairs = cochains.index_tuples(dim, 2)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    A = liealg.LieAlgebra(p, dim, {pair: draw(coeffs) for pair in chosen}, weights=[1] * dim)
    return A, _cochain_of(draw, A, 1), _cochain_of(draw, A, 2)


def _dense_cochain(A, degree):
    """A cochain with a nonzero coefficient on every index tuple."""
    keys = cochains.index_tuples(A.dim, degree)
    return Cochain(A.prime, A.dim, degree, {key: 1 + sum(key) % (A.prime - 1) for key in keys})


NO_BRACKETS = liealg.LieAlgebra(5, 4, {}, weights=[1] * 4)


def _on_phi_extensions_at_13(test):
    # make_m0(13) with [e_i, e_j] += phi_k(e_i, e_j) e_14, built without
    # extend_ordinary (which runs the route under test): every
    # term of phi_k lands on the one central k = 14
    A = liealg.make_m0(13)
    for k in cochains.phi_weights(13):
        phi = cochains.phi_k(13, k)
        brackets = {
            (i, j): np.append(A.bracket_basis(i, j), coefficient(phi, (i, j)))
            for i, j in cochains.index_tuples(13, 2)
        }
        E = liealg.LieAlgebra(13, 14, brackets, weights=range(1, 15))
        test = example((E, _dense_cochain(E, 1), _dense_cochain(E, 2)))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(algebras_and_cochains())
@example((NO_BRACKETS, _dense_cochain(NO_BRACKETS, 1), _dense_cochain(NO_BRACKETS, 2)))
@_on_phi_extensions_at_13
def test_differential_matches_the_evaluate_oracles(drawn):
    A, c1, c2 = drawn
    assert cochains.differential(A, c1) == cochains.d1(A, c1)
    assert cochains.differential(A, c2) == cochains.d2(A, c2)


def test_differential_takes_one_or_two_cochains_over_the_algebra():
    A = liealg.make_m0(7)
    with pytest.raises(ValueError):
        cochains.differential(A, dual_cochain(7, 7, (1, 2, 3)))
    with pytest.raises(ValueError):
        cochains.differential(A, dual_cochain(7, 6, (1, 2)))
    with pytest.raises(ValueError):
        cochains.differential(A, dual_cochain(5, 7, (1, 2)))
    assert cochains.differential(A, Cochain(7, 7, 2)) == Cochain(7, 7, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_d2_after_d1_is_zero(p):
    A = liealg.make_m0(p)
    m = mat_mul(cochains.d2_matrix(A), cochains.d1_matrix(A), p)
    assert not m.any()


@pytest.mark.parametrize("p", [3, 7, 13])
def test_d2_of_zero_form_evaluates_nothing(p, monkeypatch):
    calls = []
    evaluate = Cochain.evaluate

    def counted(self, *vectors):
        calls.append(vectors)
        return evaluate(self, *vectors)

    monkeypatch.setattr(Cochain, "evaluate", counted)
    A = liealg.make_m0(p)
    out = cochains.d2(A, Cochain(p, p, 2))
    assert (out.degree, out.dim, out.prime) == (3, p, p)
    assert out.is_zero()
    assert not calls
    # a nonzero form still goes through evaluate
    cochains.d2(A, dual_cochain(p, p, (1, 2)))
    assert calls


@pytest.mark.parametrize("p", PRIMES)
def test_differentials_preserve_weight(p):
    A = liealg.make_m0(p)
    for i, j in cochains.index_tuples(p, 2):
        image = cochains.d2(A, dual_cochain(p, p, (i, j)))
        if not image.is_zero():
            assert homogeneous_weight(image) == i + j


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_k_structure(p):
    for k in cochains.phi_weights(p):
        phi = cochains.phi_k(p, k)
        assert homogeneous_weight(phi) == k
        assert homogeneous_weight(phi + dual_cochain(p, p, (1, 2))) is None
        expected_terms = {(i, k - i) for i in range(2, (k - 1) // 2 + 1)}
        assert set(phi.coeffs) == expected_terms
        for i in range(2, (k - 1) // 2 + 1):
            assert coefficient(phi, (i, k - i)) == pow(-1, i, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_k_are_cocycles(p):
    A = liealg.make_m0(p)
    for k in cochains.phi_weights(p):
        assert cochains.d2(A, cochains.phi_k(p, k)).is_zero(), k


def test_phi_k_domain_checked():
    with pytest.raises(ValueError):
        cochains.phi_k(7, 6)
    with pytest.raises(ValueError):
        cochains.phi_k(7, 11)
    with pytest.raises(ValueError):
        cochains.phi_k(7, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_d_coefficients_match_pointwise_evaluation(p):
    """The coefficient route and direct evaluation of the defining formula agree."""
    A = liealg.make_m0(p)
    rng = random.Random(31)
    pairs = cochains.index_tuples(p, 2)
    c2 = Cochain(p, p, 2, {pair: rng.randrange(p) for pair in pairs})
    image = cochains.d2(A, c2)
    for _ in range(20):
        u, v, w = (random_element(A, rng) for _ in range(3))
        direct = (
            c2.evaluate(A.bracket(u, v), w)
            - c2.evaluate(A.bracket(u, w), v)
            + c2.evaluate(A.bracket(v, w), u)
        ) % p
        assert image.evaluate(u, v, w) == direct
    c1 = Cochain(p, p, 1, {(k,): rng.randrange(p) for k in range(1, p + 1)})
    d1c = cochains.d1(A, c1)
    for _ in range(20):
        u, v = (random_element(A, rng) for _ in range(2))
        assert d1c.evaluate(u, v) == c1.evaluate(A.bracket(u, v))
