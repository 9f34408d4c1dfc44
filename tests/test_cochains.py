"""Cochain arithmetic and the differentials, checked against closed forms."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filicoh import cochains, extensions, gf, liealg
from filicoh.cochains import Cochain, dual_cochain

PRIMES = [3, 5, 7, 11, 13]


def test_key_normalization_sorts_with_sign():
    c = Cochain(5, 5, 2, {(3, 2): 1})
    assert c.coeffs == {(2, 3): 4}
    assert c.coefficient((2, 3)) == 4
    assert c.coefficient((3, 2)) == 1


def test_repeated_indices_vanish():
    assert Cochain(5, 5, 2, {(2, 2): 3}).is_zero()
    assert Cochain(5, 5, 3, {(1, 2, 1): 3}).is_zero()
    assert dual_cochain(5, 5, (1, 2)).coefficient((1, 1)) == 0


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
    back = Cochain.from_vector(7, 7, 2, c.to_vector())
    assert back == c
    assert len(c.to_vector()) == 21


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
            assert image.homogeneous_weight() == k


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
        differential(A, dual_cochain(A.prime, A.dim, key)).to_vector()
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_matrices_match_evaluate_oracle(p):
    _assert_matrices_match_oracle(liealg.make_m0(p))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_matrices_match_evaluate_oracle_on_extensions(p):
    # dim p+1, with brackets landing on the new central generator
    for k in cochains.phi_weights(p):
        E = extensions.extend_ordinary(liealg.make_m0(p), cochains.phi_k(p, k)).algebra
        _assert_matrices_match_oracle(E)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_d2_after_d1_is_zero(p):
    A = liealg.make_m0(p)
    m = gf.mat_mul(cochains.d2_matrix(A), cochains.d1_matrix(A), p)
    assert not m.any()


@pytest.mark.parametrize("p", PRIMES)
def test_differentials_preserve_weight(p):
    A = liealg.make_m0(p)
    for i, j in cochains.index_tuples(p, 2):
        image = cochains.d2(A, dual_cochain(p, p, (i, j)))
        if not image.is_zero():
            assert image.homogeneous_weight() == i + j


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_k_structure(p):
    for k in cochains.phi_weights(p):
        phi = cochains.phi_k(p, k)
        assert phi.homogeneous_weight() == k
        expected_terms = {(i, k - i) for i in range(2, (k - 1) // 2 + 1)}
        assert set(phi.coeffs) == expected_terms
        for i in range(2, (k - 1) // 2 + 1):
            assert phi.coefficient((i, k - i)) == pow(-1, i, p)


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
        u, v, w = (liealg.random_element(A, rng) for _ in range(3))
        direct = (
            c2.evaluate(A.bracket(u, v), w)
            - c2.evaluate(A.bracket(u, w), v)
            + c2.evaluate(A.bracket(v, w), u)
        ) % p
        assert image.evaluate(u, v, w) == direct
    c1 = Cochain(p, p, 1, {(k,): rng.randrange(p) for k in range(1, p + 1)})
    d1c = cochains.d1(A, c1)
    for _ in range(20):
        u, v = (liealg.random_element(A, rng) for _ in range(2))
        assert d1c.evaluate(u, v) == c1.evaluate(A.bracket(u, v))


def test_weight_decomposition_splits_and_recombines():
    p = 7
    c = dual_cochain(p, p, (1, 2)) + (3 * dual_cochain(p, p, (2, 5)))
    parts = c.weight_decomposition()
    assert set(parts) == {3, 7}
    total = Cochain(p, p, 2)
    for part in parts.values():
        total = total + part
    assert total == c
    assert c.homogeneous_weight() is None


def test_json_round_trip_preserves_cochain():
    c = Cochain(7, 7, 2, {(2, 1): 3, (4, 6): 9, (1, 3): 2})
    data = json.loads(json.dumps(c.to_json()))
    back = Cochain.from_json(data)
    assert back.prime == c.prime
    assert back.dim == c.dim
    assert back.degree == c.degree
    assert back.coeffs == c.coeffs


def test_json_terms_sorted_with_canonical_keys():
    c = Cochain(5, 5, 2, {(3, 1): 1, (1, 2): 4})
    assert c.to_json()["terms"] == [
        {"indices": [1, 2], "coefficient": 4},
        {"indices": [1, 3], "coefficient": 4},
    ]
