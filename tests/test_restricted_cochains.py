"""Restricted cochains: the omega/beta sum rules, induced maps, and d1*/d2*."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filicoh import cochains, gf, liealg, restricted
from filicoh import restricted_cochains as rc
from filicoh.cochains import Cochain, dual_cochain
from helpers import (
    cochain_from_vector,
    coefficient,
    d1_star,
    d2_star,
    doublestar_correction_naive,
    doublestar_eval_naive,
    few_positions_per_batch,
    ind1_at,
    ind2_at,
    ind2_family_closed,
    omega_arrays,
    pair_arrays,
    restricted_from_vector,
    star_correction_naive,
    star_eval_naive,
    to_vector,
)

SMALL_PRIMES = [3, 5, 7]


def rand_vec(rng, dim, p):
    return gf.normalize(rng.integers(0, p, size=dim), p)


def rand_cochain(rng, p, dim, degree):
    order = cochains.index_tuples(dim, degree)
    return cochain_from_vector(p, dim, degree, rng.integers(0, p, size=len(order)))


def rand_cocycle(rng, algebra):
    # random element of ker d2, built from a kernel basis of the d2 matrix
    p = algebra.prime
    ker = gf.kernel_basis(cochains.d2_matrix(algebra), p)
    combo = gf.normalize(rng.integers(0, p, size=ker.shape[0]) @ ker, p)
    return cochain_from_vector(p, algebra.dim, 2, combo)


def rand_lambda(rng, p):
    return tuple(int(x) for x in rng.integers(0, p, size=p))


# ---------------------------------------------------------------------------
# containers


def test_two_cochain_requires_degree_two():
    with pytest.raises(ValueError):
        rc.RestrictedTwoCochain(dual_cochain(5, 5, (1,)), (0,) * 5)


def test_two_cochain_omega_length_checked():
    with pytest.raises(ValueError):
        rc.RestrictedTwoCochain(dual_cochain(5, 5, (1, 2)), (0, 0, 0))


def test_two_cochain_vector_round_trip():
    rng = np.random.default_rng(7)
    p = 5
    phi = rand_cochain(rng, p, p, 2)
    c = rc.RestrictedTwoCochain(phi, tuple(rng.integers(0, p, size=p)))
    back = restricted_from_vector(p, p, to_vector(c))
    assert back == c


def test_two_cochain_str():
    assert str(rc.frobenius_dual_cochain(5, 5, 2)) == "(0, ebar^2)"
    assert str(rc.basis_pair_cochain(5, 5, 2, 3)) == "(e^{2,3}, 0)"
    mixed = rc.RestrictedTwoCochain(dual_cochain(7, 7, (1, 7)), (0, 1, 0, 0, 0, 0, 6))
    assert str(mixed) == "(e^{1,7}, ebar^2 - ebar^7)"


# ---------------------------------------------------------------------------
# omega evaluation


def test_star_eval_zero_vector():
    A = liealg.make_m0(5)
    c = rc.basis_pair_cochain(5, 5, 1, 5)
    assert rc.star_eval(A, omega_arrays(c), A.zero()) == 0


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_eval_scaled_basis_vector(p):
    # omega(a e_k) = a^p omega_k, no correction on single-term support
    rng = np.random.default_rng(p)
    A = liealg.make_m0(p)
    c = rc.RestrictedTwoCochain(rand_cochain(rng, p, p, 2), rand_lambda(rng, p))
    for k in range(1, p + 1):
        for a in (1, 2, p - 1):
            g = (a * A.basis_vector(k)) % p
            expected = (pow(a, p, p) * c.omega_basis[k - 1]) % p
            assert rc.star_eval(A, omega_arrays(c), g) == expected


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_frobenius_dual_acts_like_coordinate(p):
    # As a function (0, ebar^k) is the k-th coordinate, by Fermat; as an
    # object it stays a genuine pair with zero 2-form part.
    rng = np.random.default_rng(31 + p)
    A = liealg.make_m0(p)
    for k in range(1, p + 1):
        c = rc.frobenius_dual_cochain(p, p, k)
        assert c.phi.is_zero()
        for _ in range(5):
            g = rand_vec(rng, p, p)
            assert rc.star_eval(A, omega_arrays(c), g) == int(g[k - 1])


def test_star_eval_pure_pair_on_basis_vectors():
    A = liealg.make_m0(7)
    c = rc.basis_pair_cochain(7, 7, 2, 5)
    for k in range(1, 8):
        assert rc.star_eval(A, omega_arrays(c), A.basis_vector(k)) == 0


def test_star_eval_two_term_support_p3():
    # omega(e_1 + e_2) for (e^{2,3}, 0): only the (e_1, e_2, e_2) sequence
    # contributes, with bracket e_3 and unit divisor, giving phi(e_3, e_2) = 2.
    A = liealg.make_m0(3)
    c = rc.basis_pair_cochain(3, 3, 2, 3)
    g = (A.basis_vector(1) + A.basis_vector(2)) % 3
    assert rc.star_eval(A, omega_arrays(c), g) == 2


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_eval_frobenius_homogeneous(p):
    rng = np.random.default_rng(100 + p)
    A = liealg.make_m0(p)
    for _ in range(5):
        c = rc.RestrictedTwoCochain(rand_cochain(rng, p, p, 2), rand_lambda(rng, p))
        g = rand_vec(rng, p, p)
        base = rc.star_eval(A, omega_arrays(c), g)
        for a in range(p):
            scaled = rc.star_eval(A, omega_arrays(c), (a * g) % p)
            assert scaled == (pow(a, p, p) * base) % p


def star_eval_highest_first(algebra, c, g):
    """Alternate split order: peel the highest-index support term first."""
    p = algebra.prime
    g = gf.normalize(g, p)
    support = [k for k in range(len(g)) if g[k]]
    if not support:
        return 0
    if len(support) == 1:
        k = support[0]
        return (pow(int(g[k]), p, p) * c.omega_basis[k]) % p
    head = gf.zeros(len(g))
    head[support[-1]] = g[support[-1]]
    tail = g.copy()
    tail[support[-1]] = 0
    return (
        star_eval_highest_first(algebra, c, head)
        + star_eval_highest_first(algebra, c, tail)
        + rc.star_correction(algebra, rc.form_matrix(c.phi), head, tail)
    ) % p


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_eval_split_order_free_for_cocycles(p):
    rng = np.random.default_rng(200 + p)
    A = liealg.make_m0(p)
    for _ in range(6):
        c = rc.RestrictedTwoCochain(rand_cocycle(rng, A), rand_lambda(rng, p))
        g = rand_vec(rng, p, p)
        assert rc.star_eval(A, omega_arrays(c), g) == star_eval_highest_first(A, c, g)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_eval_naive_route_matches(p):
    rng = np.random.default_rng(300 + p)
    A = liealg.make_m0(p)
    for _ in range(3):
        c = rc.RestrictedTwoCochain(rand_cochain(rng, p, p, 2), rand_lambda(rng, p))
        g = rand_vec(rng, p, p)
        assert star_eval_naive(A, c, g) == rc.star_eval(A, omega_arrays(c), g)


# ---------------------------------------------------------------------------
# correction sums


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_star_correction_naive_matches_dp(p):
    rng = np.random.default_rng(400 + p)
    A = liealg.make_m0(p)
    trials = 12 if p <= 7 else 5
    for _ in range(trials):
        phi = rand_cochain(rng, p, p, 2)
        h1, h2 = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert star_correction_naive(A, phi, h1, h2) == rc.star_correction(
            A, rc.form_matrix(phi), h1, h2
        )


def test_star_correction_naive_matches_dp_p13():
    rng = np.random.default_rng(413)
    A = liealg.make_m0(13)
    for _ in range(2):
        phi = rand_cochain(rng, 13, 13, 2)
        h1, h2 = rand_vec(rng, 13, 13), rand_vec(rng, 13, 13)
        assert star_correction_naive(A, phi, h1, h2) == rc.star_correction(
            A, rc.form_matrix(phi), h1, h2
        )


def test_star_correction_p2_is_plain_pairing():
    A = liealg.make_m0(2)
    phi = dual_cochain(2, 2, (1, 2))
    h1, h2 = [1, 0], [1, 1]
    want = phi.evaluate(h1, h2)
    assert rc.star_correction(A, rc.form_matrix(phi), h1, h2) == want
    assert star_correction_naive(A, phi, h1, h2) == want


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_coboundary_corrections_vanish(p):
    # every term contains psi of a (p-1)- or p-fold bracket times a last slot;
    # d1(psi) evaluated there is psi of a p-fold bracket, which is zero
    rng = np.random.default_rng(500 + p)
    A = liealg.make_m0(p)
    for _ in range(6):
        psi = rand_cochain(rng, p, p, 1)
        h1, h2 = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert rc.star_correction(A, rc.form_matrix(cochains.d1(A, psi)), h1, h2) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_doublestar_correction_naive_matches_dp(p):
    rng = np.random.default_rng(600 + p)
    A = liealg.make_m0(p)
    trials = 10 if p <= 7 else 4
    for _ in range(trials):
        alpha = rand_cochain(rng, p, p, 3)
        g = rand_vec(rng, p, p)
        h1, h2 = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert doublestar_correction_naive(
            A, alpha, g, h1, h2
        ) == rc.doublestar_correction(A, alpha, g, h1, h2)


# ---------------------------------------------------------------------------
# the omega sum rule


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_rule_holds_for_induced_pairs(p):
    rng = np.random.default_rng(700 + p)
    lams = [(0,) * p, rand_lambda(rng, p), rand_lambda(rng, p)]
    for lam in lams:
        R = restricted.Family(p, lam)
        for _ in range(4):
            psi = rand_cochain(rng, p, p, 1)
            c = d1_star(R, psi)
            g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
            assert rc.star_rule(R.algebra, omega_arrays(c), g, h)[1]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_star_rule_holds_for_cocycle_pairs(p):
    # arbitrary omega values next to a cocycle 2-form part
    rng = np.random.default_rng(800 + p)
    A = liealg.make_m0(p)
    for _ in range(6):
        c = rc.RestrictedTwoCochain(rand_cocycle(rng, A), rand_lambda(rng, p))
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert rc.star_rule(A, omega_arrays(c), g, h)[1]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_star_rule_holds_for_zero_form_any_omega(p):
    rng = np.random.default_rng(900 + p)
    A = liealg.make_m0(p)
    for _ in range(4):
        c = rc.RestrictedTwoCochain(Cochain(p, p, 2), rand_lambda(rng, p))
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert rc.star_rule(A, omega_arrays(c), g, h)[1]


@pytest.mark.parametrize("p", [3, 5])
def test_star_rule_truth_value_ignores_omega_basis(p):
    # both sides shift by sum_k ((g+h)_k^p - g_k^p - h_k^p) omega_k = 0, so
    # whether the rule holds is decided by the 2-form part alone
    rng = np.random.default_rng(1000 + p)
    A = liealg.make_m0(p)
    for _ in range(8):
        phi = rand_cochain(rng, p, p, 2)
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        verdicts = {
            rc.star_rule(
                A, omega_arrays(rc.RestrictedTwoCochain(phi, rand_lambda(rng, p))), g, h
            )[1]
            for _ in range(3)
        }
        assert len(verdicts) == 1


def test_star_rule_detects_top_pair_tampering():
    # e^{3,5} is not a cocycle at p = 5; the rule must fail somewhere
    rng = np.random.default_rng(55)
    A = liealg.make_m0(5)
    c = rc.basis_pair_cochain(5, 5, 3, 5)
    failures = 0
    for _ in range(40):
        g, h = rand_vec(rng, 5, 5), rand_vec(rng, 5, 5)
        if not rc.star_rule(A, omega_arrays(c), g, h)[1]:
            failures += 1
    assert failures > 0


def test_corrupted_omega_caught_by_function_comparison():
    # tampering with the omega values of an induced pair never flips the sum
    # rule; comparing against the inducing function does expose it
    rng = np.random.default_rng(77)
    p = 5
    R = restricted.Family(p, (1, 2, 0, 3, 4))
    psi = dual_cochain(p, p, (p,))
    good = d1_star(R, psi)
    corrupt = rc.RestrictedTwoCochain(
        good.phi, ((good.omega_basis[0] + 1) % p,) + good.omega_basis[1:]
    )
    for _ in range(15):
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert rc.star_rule(R.algebra, omega_arrays(corrupt), g, h)[1]
    e1 = R.algebra.basis_vector(1)
    assert rc.star_eval(R.algebra, omega_arrays(corrupt), e1) != ind1_at(R, psi, e1)
    assert rc.star_eval(R.algebra, omega_arrays(good), e1) == ind1_at(R, psi, e1)


# ---------------------------------------------------------------------------
# induced omega and beta


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ind1_values_scale_lambda(p):
    # e_k^[p] = lam_k e_p, so the induced values are psi_p * lam_k
    rng = np.random.default_rng(1100 + p)
    for _ in range(4):
        lam = rand_lambda(rng, p)
        R = restricted.Family(p, lam)
        psi = rand_cochain(rng, p, p, 1)
        top = coefficient(psi, (p,))
        assert rc.ind1_values(R, psi).tolist() == [(top * lk) % p for lk in lam]


def test_ind1_values_p2():
    R = restricted.Family(2, (1, 1))
    assert rc.ind1_values(R, dual_cochain(2, 2, (2,))).tolist() == [1, 1]
    assert rc.ind1_values(R, dual_cochain(2, 2, (1,))).tolist() == [0, 0]


def test_ind1_values_trivial_family():
    R = restricted.Family(7, (0,) * 7)
    rng = np.random.default_rng(17)
    psi = rand_cochain(rng, 7, 7, 1)
    assert rc.ind1_values(R, psi).tolist() == [0] * 7


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ind1_at_closed_form(p):
    rng = np.random.default_rng(1200 + p)
    for _ in range(5):
        lam = rand_lambda(rng, p)
        R = restricted.Family(p, lam)
        psi = rand_cochain(rng, p, p, 1)
        g = rand_vec(rng, p, p)
        scale = sum(pow(int(g[k]), p, p) * lam[k] for k in range(p)) % p
        assert ind1_at(R, psi, g) == (scale * coefficient(psi, (p,))) % p


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_induced_omega_equals_inducing_function(p):
    # the recursion rebuilt from basis values lands back on psi(g^[p])
    rng = np.random.default_rng(1300 + p)
    for _ in range(4):
        R = restricted.Family(p, rand_lambda(rng, p))
        psi = rand_cochain(rng, p, p, 1)
        c = d1_star(R, psi)
        for _ in range(4):
            g = rand_vec(rng, p, p)
            assert rc.star_eval(R.algebra, omega_arrays(c), g) == ind1_at(R, psi, g)


def test_ind1_rejects_wrong_degree():
    R = restricted.Family(5, (0,) * 5)
    with pytest.raises(ValueError):
        rc.ind1_values(R, dual_cochain(5, 5, (1, 2)))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ind2_matrix_structure(p):
    # value on (e_i, e_j-power) is phi(e_i, e_p) * lam_j
    rng = np.random.default_rng(1400 + p)
    for _ in range(4):
        lam = rand_lambda(rng, p)
        R = restricted.Family(p, lam)
        phi = rand_cochain(rng, p, p, 2)
        out = rc.ind2_matrix(R, phi)
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                assert out[i - 1, j - 1] == (coefficient(phi, (i, p)) * lam[j - 1]) % p


def test_ind2_matrix_top_dual_rows():
    lam = (3, 1, 4, 1, 5, 2, 6)
    R = restricted.Family(7, lam)
    out = rc.ind2_matrix(R, dual_cochain(7, 7, (1, 7)))
    assert tuple(int(x) for x in out[0]) == lam
    assert not out[1:].any()


def test_ind2_matrix_trivial_family():
    R = restricted.Family(5, (0,) * 5)
    rng = np.random.default_rng(23)
    assert not rc.ind2_matrix(R, rand_cochain(rng, 5, 5, 2)).any()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ind2_at_matches_closed_form(p):
    rng = np.random.default_rng(1500 + p)
    for _ in range(8):
        R = restricted.Family(p, rand_lambda(rng, p))
        phi = rand_cochain(rng, p, p, 2)
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert ind2_at(R, phi, g, h) == ind2_family_closed(R, phi, g, h)


def test_ind2_family_closed_needs_family():
    A = liealg.make_m0(3)
    R = restricted.RestrictedAlgebra(A, [A.zero()] * 3)
    with pytest.raises(ValueError):
        ind2_family_closed(R, dual_cochain(3, 3, (1, 3)), A.zero(), A.zero())


def test_ind2_rejects_wrong_degree():
    R = restricted.Family(5, (0,) * 5)
    with pytest.raises(ValueError):
        rc.ind2_matrix(R, dual_cochain(5, 5, (1,)))


# ---------------------------------------------------------------------------
# restricted differentials


def test_d1_star_closed_form_trivial_powers():
    R = restricted.Family(7, (0,) * 7)
    for k in range(3, 8):
        out = d1_star(R, dual_cochain(7, 7, (k,)))
        assert out.phi == cochains.d1_closed_m0(7, k)
        assert out.omega_basis == (0,) * 7


def test_d1_star_kills_first_dual():
    rng = np.random.default_rng(29)
    for p in SMALL_PRIMES:
        R = restricted.Family(p, rand_lambda(rng, p))
        out = d1_star(R, dual_cochain(p, p, (1,)))
        assert out.phi.is_zero()
        assert out.omega_basis == (0,) * p


def test_d1_star_p2_sees_lambda():
    R = restricted.Family(2, (1, 1))
    out = d1_star(R, dual_cochain(2, 2, (2,)))
    assert out.phi.is_zero()
    assert out.omega_basis == (1, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_d2_star_kills_frobenius_duals(p):
    rng = np.random.default_rng(1600 + p)
    R = restricted.Family(p, rand_lambda(rng, p))
    for k in range(1, p + 1):
        alpha, beta = d2_star(R, rc.frobenius_dual_cochain(p, p, k))
        assert alpha.is_zero() and not beta.any()


def test_d2_star_ignores_omega_part():
    rng = np.random.default_rng(37)
    p = 5
    R = restricted.Family(p, rand_lambda(rng, p))
    phi = rand_cochain(rng, p, p, 2)
    a = d2_star(R, rc.RestrictedTwoCochain(phi, (0,) * p))
    b = d2_star(R, rc.RestrictedTwoCochain(phi, rand_lambda(rng, p)))
    assert a[0] == b[0] and (a[1] == b[1]).all()


def test_d2_star_top_dual_beta():
    lam = (1, 2, 3, 4, 0)
    R = restricted.Family(5, lam)
    _, beta = d2_star(R, rc.basis_pair_cochain(5, 5, 1, 5))
    assert tuple(int(x) for x in beta[0]) == lam
    assert not beta[1:].any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_d2_star_after_d1_star_is_zero(p):
    rng = np.random.default_rng(1700 + p)
    lams = [(0,) * p, rand_lambda(rng, p)]
    for lam in lams:
        R = restricted.Family(p, lam)
        for k in range(1, p + 1):
            alpha, beta = d2_star(R, d1_star(R, dual_cochain(p, p, (k,))))
            assert alpha.is_zero() and not beta.any()
        alpha, beta = d2_star(R, d1_star(R, rand_cochain(rng, p, p, 1)))
        assert alpha.is_zero() and not beta.any()


# ---------------------------------------------------------------------------
# the beta sum rule


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_doublestar_rule_holds_for_zero_form(p):
    rng = np.random.default_rng(1800 + p)
    A = liealg.make_m0(p)
    for _ in range(4):
        beta = gf.normalize(rng.integers(0, p, size=(p, p)), p)
        g, h1, h2 = (rand_vec(rng, p, p) for _ in range(3))
        assert rc.star_rule(A, rc.beta_at(Cochain(p, p, 3), beta, g), h1, h2)[1]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_doublestar_rule_holds_for_cocycle_images(p):
    rng = np.random.default_rng(1900 + p)
    A = liealg.make_m0(p)
    for _ in range(4):
        R = restricted.Family(p, rand_lambda(rng, p))
        c = rc.RestrictedTwoCochain(rand_cocycle(rng, A), rand_lambda(rng, p))
        alpha, beta = d2_star(R, c)
        g, h1, h2 = (rand_vec(rng, p, p) for _ in range(3))
        assert rc.star_rule(A, rc.beta_at(alpha, beta, g), h1, h2)[1]


def test_doublestar_direct_evaluation_example():
    # alpha = d2(e^{3,4}) over the 7-dimensional algebra with zero beta: every
    # correction term pairs alpha against a center-supported slot it cannot
    # see, so both sides stay zero
    rng = np.random.default_rng(47)
    A = liealg.make_m0(7)
    alpha = cochains.d2(A, dual_cochain(7, 7, (3, 4)))
    assert not alpha.is_zero()
    for _ in range(6):
        g, h1, h2 = (rand_vec(rng, 7, 7) for _ in range(3))
        at = rc.beta_at(alpha, gf.zeros((7, 7)), g)
        assert rc.doublestar_correction(A, alpha, g, h1, h2) == 0
        assert rc.star_eval(A, at, (h1 + h2) % 7) == 0
        assert rc.star_rule(A, at, h1, h2)[1]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_induced_beta_equals_inducing_function(p):
    rng = np.random.default_rng(2000 + p)
    A = liealg.make_m0(p)
    for _ in range(3):
        R = restricted.Family(p, rand_lambda(rng, p))
        phi = rand_cocycle(rng, A)
        alpha, beta = d2_star(R, rc.RestrictedTwoCochain(phi, (0,) * p))
        for _ in range(4):
            g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
            assert rc.star_eval(A, rc.beta_at(alpha, beta, g), h) == ind2_at(R, phi, g, h)


def test_doublestar_rule_fails_for_noncocycle_top_pairs():
    # images of e^{4,5} at p = 5 carry a 3-form whose correction sum does not
    # vanish; the rule cannot be satisfied by any beta values
    rng = np.random.default_rng(59)
    A = liealg.make_m0(5)
    R = restricted.Family(5, (0,) * 5)
    alpha, beta = d2_star(R, rc.basis_pair_cochain(5, 5, 4, 5))
    failures = 0
    for _ in range(40):
        g, h1, h2 = (rand_vec(rng, 5, 5) for _ in range(3))
        if not rc.star_rule(A, rc.beta_at(alpha, beta, g), h1, h2)[1]:
            failures += 1
    assert failures > 0


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_doublestar_eval_naive_route_matches(p):
    rng = np.random.default_rng(2100 + p)
    A = liealg.make_m0(p)
    for _ in range(3):
        alpha = rand_cochain(rng, p, p, 3)
        beta = gf.normalize(rng.integers(0, p, size=(p, p)), p)
        g, h = rand_vec(rng, p, p), rand_vec(rng, p, p)
        assert doublestar_eval_naive(A, alpha, beta, g, h) == rc.star_eval(
            A, rc.beta_at(alpha, beta, g), h
        )


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=25, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5))
def test_star_eval_linear_on_omega_only_pairs(entries):
    # with a zero 2-form, omega evaluation is plain Fermat linearity
    A = liealg.make_m0(5)
    c = rc.RestrictedTwoCochain(
        Cochain(5, 5, 2), (2, 0, 1, 4, 3)
    )
    expected = sum(e * w for e, w in zip(entries, (2, 0, 1, 4, 3))) % 5
    assert rc.star_eval(A, omega_arrays(c), entries) == expected


@settings(max_examples=20, derandomize=True)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=7, max_size=7),
    st.lists(st.integers(min_value=0, max_value=6), min_size=7, max_size=7),
)
def test_star_rule_for_weight_form_pairs(g, h):
    # the alternating-sum weight forms are cocycles, so the rule holds with
    # any omega values attached
    A = liealg.make_m0(7)
    c = rc.RestrictedTwoCochain(cochains.phi_k(7, 7), (1, 2, 3, 4, 5, 6, 0))
    assert rc.star_rule(A, omega_arrays(c), g, h)[1]


# ---------------------------------------------------------------------------
# row stacks: one call on a stack equals one call per row


STACK_PRIMES = [2, 3, 5, 7, 11, 13]


def stack_with_edge_rows(rng, p, count=5):
    """Random rows plus a zero row, a row with a zero leading head and a
    single-term row."""
    rows = rng.integers(0, p, size=(count, p))
    rows[0] = 0
    rows[1, 0] = 0
    rows[2, :-1] = 0
    return rows


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_star_eval_stack_equals_rows(p, monkeypatch):
    rng = np.random.default_rng(2200 + p)
    A = liealg.make_m0(p)
    g = stack_with_edge_rows(rng, p)
    one = rc.RestrictedTwoCochain(rand_cochain(rng, p, p, 2), rand_lambda(rng, p))
    per_row = [
        rc.RestrictedTwoCochain(rand_cochain(rng, p, p, 2), rand_lambda(rng, p)) for _ in g
    ]
    want_one = [rc.star_eval(A, omega_arrays(one), row) for row in g]
    want_rows = [rc.star_eval(A, omega_arrays(c), row) for c, row in zip(per_row, g)]
    stacked = pair_arrays(per_row)
    assert rc.star_eval(A, omega_arrays(one), g).tolist() == want_one
    assert rc.star_eval(A, stacked, g).tolist() == want_rows
    # a cochain per row also serves every block of rows before it
    assert rc.star_eval(A, stacked, np.stack([g, g])).tolist() == [want_rows] * 2
    for _ in few_positions_per_batch(monkeypatch, g):
        assert rc.star_eval(A, stacked, g).tolist() == want_rows


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_doublestar_eval_stack_equals_rows(p, monkeypatch):
    rng = np.random.default_rng(2300 + p)
    A = liealg.make_m0(p)
    alpha = rand_cochain(rng, p, p, 3)
    beta = gf.normalize(rng.integers(0, p, size=(p, p)), p)

    def beta_eval(g, h):
        return rc.star_eval(A, rc.beta_at(alpha, beta, g), h)

    g = rng.integers(0, p, size=(5, p))
    h = stack_with_edge_rows(rng, p)
    want = [beta_eval(x, y) for x, y in zip(g, h)]
    assert beta_eval(g, h).tolist() == want
    assert beta_eval(g[0], h).tolist() == [beta_eval(g[0], y) for y in h]
    # g per row also serves every block of rows of h
    blocks = np.stack([h, h[::-1]])
    want_blocks = [[beta_eval(x, y) for x, y in zip(g, b)] for b in blocks]
    assert beta_eval(g, blocks).tolist() == want_blocks
    for _ in few_positions_per_batch(monkeypatch, h):
        assert beta_eval(g, h).tolist() == want
    for _ in few_positions_per_batch(monkeypatch, blocks):
        assert beta_eval(g, blocks).tolist() == want_blocks


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_sum_rules_stack_equal_rows(p):
    rng = np.random.default_rng(2400 + p)
    R = restricted.Family(p, rand_lambda(rng, p))
    pairs = [d1_star(R, rand_cochain(rng, p, p, 1)) for _ in range(3)]
    pairs.append(rc.basis_pair_cochain(p, p, p - 1, p))  # not a cocycle for p >= 5
    g, h = stack_with_edge_rows(rng, p, 4), rng.integers(0, p, size=(4, p))
    at_g, got = rc.star_rule(R.algebra, pair_arrays(pairs), g, h)
    assert got.tolist() == [
        rc.star_rule(R.algebra, omega_arrays(c), x, y)[1] for c, x, y in zip(pairs, g, h)
    ]
    assert at_g.tolist() == [rc.star_eval(R.algebra, omega_arrays(c), x) for c, x in zip(pairs, g)]
    alpha, beta = d2_star(R, rc.basis_pair_cochain(p, p, p - 1, p))
    g, h1, h2 = (stack_with_edge_rows(rng, p, 4) for _ in range(3))
    got = rc.star_rule(R.algebra, rc.beta_at(alpha, beta, g), h1, h2)[1]
    assert got.tolist() == [
        rc.star_rule(R.algebra, rc.beta_at(alpha, beta, x), y1, y2)[1]
        for x, y1, y2 in zip(g, h1, h2)
    ]


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_doublestar_sequence_goes_with_blocks_of_rows(p, monkeypatch):
    # beta_at of rc3[m] against the rows g[m], stacked over m, goes with the
    # rows h1[m], h2[m] in star_eval and star_rule, as each on its own
    rng = np.random.default_rng(2450 + p)
    A = liealg.make_m0(p)
    rc3 = [
        (rand_cochain(rng, p, p, 3), gf.normalize(rng.integers(0, p, size=(p, p)), p))
        for _ in range(3)
    ]
    g, h1, h2 = (rng.integers(0, p, size=(3, 2, p)) for _ in range(3))
    h1[0, 0] = 0
    at = [rc.beta_at(alpha, beta, x) for (alpha, beta), x in zip(rc3, g)]
    want_eval = [rc.star_eval(A, a, y).tolist() for a, y in zip(at, h1)]
    want_rule = [rc.star_rule(A, a, *rows)[1].tolist() for a, *rows in zip(at, h1, h2)]
    stacked = tuple(np.stack(arrays) for arrays in zip(*at))
    assert rc.star_eval(A, stacked, h1).tolist() == want_eval
    assert rc.star_rule(A, stacked, h1, h2)[1].tolist() == want_rule
    for _ in few_positions_per_batch(monkeypatch, h1):
        assert rc.star_eval(A, stacked, h1).tolist() == want_eval


def filiform(p, dim):
    """[e_1, e_i] = e_{i+1} for 1 < i < dim: make_m0(p) when dim = p."""
    brackets = {(1, i): [int(k == i) for k in range(dim)] for i in range(2, dim)}
    return liealg.LieAlgebra(p, dim, brackets, weights=range(1, dim + 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_beta_rule_flags_match_naive_rule(p):
    # the flag of every row against the rule spelled out with the naive
    # sums, beta(g, h1 + h2) = beta(g, h1) + beta(g, h2) - correction.  The
    # rule is linear in alpha, so alpha and -alpha fail on the same rows:
    # beta at h1 is compared too, which a sign lost in beta_at changes.  On
    # make_m0(3) the rule holds for every alpha, so the algebra is one step
    # longer; at p = 2 it holds for every alpha on any algebra
    rng = np.random.default_rng(2470 + p)
    n = p + 1
    A = filiform(p, n)
    rc3 = [
        (rand_cochain(rng, p, n, 3), gf.normalize(rng.integers(0, p, size=(n, n)), p))
        for _ in range(2)
    ]
    g, h1, h2 = (rng.integers(0, p, size=(2, 6, n)) for _ in range(3))
    h1[:, 0] = 0  # a zero h1
    h2[:, 1] = 0  # a zero h2
    h1[:, 2] = 0  # h1 = a e_1, h2 without e_1: a split, where the rule holds
    h1[:, 2, 0] = rng.integers(1, p)
    h2[:, 2, 0] = 0

    def naive_holds(c, x, y1, y2):
        at = [doublestar_eval_naive(A, *c, x, y) for y in (y1, y2, (y1 + y2) % p)]
        return at[2] == (at[0] + at[1] - doublestar_correction_naive(A, c[0], x, y1, y2)) % p

    rows = list(zip(rc3, g, h1, h2))
    want = [[naive_holds(c, *row) for row in zip(x, y1, y2)] for c, x, y1, y2 in rows]
    want_h1 = [[doublestar_eval_naive(A, *c, *row) for row in zip(x, y1)] for c, x, y1, _ in rows]
    at = [rc.beta_at(*c, x) for c, x in zip(rc3, g)]
    assert [rc.star_rule(A, a, *rows)[1].tolist() for a, rows in zip(at, zip(h1, h2))] == want
    stacked = tuple(np.stack(arrays) for arrays in zip(*at))
    at_h1, holds = rc.star_rule(A, stacked, h1, h2)
    assert holds.tolist() == want
    assert at_h1.tolist() == want_h1
    assert all(flags[:3] == [True] * 3 for flags in want)
    assert any(not all(flags) for flags in want) == (p > 2)


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_correction_stacks_match_naive_sum(p):
    # the literal 2^(p-2)-term sum, row by row, including zero heads
    rng = np.random.default_rng(2500 + p)
    A = liealg.make_m0(p)
    count = 4 if p <= 11 else 3
    phi = rand_cochain(rng, p, p, 2)
    alpha = rand_cochain(rng, p, p, 3)
    g = rng.integers(0, p, size=(count, p))
    h1, h2 = stack_with_edge_rows(rng, p, count), rng.integers(0, p, size=(count, p))
    h1[-1, :] = 0
    h1[-1, p // 2] = 1  # a scaled basis vector, as split_sum's heads are
    star = [star_correction_naive(A, phi, x, y) for x, y in zip(h1, h2)]
    dstar = [doublestar_correction_naive(A, alpha, *row) for row in zip(g, h1, h2)]
    assert rc.star_correction(A, rc.form_matrix(phi), h1, h2).tolist() == star
    assert rc.doublestar_correction(A, alpha, g, h1, h2).tolist() == dstar


@settings(max_examples=40, derandomize=True)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(2, 6))
def test_form_matrices_match_evaluate(data, p, dim):
    entries = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    x, y, g = (np.array(data.draw(entries)) for _ in range(3))
    phi = cochain_from_vector(p, dim, 2, data.draw(
        st.lists(st.integers(0, p - 1), min_size=dim * (dim - 1) // 2, max_size=dim * (dim - 1) // 2)
    ))
    ntriples = len(cochains.index_tuples(dim, 3))
    alpha = cochain_from_vector(p, dim, 3, data.draw(
        st.lists(st.integers(0, p - 1), min_size=ntriples, max_size=ntriples)
    ))
    assert (x @ rc.form_matrix(phi) @ y) % p == phi.evaluate(x, y)
    assert (x @ rc.form_matrix(alpha, g) @ y) % p == alpha.evaluate(g, x, y)
    stacked = rc.form_matrix(alpha, np.stack([g, x]))
    assert (y @ stacked[1] @ g) % p == alpha.evaluate(x, y, g)
    assert (rc.form_matrices([phi, phi])[1] == rc.form_matrix(phi)).all()


def test_three_form_matrix_stays_below_a_dense_tensor():
    # three rows of g against a 3-form at p = 61 peak below half of one
    # dim^3 int64 array
    p = 61
    alpha = Cochain(p, p, 3, {(1, 2, 3): 1, (2, 5, 61): 4, (7, 30, 60): p - 1})
    g = np.random.default_rng(61).integers(0, p, size=(3, p))
    tracemalloc.start()
    try:
        got = rc.form_matrix(alpha, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p**3 * 8 / 2, peak
    x, y = g[1], g[2]
    assert (x @ got[0] @ y) % p == alpha.evaluate(g[0], x, y) != 0


def test_form_matrix_checks_the_degree():
    with pytest.raises(ValueError, match="form_matrix"):
        rc.form_matrix(Cochain(5, 5, 3))
    with pytest.raises(ValueError, match="form_matrix"):
        rc.form_matrix(Cochain(5, 5, 2), np.zeros(5, dtype=np.int64))


# ---------------------------------------------------------------------------
# lambda stacks: one call over a restricted.Family stack equals one call
# per family member


@st.composite
def lambda_stacks(draw):
    """A prime and a stack of lambda vectors holding the zero vector, a
    one-hot vector and random vectors, in a drawn order."""
    p = draw(st.sampled_from(STACK_PRIMES))
    vector = st.lists(st.integers(0, p - 1), min_size=p, max_size=p)
    one_hot = [int(i == draw(st.integers(0, p - 1))) for i in range(p)]
    lams = [[0] * p, one_hot] + draw(st.lists(vector, max_size=4))
    return p, draw(st.permutations(lams))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stack=lambda_stacks(), seed=st.integers(0, 2**32 - 1))
def test_family_stack_oracles_equal_each_member(stack, seed):
    p, lams = stack
    rng = np.random.default_rng(seed)
    family = restricted.Family(p, lams)
    members = [restricted.Family(p, lam) for lam in lams]
    g = rng.integers(0, p, size=(len(lams), 3, p))
    forms = rc.form_matrices([rand_cochain(rng, p, p, 2) for _ in range(2)])
    psi = rand_cochain(rng, p, p, 1)
    jacobson = restricted.p_power_jacobson(family, g)
    closed = restricted.p_power_closed(family, g)
    induced = rc.ind2_matrix(family, forms[:, None])
    omega = rc.ind1_values(family, psi)
    for m, R in enumerate(members):
        # an integer index gives the member itself
        assert (family[m].lam == R.lam).all()
        assert (family[m].power_matrix == R.power_matrix).all()
        assert (jacobson[m] == restricted.p_power_jacobson(R, g[m])).all()
        assert (closed[m] == restricted.p_power_closed(R, g[m])).all()
        for f, form in enumerate(forms):
            assert (induced[f, m] == rc.ind2_matrix(R, form)).all()
        assert omega[m].tolist() == rc.ind1_values(R, psi).tolist()
    # sub-stacks of two members give what the whole stack gives
    for start in range(0, len(lams), 2):
        part = slice(start, start + 2)
        assert (restricted.p_power_jacobson(family[part], g[part]) == jacobson[part]).all()
