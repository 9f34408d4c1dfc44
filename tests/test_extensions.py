"""Central extension construction, verification, and triviality."""

import tracemalloc

import numpy as np
import pytest

from filicoh import cochains, extensions, gf, liealg, restricted
from filicoh import restricted_cochains as rcoch
from filicoh.cochains import Cochain, dual_cochain
from helpers import (
    center,
    coboundary_shift_is_isomorphism,
    cochain_from_vector,
    extend_ordinary,
    p_power,
    restricted_from_json,
    sparse,
)


def rand_lambda(rng, p):
    return tuple(int(x) for x in rng.integers(0, p, size=p))


def test_zero_cocycle_gives_direct_sum():
    A = liealg.make_m0(5)
    E = extend_ordinary(A, Cochain(5, 5, 2))
    assert E.dim == 6
    assert E.labels[-1] == "c"
    assert E.weights == (1, 2, 3, 4, 5, 6)
    for (i, j), vec in E.brackets.items():
        assert vec[-1] == 0
        assert (vec[:-1] == A.bracket_basis(i, j)).all()


def test_top_pair_extension_bracket():
    # phi = e^{1,5}: the only new bracket entry is [e_1, e_5] = c
    A = liealg.make_m0(5)
    E = extend_ordinary(A, dual_cochain(5, 5, (1, 5)))
    c = E.basis_vector(6)
    assert (E.bracket_basis(1, 5) == c).all()
    assert (E.bracket_basis(1, 3)[:-1] == A.bracket_basis(1, 3)).all()
    assert E.bracket_basis(1, 3)[-1] == 0
    ok, _ = liealg.jacobi_check(E)
    assert ok


def test_new_generator_is_central():
    A = liealg.make_m0(7)
    E = extend_ordinary(A, cochains.phi_k(7, 7))
    c = E.basis_vector(8)
    for k in range(1, 9):
        assert not E.bracket(E.basis_vector(k), c).any()
    rows = center(E)
    assert gf.SpanTracker(7, map(sparse, rows)).contains(sparse(c))


def test_noncocycle_rejected_with_witness():
    A = liealg.make_m0(5)
    with pytest.raises(ValueError, match=r"not a cocycle.*\(1, 3, 5\)"):
        extend_ordinary(A, dual_cochain(5, 5, (4, 5)))


def test_wrong_shape_rejected():
    A = liealg.make_m0(5)
    with pytest.raises(ValueError):
        extend_ordinary(A, dual_cochain(5, 5, (1,)))
    with pytest.raises(ValueError):
        extend_ordinary(A, dual_cochain(7, 7, (1, 7)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_dual_extension_matches_power_table(p):
    # extension by (0, ebar^k): brackets unchanged, e_i^[p] = lam_i e_p for
    # i != k, e_k^[p] = lam_k e_p + c, c^[p] = 0
    rng = np.random.default_rng(p)
    for lam in [(0,) * p, rand_lambda(rng, p)]:
        R = restricted.Family(p, lam)
        for k in range(1, p + 1):
            RE = extensions.extend_restricted(R, rcoch.frobenius_dual_cochain(p, p, k))
            E = RE.algebra
            assert set(E.brackets) == set(R.algebra.brackets)
            for i in range(1, p + 1):
                expected = gf.zeros(p + 1)
                expected[p - 1] = lam[i - 1]
                if i == k:
                    expected[p] = 1
                assert (RE.power_matrix[i - 1] == expected).all(), (lam, k, i)
            assert not RE.power_matrix[p].any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_stacked_extension_equals_each_member_extension(p):
    # one build for a Family stack: its algebra is each member's, and its
    # p-map m is member m's
    rng = np.random.default_rng(p)
    family = restricted.Family(p, [(0,) * p] + [rand_lambda(rng, p) for _ in range(4)])
    # and phi_5 = e^{2,3}, which meets no e_p from p = 5 on, with a random omega
    cocycles = [rcoch.frobenius_dual_cochain(p, p, k) for k in (1, 2, p)]
    if p >= 5:
        cocycles.append(rcoch.RestrictedTwoCochain(cochains.phi_k(p, 5), rng.integers(0, p, size=p)))
    for c2 in cocycles:
        RE = extensions.extend_restricted(family, c2)
        assert RE.power_matrix.shape == (len(family), p + 1, p + 1)
        for m in range(len(family)):
            one = extensions.extend_restricted(family[m], c2)
            assert RE.algebra == one.algebra
            assert (RE.power_matrix[m] == one.power_matrix).all()


def test_stacked_extension_names_the_failing_member():
    # e^{1,p} is a cocycle whose induced beta(e_1, e_j) is lam_j: zero for
    # the zero member only
    p = 5
    family = restricted.Family(p, [(0,) * p, (0, 3, 0, 0, 0)])
    c2 = rcoch.basis_pair_cochain(p, p, 1, p)
    assert extensions.extend_restricted(family[0], c2).power_matrix.shape == (p + 1, p + 1)
    with pytest.raises(ValueError, match=r"basis pair \(1, 2\) of member 1$"):
        extensions.extend_restricted(family, c2)
    with pytest.raises(ValueError, match=r"basis pair \(1, 2\)$"):
        extensions.extend_restricted(family[1], c2)


def test_stacked_extension_names_the_member_failing_the_axiom(monkeypatch):
    # e_2^[p] of member 2 gains e_1, which ad(e_2)^p = 0 does not match
    p = 5
    family = restricted.Family(p, np.arange(4 * p).reshape(4, p))
    real = restricted.RestrictedAlgebra

    def faulty(algebra, powers):
        powers = np.array(powers)
        powers[..., 2, 1, 0] += 1
        return real(algebra, powers)

    monkeypatch.setattr(extensions.restricted, "RestrictedAlgebra", faulty)
    dual = rcoch.frobenius_dual_cochain(p, p, 1)
    with pytest.raises(RuntimeError, match=r"axiom at basis index 2 of member 2$"):
        extensions.extend_restricted(family, dual)


def test_extension_checks_stay_below_a_dense_structure_array():
    # jacobi_check and verify_restricted_map on the restricted phi_7
    # extension at p = 61, a fresh copy whose cached forms are built under
    # tracing, peak below half of one dim^3 int64 array
    p = 61
    R = restricted.Family(p, (0,) * p)
    c2 = rcoch.RestrictedTwoCochain(cochains.phi_k(p, 7), (0,) * p)
    RE = restricted_from_json(restricted.to_json(extensions.extend_restricted(R, c2)))
    tracemalloc.start()
    try:
        assert liealg.jacobi_check(RE.algebra) == (True, None)
        assert restricted.verify_restricted_map(RE) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < RE.dim**3 * 8 / 2, peak


def test_correction_recursion_stays_below_a_dense_ad_array():
    # jacobson_corrections at p = 61 on the 3(p + 1) rows one lambda brings
    # to a split of the omega sum rule, split at e_1 as restricted.split_sum
    # hands them over: peak below one rows x dim^2 int64 array, the size of
    # one stack of ad matrices
    p = 61
    rng = np.random.default_rng(p)
    R = restricted.Family(p, rng.integers(0, p, size=p))
    rows = rng.integers(0, p, size=(3 * (p + 1), p))
    cols = np.arange(p)
    heads, tails = np.where(cols == 0, rows, 0)[None], np.where(cols > 0, rows, 0)[None]
    tracemalloc.start()
    try:
        got = restricted.jacobson_corrections(R, heads, tails)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == heads.shape and not got.any()  # they vanish on the family
    assert peak < len(rows) * p * p * 8, peak


def test_restricted_extension_verified():
    R = restricted.Family(7, (0,) * 7)
    c2 = rcoch.RestrictedTwoCochain(cochains.phi_k(7, 5), (0,) * 7)
    RE = extensions.extend_restricted(R, c2)
    ok, _ = restricted.verify_restricted_map(RE)
    assert ok
    ok, _ = liealg.jacobi_check(RE.algebra)
    assert ok


def test_restricted_extension_with_omega_values():
    R = restricted.Family(5, (2, 0, 1, 0, 3))
    c2 = rcoch.RestrictedTwoCochain(Cochain(5, 5, 2), (1, 4, 0, 2, 3))
    RE = extensions.extend_restricted(R, c2)
    for i in range(5):
        assert RE.power_matrix[i][-1] == c2.omega_basis[i]
    ok, _ = restricted.verify_restricted_map(RE)
    assert ok


def test_restricted_noncocycle_rejected():
    # e^{1,p} at nonzero lambda has a nonzero induced beta
    R = restricted.Family(5, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="induced beta"):
        extensions.extend_restricted(R, rcoch.basis_pair_cochain(5, 5, 1, 5))
    with pytest.raises(ValueError, match="not a restricted cocycle"):
        extensions.extend_restricted(R, rcoch.basis_pair_cochain(5, 5, 4, 5))


def test_restricted_extension_checks_its_cocycle_once(monkeypatch):
    # one d2 of phi per call, whether it builds or refuses on d2 or on beta
    real = cochains.differential
    calls = []

    def spy(algebra, cochain):
        calls.append(cochain)
        return real(algebra, cochain)

    monkeypatch.setattr(extensions.cochains, "differential", spy)
    R = restricted.Family(5, (1, 0, 0, 0, 0))
    cocycles = (
        rcoch.frobenius_dual_cochain(5, 5, 2),
        rcoch.RestrictedTwoCochain(cochains.phi_k(5, 5), (0,) * 5),
    )
    for c2 in cocycles:
        calls.clear()
        extensions.extend_restricted(R, c2)
        assert len(calls) == 1 and calls[0] is c2.phi
    for c2, witness in ((rcoch.basis_pair_cochain(5, 5, 1, 5), "induced beta"),
                        (rcoch.basis_pair_cochain(5, 5, 4, 5), "d2")):
        calls.clear()
        with pytest.raises(ValueError, match=witness):
            extensions.extend_restricted(R, c2)
        assert len(calls) == 1 and calls[0] is c2.phi


def test_top_pair_extension_at_trivial_powers():
    # at lambda = 0 the pair (e^{1,p}, 0) is a restricted cocycle even though
    # p-fold brackets of the extension reach the center
    R = restricted.Family(5, (0,) * 5)
    RE = extensions.extend_restricted(R, rcoch.basis_pair_cochain(5, 5, 1, 5))
    ok, _ = restricted.verify_restricted_map(RE)
    assert ok
    E = RE.algebra
    chain = E.basis_vector(2)
    for _ in range(4):
        chain = E.bracket(E.basis_vector(1), chain)
    assert chain.any()  # lands on c, not zero


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_map_additive_on_frobenius_extensions(p):
    # brackets are untouched by (0, ebar^k), so the general power recursion
    # has vanishing corrections and additivity survives the extension
    rng = np.random.default_rng(31 + p)
    R = restricted.Family(p, rand_lambda(rng, p))
    RE = extensions.extend_restricted(R, rcoch.frobenius_dual_cochain(p, p, 2))
    for _ in range(5):
        g = gf.normalize(rng.integers(0, p, size=p + 1), p)
        h = gf.normalize(rng.integers(0, p, size=p + 1), p)
        assert not restricted.jacobson_corrections(RE, g, h).any()
        lhs = p_power(RE, (g + h) % p)
        rhs = (p_power(RE, g) + p_power(RE, h)) % p
        assert (lhs == rhs).all()


def test_triviality_of_coboundaries():
    A = liealg.make_m0(7)
    assert extensions.is_trivial_ordinary_extension(A, Cochain(7, 7, 2))
    for k in range(3, 8):
        phi = cochains.d1(A, dual_cochain(7, 7, (k,)))
        assert extensions.is_trivial_ordinary_extension(A, phi)


def test_top_pair_is_nontrivial():
    for p in (3, 5, 7):
        A = liealg.make_m0(p)
        assert not extensions.is_trivial_ordinary_extension(A, dual_cochain(p, p, (1, p)))


def test_frobenius_extensions_trivial_as_ordinary():
    # the E_k series: zero 2-form part, hence split ordinary extensions
    for p in (2, 3, 5, 7):
        A = liealg.make_m0(p)
        for k in range(1, p + 1):
            phi_part = rcoch.frobenius_dual_cochain(p, p, k).phi
            assert extensions.is_trivial_ordinary_extension(A, phi_part)


def test_triviality_requires_cocycle():
    A = liealg.make_m0(5)
    with pytest.raises(ValueError):
        extensions.is_trivial_ordinary_extension(A, dual_cochain(5, 5, (4, 5)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coboundary_shift_isomorphism(p):
    rng = np.random.default_rng(41 + p)
    A = liealg.make_m0(p)
    ker = gf.kernel_basis(cochains.d2_matrix(A), p)
    for _ in range(4):
        combo = gf.normalize(rng.integers(0, p, size=ker.shape[0]) @ ker, p)
        phi = cochain_from_vector(p, p, 2, combo)
        psi = cochain_from_vector(p, p, 1, rng.integers(0, p, size=p))
        assert coboundary_shift_is_isomorphism(A, phi, psi)


def test_coboundary_shift_detects_wrong_target():
    # shifting by psi but pairing with an unshifted copy must fail unless
    # d1(psi) happens to vanish
    A = liealg.make_m0(5)
    psi = dual_cochain(5, 5, (4,))
    assert not cochains.d1(A, psi).is_zero()
    E1 = extend_ordinary(A, dual_cochain(5, 5, (1, 5)))
    shifted = coboundary_shift_is_isomorphism(A, dual_cochain(5, 5, (1, 5)), psi)
    assert shifted
    zero_shift = coboundary_shift_is_isomorphism(
        A, dual_cochain(5, 5, (1, 5)), Cochain(5, 5, 1)
    )
    assert zero_shift
    assert E1.dim == 6


def test_extension_json_round_trip():
    R = restricted.Family(3, (1, 0, 2))
    c2 = rcoch.frobenius_dual_cochain(3, 3, 1)
    RE = extensions.extend_restricted(R, c2)
    data = extensions.extension_to_json(RE, str(c2))
    assert data["extension_of"]["base_dim"] == 3
    assert data["extension_of"]["restricted"] is True
    assert data["extension_of"]["cocycle"] == "(0, ebar^1)"
    back = restricted_from_json(data)
    assert back.algebra == RE.algebra
    assert (back.power_matrix == RE.power_matrix).all()
