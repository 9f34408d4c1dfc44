"""p-power maps: closed form on the maximal-class family vs the general recursion."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filicoh import cochains, extensions, gf, liealg, restricted
from filicoh import restricted_cochains as rcoch
from helpers import (
    cochain_from_vector,
    extend_ordinary,
    few_positions_per_batch,
    jacobson_corrections_matrix_poly,
    make_m2,
    mat_pow,
    random_element,
    restricted_from_json,
    star_correction_naive,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def one_hot(p, k):
    lam = [0] * p
    lam[k - 1] = 1
    return lam


@pytest.mark.parametrize("p", PRIMES)
def test_make_m0_lambda_stores_top_line_powers(p):
    lam = list(range(p))
    R = restricted.Family(p, lam)
    assert R.lam.tolist() == [x % p for x in lam]
    assert not R.lam.flags.writeable and not R.power_matrix.flags.writeable
    with pytest.raises(TypeError, match="not a stack"):
        R[0]
    for k in range(1, p + 1):
        v = R.power_matrix[k - 1]
        assert v[p - 1] == lam[k - 1] % p
        assert not v[: p - 1].any()


def test_make_m0_lambda_length_checked():
    for lam in ([1, 0], [[1, 0]], [[[0] * 5]]):
        with pytest.raises(ValueError, match="lambda must have length 5"):
            restricted.Family(5, lam)


def test_p_power_closed_known_values():
    R = restricted.Family(5, one_hot(5, 1))
    g = R.algebra.basis_vector(1) + R.algebra.basis_vector(2)
    assert restricted.p_power_closed(R, g).tolist() == [0, 0, 0, 0, 1]
    # (2 e_2)^[5] with lam = one-hot at 2: 2^5 = 32 = 2 mod 5.
    R2 = restricted.Family(5, one_hot(5, 2))
    assert restricted.p_power_closed(R2, [0, 2, 0, 0, 0]).tolist() == [0, 0, 0, 0, 2]
    Rz = restricted.Family(5, [0] * 5)
    assert not restricted.p_power_closed(Rz, g).any()
    assert not restricted.p_power_closed(R, [0] * 5).any()


def test_p_power_closed_guarded():
    A = liealg.make_m0(5)
    R = restricted.RestrictedAlgebra(A, [gf.zeros(5)] * 5)
    with pytest.raises(ValueError):
        restricted.p_power_closed(R, A.basis_vector(1))


@pytest.mark.parametrize("p", [2, 3])
def test_jacobson_matches_closed_exhaustive(p):
    lam_choices = itertools.product(range(p), repeat=p)
    for lam in lam_choices:
        R = restricted.Family(p, lam)
        for vec in itertools.product(range(p), repeat=p):
            g = np.array(vec)
            closed = restricted.p_power_closed(R, g)
            jac = restricted.p_power_jacobson(R, g)
            assert (closed == jac).all(), (lam, vec)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_jacobson_matches_closed_random(p):
    rng = random.Random(p)
    for _ in range(25):
        lam = [rng.randrange(p) for _ in range(p)]
        R = restricted.Family(p, lam)
        g = random_element(R.algebra, rng)
        assert (restricted.p_power_closed(R, g) == restricted.p_power_jacobson(R, g)).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_corrections_vanish_on_maximal_class(p):
    """All Jacobson corrections are iterated brackets of length p, hence zero here."""
    rng = random.Random(17)
    R = restricted.Family(p, [1] * p)
    for _ in range(20):
        g = random_element(R.algebra, rng)
        h = random_element(R.algebra, rng)
        assert not restricted.jacobson_corrections(R, g, h).any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_p_power_additive_and_semilinear_on_family(p):
    rng = random.Random(23)
    lam = [rng.randrange(p) for _ in range(p)]
    R = restricted.Family(p, lam)
    for _ in range(15):
        g = random_element(R.algebra, rng)
        h = random_element(R.algebra, rng)
        a = rng.randrange(p)
        lhs = restricted.p_power_closed(R, (g + h) % p)
        rhs = (restricted.p_power_closed(R, g) + restricted.p_power_closed(R, h)) % p
        assert (lhs == rhs).all()
        scaled = restricted.p_power_closed(R, (a * g) % p)
        expected = (pow(a, p, p) * restricted.p_power_closed(R, g)) % p
        assert (scaled == expected).all()


def affine_line_algebra(p):
    """[e_1, e_2] = e_2 with e_1^[p] = e_1, e_2^[p] = 0: corrections do not vanish."""
    v = gf.zeros(2)
    v[1] = 1
    A = liealg.LieAlgebra(p, 2, {(1, 2): v}, weights=[0, 1])
    e1 = gf.zeros(2)
    e1[0] = 1
    return restricted.RestrictedAlgebra(A, [e1, gf.zeros(2)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_affine_line_is_restricted(p):
    ok, witness = restricted.verify_restricted_map(affine_line_algebra(p))
    assert ok and witness is None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jacobson_on_algebra_with_nonzero_corrections(p):
    """ad(g^[p]) == ad(g)^p must hold for the Jacobson evaluation everywhere."""
    R = affine_line_algebra(p)
    A = R.algebra
    corr = restricted.jacobson_corrections(R, A.basis_vector(1), A.basis_vector(2))
    assert corr.any()  # this algebra genuinely exercises the correction terms
    rng = random.Random(5)
    seen = [np.array(v) for v in itertools.product(range(p), repeat=2)]
    for g in seen:
        pp = restricted.p_power_jacobson(R, g)
        lhs = liealg.ad_matrix(A, pp)
        rhs = mat_pow(liealg.ad_matrix(A, g), p, p)
        assert (lhs == rhs).all(), g
    for _ in range(10):
        g = random_element(A, rng)
        a = rng.randrange(p)
        scaled = restricted.p_power_jacobson(R, (a * g) % p)
        expected = (pow(a, p, p) * restricted.p_power_jacobson(R, g)) % p
        assert (scaled == expected).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_corrections_match_matrix_polynomial_on_affine_line(p):
    R = affine_line_algebra(p)
    elements = [np.array(v) for v in itertools.product(range(p), repeat=2)]
    nonzero = 0
    for g in elements:
        for h in elements:
            got = restricted.jacobson_corrections(R, g, h)
            assert (got == jacobson_corrections_matrix_poly(R, g, h)).all(), (g, h)
            nonzero += bool(got.any())
    assert nonzero


@pytest.mark.parametrize("p", PRIMES)
def test_corrections_match_matrix_polynomial_on_family(p):
    rng = random.Random(40 + p)
    R = restricted.Family(p, [rng.randrange(p) for _ in range(p)])
    for _ in range(10):
        g = random_element(R.algebra, rng)
        h = random_element(R.algebra, rng)
        want = jacobson_corrections_matrix_poly(R, g, h)
        assert (restricted.jacobson_corrections(R, g, h) == want).all()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_corrections_match_matrix_polynomial_on_phi_extensions(p):
    rng = random.Random(60 + p)
    R = restricted.Family(p, [0] * p)
    nonzero = 0
    for k in cochains.phi_weights(p):
        c2 = rcoch.RestrictedTwoCochain(cochains.phi_k(p, k), (0,) * p)
        RE = extensions.extend_restricted(R, c2)
        for _ in range(10):
            g = random_element(RE.algebra, rng)
            h = random_element(RE.algebra, rng)
            got = restricted.jacobson_corrections(RE, g, h)
            assert (got == jacobson_corrections_matrix_poly(RE, g, h)).all()
            nonzero += bool(got.any())
    assert nonzero


@pytest.mark.parametrize("p", PRIMES)
def test_verify_restricted_map_on_family(p):
    rng = random.Random(p + 1)
    for lam in [[0] * p, [1] * p, [rng.randrange(p) for _ in range(p)]]:
        ok, witness = restricted.verify_restricted_map(restricted.Family(p, lam))
        assert ok and witness is None


def test_verify_restricted_map_detects_corruption():
    p = 5
    R = restricted.Family(p, [0] * p)
    bad_powers = R.power_matrix.copy()
    bad_powers[0] = R.algebra.basis_vector(1)  # e_1^[p] = e_1 but ad(e_1)^p = 0
    bad = restricted.RestrictedAlgebra(R.algebra, bad_powers)
    ok, witness = restricted.verify_restricted_map(bad)
    assert not ok
    assert witness == 1
    # the restricted phi_7 extension at p = 31, with e_5^[p] gaining e_2:
    # ad(e_2) is not zero, but ad(e_5)^p is
    p = 31
    c2 = rcoch.RestrictedTwoCochain(cochains.phi_k(p, 7), (0,) * p)
    RE = extensions.extend_restricted(restricted.Family(p, [0] * p), c2)
    bad_powers = RE.power_matrix.copy()
    bad_powers[4][1] = 1
    bad = restricted.RestrictedAlgebra(RE.algebra, bad_powers)
    assert first_failing_power(RE) is None
    assert first_failing_power(bad) == 5
    assert restricted.verify_restricted_map(bad) == (False, 5)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_restricted_json_round_trip(p):
    R = restricted.Family(p, list(range(1, p + 1)))
    data = restricted.to_json(R)
    assert "lambda" not in data
    back = restricted_from_json(data)
    assert back == restricted.RestrictedAlgebra(R.algebra, R.power_matrix)
    # and for an algebra off the family
    R2 = affine_line_algebra(p)
    back2 = restricted_from_json(restricted.to_json(R2))
    assert back2 == R2


# ---------------------------------------------------------------------------
# row stacks: one call on a stack equals one call per row


def stack_with_edge_rows(rng, p, dim, count=6):
    """Random rows plus the edge cases of the split loop: a zero row, a
    row whose leading head is zero, and a single-term row (every tail
    zero)."""
    rows = rng.integers(0, p, size=(count, dim))
    rows[0] = 0
    rows[1, 0] = 0
    rows[2, :-1] = 0
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_split_sum_matches_the_split_loop(p, monkeypatch):
    # a bilinear correction that is nonzero at every split position; on the
    # family only the split at e_1 can have a nonzero correction, so the
    # p-power and the sum rules there cannot tell a dropped later position
    rng = np.random.default_rng(60 + p)
    n = 6
    basis = rng.integers(0, p, size=(n, n))
    coeffs = rng.integers(0, p, size=(n, n, n))
    on_basis = lambda scales: scales @ basis
    correction = lambda x, y: np.einsum("...i,ijk,...j->...k", x, coeffs, y) % p
    v = stack_with_edge_rows(rng, p, n).reshape(2, 3, n)
    want = np.zeros_like(v)
    for idx in np.ndindex(v.shape[:-1]):
        row = v[idx]
        total = row @ basis
        for k in range(n - 1):
            head, tail = np.zeros_like(row), row.copy()
            head[k], tail[: k + 1] = row[k], 0
            total += correction(head, tail)
        want[idx] = total % p
    assert (restricted.split_sum(p, v, on_basis, correction) == want).all()
    assert (restricted.split_sum(p, v[1, 2], on_basis, correction) == want[1, 2]).all()
    for _ in few_positions_per_batch(monkeypatch, v):
        assert (restricted.split_sum(p, v, on_basis, correction) == want).all()


@pytest.mark.parametrize("p", PRIMES)
def test_p_power_jacobson_stack_equals_rows(p, monkeypatch):
    rng = np.random.default_rng(70 + p)
    R = restricted.Family(p, rng.integers(0, p, size=p))
    rows = stack_with_edge_rows(rng, p, p)
    got = restricted.p_power_jacobson(R, rows)
    want = np.stack([restricted.p_power_jacobson(R, row) for row in rows])
    assert (got == want).all()
    assert (got == restricted.p_power_closed(R, rows)).all()
    for _ in few_positions_per_batch(monkeypatch, rows):
        assert (restricted.p_power_jacobson(R, rows) == want).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_power_jacobson_stack_equals_rows_with_corrections(p, monkeypatch):
    R = affine_line_algebra(p)
    rows = np.array(list(itertools.product(range(p), repeat=2)))
    want = np.stack([restricted.p_power_jacobson(R, row) for row in rows])
    assert (restricted.p_power_jacobson(R, rows) == want).all()
    for _ in few_positions_per_batch(monkeypatch, rows):
        assert (restricted.p_power_jacobson(R, rows) == want).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_corrections_match_matrix_polynomial_at_every_prime(p):
    rng = np.random.default_rng(90 + p)
    R = restricted.Family(p, rng.integers(0, p, size=p))
    g = stack_with_edge_rows(rng, p, p, count=4)
    h = rng.integers(0, p, size=(4, p))
    h[3] = 0
    got = restricted.jacobson_corrections(R, g, h)
    for row, x, y in zip(got, g, h):
        assert (row == jacobson_corrections_matrix_poly(R, x, y)).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_corrections_stack_matches_matrix_polynomial_on_affine_line(p):
    R = affine_line_algebra(p)
    elements = np.array(list(itertools.product(range(p), repeat=2)))
    g = np.repeat(elements, len(elements), axis=0)
    h = np.tile(elements, (len(elements), 1))
    want = np.stack([jacobson_corrections_matrix_poly(R, x, y) for x, y in zip(g, h)])
    assert (restricted.jacobson_corrections(R, g, h) == want).all()


def first_failing_power(R):
    """ad(e_k^[p]) against ad(e_k)^p one k at a time."""
    A, p = R.algebra, R.prime
    for k in range(1, A.dim + 1):
        lhs = liealg.ad_matrix(A, R.power_matrix[k - 1])
        rhs = mat_pow(liealg.ad_matrix(A, A.basis_vector(k)), p, p)
        if (lhs != rhs).any():
            return k
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_verify_restricted_map_matches_per_k_powers(p):
    R = restricted.Family(p, [1] * p)
    for k in range(1, p + 1):
        powers = R.power_matrix.copy()
        powers[k - 1][0] = (powers[k - 1][0] + 1) % p  # e_k^[p] gains e_1
        bad = restricted.RestrictedAlgebra(R.algebra, powers)
        want = first_failing_power(bad)
        assert want == (k if p > 2 else None)  # m_0(2) is abelian: ad(e_1) = 0
        assert restricted.verify_restricted_map(bad) == (want is None, want)
    assert first_failing_power(R) is None
    assert restricted.verify_restricted_map(R) == (True, None)


@st.composite
def restricted_algebras(draw):
    """Random structure constants, Jacobi not required, and random
    p-powers: each pair gets a bracket or none."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 6))
    vectors = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    brackets = {
        pair: draw(vectors)
        for pair in itertools.combinations(range(1, dim + 1), 2)
        if draw(st.booleans())
    }
    A = liealg.LieAlgebra(p, dim, brackets, weights=range(1, dim + 1))
    return restricted.RestrictedAlgebra(A, [draw(vectors) for _ in range(dim)])


def early_nilpotent_algebra(p):
    """[e_1, e_2] = e_3 and e_1^[p] = e_2: ad(e_1)^2 = 0 already, but
    ad(e_2) is not zero, so k = 1 fails."""
    A = liealg.LieAlgebra(p, 3, {(1, 2): [0, 0, 1]}, weights=[1, 1, 2])
    return restricted.RestrictedAlgebra(A, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])


@settings(max_examples=150, derandomize=True)
@given(R=restricted_algebras())
@example(R=early_nilpotent_algebra(5))
def test_verify_restricted_map_matches_per_k_powers_on_random_algebras(R):
    want = first_failing_power(R)
    assert restricted.verify_restricted_map(R) == (want is None, want)


def member_verdicts(A, powers):
    """verify_restricted_map of each p-map of a stack on its own, and the
    first failing k of each by ad matrix powers."""
    single = [restricted.verify_restricted_map(restricted.RestrictedAlgebra(A, m)) for m in powers]
    dense = [first_failing_power(restricted.RestrictedAlgebra(A, m)) for m in powers]
    return single, dense


# members of a stack broken at chosen k (1-based, the last index standing
# for dim): each such e_k^[p] gains e_1, which is not central from p = 3 on
BROKEN = ((), (1,), (2, -1), (-1,), (), (3, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_stacked_restricted_map_matches_per_k_powers(p):
    # make_m0(p) + c with random p-maps into its centre, span(e_p, c), so
    # every unbroken member is restricted
    A = extend_ordinary(liealg.make_m0(p), cochains.Cochain(p, p, 2))
    n = A.dim
    rng = np.random.default_rng(p)
    powers = gf.zeros((len(BROKEN), n, n))
    powers[..., p - 1 :] = rng.integers(0, p, size=(len(BROKEN), n, 2))
    for m, ks in enumerate(BROKEN):
        for k in ks:
            powers[m, k % (n + 1) - 1, 0] += 1
    got = restricted.verify_restricted_map(restricted.RestrictedAlgebra(A, powers))
    single, dense = member_verdicts(A, powers)
    assert got == single == [(k is None, k) for k in dense]
    want = [min(k % (n + 1) for k in ks) if ks and p > 2 else None for ks in BROKEN]
    assert dense == want
    # a stack of one gives the one member's verdict, in a list
    for m in range(len(BROKEN)):
        one = restricted.RestrictedAlgebra(A, powers[m : m + 1])
        assert restricted.verify_restricted_map(one) == [single[m]]


@st.composite
def restricted_stacks(draw):
    """A random algebra as restricted_algebras draws it, with one to four
    random p-maps stacked on it."""
    R = draw(restricted_algebras())
    vectors = st.lists(st.integers(0, R.prime - 1), min_size=R.dim, max_size=R.dim)
    maps = st.lists(vectors, min_size=R.dim, max_size=R.dim)
    return restricted.RestrictedAlgebra(R.algebra, draw(st.lists(maps, min_size=1, max_size=4)))


@settings(max_examples=100, derandomize=True)
@given(R=restricted_stacks())
def test_stacked_restricted_map_matches_per_k_powers_on_random_algebras(R):
    single, dense = member_verdicts(R.algebra, R.power_matrix)
    assert restricted.verify_restricted_map(R) == single == [(k is None, k) for k in dense]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_stacked_restricted_map_on_m2(p):
    # m_2, where ad(e_2) is not zero: the zero p-map, random p-maps into
    # its centre, the line of e_p, and one member whose e_2^[p] gains e_1
    A = make_m2(p)
    rng = np.random.default_rng(p)
    powers = gf.zeros((4, p, p))
    assert restricted.verify_restricted_map(restricted.RestrictedAlgebra(A, powers)) == [
        (True, None)
    ] * 4
    powers[1:, :, -1] = rng.integers(0, p, size=(3, p))
    powers[2, 1, 0] = 1
    got = restricted.verify_restricted_map(restricted.RestrictedAlgebra(A, powers))
    single, dense = member_verdicts(A, powers)
    assert got == single == [(True, None), (True, None), (False, 2), (True, None)]
    assert dense == [None, None, 2, None]


# ---------------------------------------------------------------------------
# the correction recursion on random constants, where its band of powers of
# t moves


@st.composite
def correction_cases(draw):
    """A random restricted algebra, three rows each of g and h, and a
    2-form."""
    R = draw(restricted_algebras())
    p, dim = R.prime, R.dim
    entries = st.integers(0, p - 1)
    rows = st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=3, max_size=3)
    npairs = dim * (dim - 1) // 2
    phi = draw(st.lists(entries, min_size=npairs, max_size=npairs))
    return R, np.array(draw(rows)), np.array(draw(rows)), cochain_from_vector(p, dim, 2, phi)


def m0_case(g, h):
    """Rows (g, h) on make_m0(7), a missing g the zero row, with a 2-form
    that pairs e_7 with e_1 and e_2."""
    p = 7
    phi = cochains.Cochain(p, p, 2, {(1, 7): 1, (2, 7): 3, (3, 5): 2})
    rows = lambda vectors: gf.normalize([[0] * p if v is None else v for v in vectors], p)
    return restricted.Family(p, [1] * p), rows(g), rows(h), phi


# e_3 heads: the tails hold no e_1, so the whole stack is zero after one step
ZERO_AT_FIRST_STEP = m0_case(
    [[0, 0, 2, 0, 0, 0, 0], [0, 0, 5, 0, 0, 0, 0], None],
    [[0, 0, 0, 1, 4, 0, 6], [0, 0, 0, 3, 0, 2, 1], [0, 0, 0, 1, 1, 1, 1]],
)
# e_1 heads: each step moves the one nonzero row a power of t up
BAND_RISES = m0_case(
    [[3, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [6, 0, 0, 0, 0, 0, 0]],
    [[0, 1, 0, 2, 0, 0, 5], [0, 4, 4, 0, 1, 0, 0], [0, 0, 1, 0, 0, 2, 0]],
)
# both kinds of head, and a zero row, in one stack
MIXED_HEADS = m0_case(
    [[0, 0, 2, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0, 0], None],
    [[0, 0, 0, 1, 4, 0, 6], [0, 1, 0, 2, 0, 0, 5], [0, 2, 1, 0, 0, 0, 3]],
)
# (e_2, e_1) stays at t^0 and (e_1, e_2) climbs, so the band has zero
# powers between them
INTERIOR_ZERO_POWERS = m0_case(
    [[0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], None],
    [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]],
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=correction_cases())
@example(case=ZERO_AT_FIRST_STEP)
@example(case=BAND_RISES)
@example(case=MIXED_HEADS)
@example(case=INTERIOR_ZERO_POWERS)
def test_correction_recursion_matches_its_oracles_on_random_constants(case):
    R, g, h, phi = case
    A = R.algebra
    corrections = restricted.jacobson_corrections(R, g, h)
    sums = rcoch.star_correction(A, rcoch.form_matrix(phi), g, h)
    for row, total, x, y in zip(corrections, sums, g, h):
        assert (row == jacobson_corrections_matrix_poly(R, x, y)).all()
        assert total == star_correction_naive(A, phi, x, y)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_correction_recursion_matches_its_oracles_on_m2(p):
    # m_2 under the zero p-map: scaled heads e_1 .. e_{p-2} and one random
    # head, random tails and one random 2-form per row.  [e_2, e_j] =
    # e_{j+2} carries the e_2 row up the powers of t, which on make_m0(p)
    # only an e_1 head does
    A = make_m2(p)
    R = restricted.RestrictedAlgebra(A, gf.zeros((p, p)))
    rng = np.random.default_rng(31 * p)
    g = np.diag(rng.integers(1, p, size=p))[: p - 2]
    g = np.vstack([g, rng.integers(0, p, size=(1, p))])
    h = rng.integers(0, p, size=g.shape)
    npairs = p * (p - 1) // 2
    phis = [cochain_from_vector(p, p, 2, rng.integers(0, p, size=npairs)) for _ in g]

    def top_power(algebra):
        """The highest power of t nonzero in ad(t g + h)^s g, 0 < s < p,
        for the e_2 row."""
        powers = [0]
        for steps in range(1, p):
            low, w = restricted.ad_recursion(algebra, g[1], h[1], g[1][None, :], steps)
            powers += [low + d for d in np.flatnonzero(w.any(axis=-1)).tolist()]
        return max(powers)

    assert top_power(A) > 0 == top_power(liealg.make_m0(p))
    corrections = restricted.jacobson_corrections(R, g, h)
    sums = rcoch.star_correction(A, rcoch.form_matrices(phis), g, h)
    for row, total, x, y, phi in zip(corrections, sums, g, h, phis):
        assert (row == jacobson_corrections_matrix_poly(R, x, y)).all()
        assert total == star_correction_naive(A, phi, x, y)
