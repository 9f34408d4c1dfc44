"""Cohomology dimensions and labeled bases against the closed-form tables."""

import functools
import itertools
import math

import numpy as np
import pytest

from filicoh import cli, cochains, cohomology as coh, gf, liealg, restricted
from filicoh import restricted_cochains as rcoch
from filicoh.cochains import dual_cochain
from helpers import (
    d1_star,
    d1_star_matrix,
    d2_star,
    dense_d2_star,
    dense_rows,
    extend_ordinary,
    homogeneous_weight,
    mat_mul,
    omega_rows,
    power_rows,
    sparse,
    to_vector,
)
from test_acceptance import criterion_lambdas

ODD_PRIMES = [3, 5, 7, 11]


def one_hot(p, k):
    lam = [0] * p
    lam[k - 1] = 1
    return tuple(lam)


def rand_lams(p, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lam = tuple(int(x) for x in rng.integers(0, p, size=p))
        if any(lam):
            out.append(lam)
    return out


# ---------------------------------------------------------------------------
# degree 1


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h1_dimension_and_reps(p):
    s = coh.h1(liealg.make_m0(p))
    assert (s.dimension, s.kernel_dim, s.image_dim) == (2, 2, 0)
    assert [str(r) for r in s.representatives] == ["e^1", "e^2"]


def test_h1_p2():
    s = coh.h1(liealg.make_m0(2))
    assert s.dimension == 2


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h1_star_matches_h1_odd_primes(p):
    # identical groups for every lambda shape, and identical kernels of the
    # dense d1 and d1*, asserted on reduced bases
    A = liealg.make_m0(p)
    h1 = coh.h1(A)
    plain = gf.rref(gf.kernel_basis(cochains.d1_matrix(A), p), p)[0]
    for lam in [(0,) * p, one_hot(p, 1), one_hot(p, p)] + rand_lams(p, 2, 5 * p):
        R = restricted.Family(p, lam)
        s = coh.h1_star(R)
        assert s.dimension == 2
        assert (s.kernel_dim, s.representatives) == (h1.kernel_dim, h1.representatives)
        assert (plain == gf.rref(gf.kernel_basis(d1_star_matrix(R), p), p)[0]).all()


def test_h1_star_p2_depends_on_lambda():
    for lam, want_dim, want_reps in [
        ((0, 0), 2, ["e^1", "e^2"]),
        ((1, 0), 1, ["e^1"]),
        ((0, 1), 1, ["e^1"]),
        ((1, 1), 1, ["e^1"]),
    ]:
        s = coh.h1_star(restricted.Family(2, lam))
        assert s.dimension == want_dim
        assert [str(r) for r in s.representatives] == want_reps


# ---------------------------------------------------------------------------
# degree 2, ordinary


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_dimensions(p):
    s = coh.h2(liealg.make_m0(p))
    assert s.dimension == (p + 1) // 2
    assert s.kernel_dim == (3 * p - 3) // 2
    assert s.image_dim == p - 2


def test_h2_p2():
    s = coh.h2(liealg.make_m0(2))
    assert (s.dimension, s.kernel_dim, s.image_dim) == (1, 1, 0)
    assert [str(r) for r in s.representatives] == ["e^{1,2}"]


def test_h2_p3_reps():
    s = coh.h2(liealg.make_m0(3))
    assert [str(r) for r in s.representatives] == ["e^{1,3}", "e^{2,3}"]


def test_h2_p7_golden_reps():
    s = coh.h2(liealg.make_m0(7))
    assert [str(r) for r in s.representatives] == [
        "e^{1,7}",
        "e^{2,3}",
        "e^{2,5} - e^{3,4}",
        "e^{2,7} - e^{3,6} + e^{4,5}",
    ]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_kernel_is_paper_cocycles(p):
    # ker d2 is spanned by the e^{1,j} and the phi_k, as reduced bases
    A = liealg.make_m0(p)
    cocycles = [dual_cochain(p, p, (1, j)) for j in range(2, p + 1)]
    cocycles += [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
    assert coh.h2(A).kernel_dim == len(cocycles)
    paper = gf.rref(np.stack([to_vector(c) for c in cocycles]), p)[0]
    assert (gf.rref(gf.kernel_basis(cochains.d2_matrix(A), p), p)[0] == paper).all()


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_reps_weight_homogeneous(p):
    s = coh.h2(liealg.make_m0(p))
    weights = {homogeneous_weight(r) for r in s.representatives}
    assert None not in weights
    assert weights == {p + 1} | set(range(5, p + 3, 2))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_reps_are_cocycles_independent_mod_image(p):
    A = liealg.make_m0(p)
    s = coh.h2(A)
    image = cochains.d1_matrix(A).T
    rows = list(image)
    base = gf.rank(image, p)
    for r in s.representatives:
        assert cochains.d2(A, r).is_zero()
        rows.append(to_vector(r))
    assert gf.rank(np.stack(rows), p) == base + s.dimension


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_d1_matrix_rank(p):
    assert gf.rank(cochains.d1_matrix(liealg.make_m0(p)), p) == p - 2


# ---------------------------------------------------------------------------
# degree 2, restricted


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_star_trivial_powers(p):
    s = coh.h2_star(restricted.Family(p, (0,) * p))
    assert s.dimension == (3 * p + 1) // 2
    assert s.kernel_dim == (5 * p - 3) // 2
    assert s.image_dim == p - 2


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_star_nonzero_powers(p):
    for lam in [one_hot(p, 1), one_hot(p, p)] + rand_lams(p, 2, 7 * p):
        s = coh.h2_star(restricted.Family(p, lam))
        assert s.dimension == (3 * p - 3) // 2
        assert s.kernel_dim == (5 * p - 7) // 2
        assert s.image_dim == p - 2


def test_h2_star_p5_kernel_dim():
    s = coh.h2_star(restricted.Family(5, (0,) * 5))
    assert s.dimension == 8
    assert s.kernel_dim == 11


def test_h2_star_p3_nonzero_reps():
    s = coh.h2_star(restricted.Family(3, (1, 1, 1)))
    assert [str(r) for r in s.representatives] == [
        "(0, ebar^1)",
        "(0, ebar^2)",
        "(0, ebar^3)",
    ]


def test_h2_star_p7_trivial_reps():
    s = coh.h2_star(restricted.Family(7, (0,) * 7))
    labels = [str(r) for r in s.representatives]
    assert labels[:7] == [f"(0, ebar^{k})" for k in range(1, 8)]
    assert labels[7:] == [
        "(e^{1,7}, 0)",
        "(e^{2,3}, 0)",
        "(e^{2,5} - e^{3,4}, 0)",
        "(e^{2,7} - e^{3,6} + e^{4,5}, 0)",
    ]


def test_h2_star_p2_table():
    for lam, want_dim, want_reps in [
        ((0, 0), 3, ["(0, ebar^1)", "(0, ebar^2)", "(e^{1,2}, 0)"]),
        ((1, 0), 1, ["(0, ebar^2)"]),
        ((0, 1), 1, ["(0, ebar^1)"]),
        ((1, 1), 1, ["(0, ebar^1)"]),
    ]:
        s = coh.h2_star(restricted.Family(2, lam))
        assert s.dimension == want_dim
        assert [str(r) for r in s.representatives] == want_reps


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_splitting_at_trivial_powers(p):
    R = restricted.Family(p, (0,) * p)
    assert coh.h2_star(R).dimension == p + coh.h2(R.algebra).dimension


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h2_star_reps_are_restricted_cocycles(p):
    rng = np.random.default_rng(11 + p)
    lam = tuple(int(x) for x in rng.integers(0, p, size=p))
    R = restricted.Family(p, lam)
    s = coh.h2_star(R)
    for r in s.representatives:
        alpha, beta = d2_star(R, r)
        assert alpha.is_zero() and not beta.any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_image_dim_is_rank_of_image(p):
    # oracle: rank of the images of the degree-1 duals, evaluated one at a
    # time, over the acceptance grid of lambda vectors
    A = liealg.make_m0(p)
    duals = [dual_cochain(p, p, (k,)) for k in range(1, p + 1)]
    assert coh.h1(A).image_dim == 0
    assert coh.h2(A).image_dim == gf.rank(
        np.stack([to_vector(cochains.d1(A, psi)) for psi in duals]), p
    )
    for lam in criterion_lambdas(p):
        R = restricted.Family(p, lam)
        assert coh.h1_star(R).image_dim == 0
        rows = np.stack([to_vector(d1_star(R, psi)) for psi in duals])
        assert coh.h2_star(R).image_dim == gf.rank(rows, p), lam


def test_h2_star_p3_all_lambda_sweep():
    # full enumeration: 27 lambda vectors
    for a in range(3):
        for b in range(3):
            for c in range(3):
                lam = (a, b, c)
                s = coh.h2_star(restricted.Family(3, lam))
                want = 5 if not any(lam) else 3
                assert s.dimension == want, lam


# ---------------------------------------------------------------------------
# expected table and compare


def test_expected_summary_examples():
    e7 = coh.expected_summary(7, (0,) * 7)
    assert e7.h2.dimension == 4
    assert e7.h2_star.dimension == 11
    e3 = coh.expected_summary(3, (0, 0, 1))
    assert e3.h2_star.dimension == 3
    e2 = coh.expected_summary(2, (0, 0))
    assert e2.h2_star.dimension == 3


def test_expected_summary_validates_input():
    with pytest.raises(ValueError):
        coh.expected_summary(4, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        coh.expected_summary(5, (0, 0))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_compare_all_pass(p):
    rng = np.random.default_rng(p)
    lams = [(0,) * p, tuple(int(x) for x in rng.integers(0, p, size=p))]
    for lam in lams:
        R = restricted.Family(p, lam)
        exp = coh.expected_summary(p, lam)
        for s in (coh.h1(R.algebra), coh.h1_star(R), coh.h2(R.algebra), coh.h2_star(R)):
            report = coh.compare(s, exp)
            assert report["ok"], report


def test_compare_flags_single_field():
    p = 5
    R = restricted.Family(p, (0,) * p)
    s = coh.h2(R.algebra)
    s = coh.CohomologySummary(
        prime=s.prime,
        lam=s.lam,
        degree=s.degree,
        restricted=s.restricted,
        dimension=s.dimension,
        kernel_dim=s.kernel_dim + 1,
        image_dim=s.image_dim + 1,
        representatives=s.representatives,
    )
    report = coh.compare(s, coh.expected_summary(p, (0,) * p))
    assert not report["ok"]
    bad = [c["field"] for c in report["checks"] if not c["ok"]]
    assert bad == ["kernel_dim", "image_dim"]


def test_compare_never_raises_on_prime_mismatch():
    s = coh.h2(liealg.make_m0(3))
    report = coh.compare(s, coh.expected_summary(5, (0,) * 5))
    assert not report["ok"]


def test_compare_p3_full_sweep():
    reports = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                lam = (a, b, c)
                R = restricted.Family(3, lam)
                exp = coh.expected_summary(3, lam)
                ok = all(
                    coh.compare(s, exp)["ok"]
                    for s in (
                        coh.h1(R.algebra),
                        coh.h1_star(R),
                        coh.h2(R.algebra),
                        coh.h2_star(R),
                    )
                )
                reports.append(ok)
    assert len(reports) == 27
    assert all(reports)


def test_summary_json_shape():
    s = coh.h2_star(restricted.Family(3, (0, 1, 2)))
    data = coh.summary_to_json(s)
    assert data["prime"] == 3
    assert data["lambda"] == [0, 1, 2]
    assert data["degree"] == 2
    assert data["restricted"] is True
    assert data["dim"] == s.dimension
    assert data["representatives"] == [str(r) for r in s.representatives]
    plain = coh.summary_to_json(coh.h2(liealg.make_m0(3)))
    assert plain["lambda"] is None


def test_summary_consistency_guard():
    with pytest.raises(ValueError):
        coh.CohomologySummary(3, None, 2, False, 2, 4, 1, [])


def test_d2_rows_is_read_only():
    # every memoised reduction is shared: read-only, built once per
    # (p, degree); a p-power key only narrows its kill mask
    for degree in (1, 2):
        entry = coh._reduced(5, degree)
        assert not entry.killed.flags.writeable
        with pytest.raises(ValueError):
            entry.killed[0] = 0
        assert coh._reduced(5, degree) is entry
        assert isinstance(entry.pivots, tuple)
        assert coh._kernel(5, degree, ()) == (math.comb(5, degree) - len(entry.pivots), entry.killed)
        kernel_dim, killed = coh._kernel(5, degree, ((0, 0, 0, 0, 1),))
        assert kernel_dim <= math.comb(5, degree) - len(entry.pivots)
        assert not (killed & ~entry.killed).any()


@pytest.mark.parametrize("degree", [1, 2])
def test_reduction_holds_only_pivots_and_kill_mask(degree):
    # at p = 31 an entry keeps no kernel nor any block: the only array is
    # the read-only kill mask, one flag per ordinary candidate
    p = 31
    entry = coh._reduced(p, degree)
    arrays = [name for name, value in vars(entry).items() if isinstance(value, np.ndarray)]
    assert arrays == ["killed"]
    assert entry.killed.dtype == bool and not entry.killed.flags.writeable
    assert entry.killed.shape == (len(coh._candidates(p, degree, False)[0]),)
    assert all(isinstance(c, int) for c in entry.pivots)


# ---------------------------------------------------------------------------
# the per-prime reduced route against the dense stacks

GRID_PRIMES = [2, 3, 5, 7, 11, 13]
DENSE_PRIMES = GRID_PRIMES + [17, 19]
ORACLE_PRIMES = [p for p in range(2, 32) if gf.is_prime(p)]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert (got == want).all()


def induced_beta(powers, p):
    """The sparse induced-beta rows of d2* for the rows of powers,
    densified over the pair duals."""
    return dense_rows(coh._induced_rows(p, 2, powers), math.comb(p, 2))


@functools.lru_cache(maxsize=None)
def d_pivots(p, degree):
    """The pivot columns of the rref of the dense d1 or d2 of make_m0(p)."""
    A = liealg.make_m0(p)
    return tuple(gf.rref(cochains.d1_matrix(A) if degree == 1 else cochains.d2_matrix(A), p)[1])


def assert_matches_dense(p, degree, powers, dense):
    """The kernel of (p, degree, powers) against one rref of the dense
    matrix, whose columns start with those of d1 or d2: the same kernel
    dimension on those columns and the same candidates killed; and the
    memoised reduction of d against the rref of d alone: the same pivots.
    Returns the rank of the dense matrix."""
    r, pivots = gf.rref(dense, p)
    assert coh._reduced(p, degree).pivots == d_pivots(p, degree)
    n = math.comb(p, degree)
    kernel_dim, killed = coh._kernel(p, degree, powers)
    assert kernel_dim == n - len(pivots)
    vectors = np.stack([to_vector(c) for c in coh._candidates(p, degree, False)[0]])
    want = ~mat_mul(r[: len(pivots), :n], vectors.T, p).any(axis=0)
    assert_same_array(killed, want)
    return len(pivots)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_h2_kernel_matches_dense_d2(p):
    A = liealg.make_m0(p)
    dense = cochains.d2_matrix(A)
    assert coh.h2(A).kernel_dim == len(gf.kernel_basis(dense, p))
    assert_matches_dense(p, 2, (), dense)


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_h2_star_kernel_matches_dense_stack(p):
    for lam in criterion_lambdas(p):
        R = restricted.Family(p, lam)
        dense = dense_d2_star(R)
        n = p * (p - 1) // 2
        assert_same_array(induced_beta(R.power_matrix, p), dense[-p * p :, :n])
        assert coh.h2_star(R).kernel_dim == len(gf.kernel_basis(dense, p))
        assert_matches_dense(p, 2, power_rows(R), dense)


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_h1_star_kernel_matches_dense_stack(p):
    for lam in criterion_lambdas(p):
        R = restricted.Family(p, lam)
        dense = d1_star_matrix(R)
        assert coh.h1_star(R).kernel_dim == len(gf.kernel_basis(dense, p))
        assert_matches_dense(p, 1, power_rows(R), dense)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ind2_block_matches_ind2_matrix_for_any_powers(p):
    # on the family only e_p^[p] terms occur; random powers reach every entry
    rng = np.random.default_rng(3 * p)
    powers = rng.integers(0, p, size=(p, p))
    R = restricted.RestrictedAlgebra(liealg.make_m0(p), powers)
    n = p * (p - 1) // 2
    assert_same_array(induced_beta(powers, p), dense_d2_star(R)[-p * p :, :n])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_family_power_rows_match_rref(p):
    # the key read off lambda is the rref route's: every lambda at p = 2
    # and 3, the criterion grid above
    if p <= 3:
        lams = list(itertools.product(range(p), repeat=p))
    else:
        lams = criterion_lambdas(p)
    for lam in lams:
        R = restricted.Family(p, lam)
        assert coh._power_rows(lam) == power_rows(R), lam
        assert coh._omega_rows(p, lam) == omega_rows(R), lam


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_power_row_basis_keeps_beta_row_space(p):
    # n rows per basis vector of the powers span the same rows as all n^2,
    # for powers of every rank, so the per-lambda rref is that of the dense block
    rng = np.random.default_rng(17 * p)
    for rank in range(p + 1):
        powers = mat_mul(rng.integers(0, p, size=(p, rank)), rng.integers(0, p, size=(rank, p)), p)
        R = restricted.RestrictedAlgebra(liealg.make_m0(p), powers)
        basis = np.array(power_rows(R), dtype=np.int64).reshape(-1, p)
        assert len(basis) == gf.rank(powers, p)
        got = gf.rref(induced_beta(basis, p), p)
        want = gf.rref(induced_beta(powers, p), p)
        assert got[1] == want[1]
        assert_same_array(got[0][: len(got[1])], want[0][: len(want[1])])


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_reduction_matches_dense_rref(p):
    # the block route against one rref of the dense stack, for lambda = 0
    # (d1 and d2 alone) and a one-hot lambda (the line of e_p)
    for lam in ((0,) * p, one_hot(p, 1)):
        R = restricted.Family(p, lam)
        d2_star = dense_d2_star(R)
        assert_matches_dense(p, 1, power_rows(R), d1_star_matrix(R))
        rank = assert_matches_dense(p, 2, power_rows(R), d2_star)
        # h2_star counts the zero Frobenius columns of d2* in its kernel,
        # and the Frobenius duals that lead its candidates are cocycles
        assert coh.h2_star(R).kernel_dim == d2_star.shape[1] - rank
        frobenius = np.stack([to_vector(c) for c in coh._candidates(p, 2, True)[0][:p]])
        assert not mat_mul(d2_star, frobenius.T, p).any()


def power_matrices(p, seed):
    """The one-hot power lines e_k, the mixed line e_1 + e_p and seeded
    random power matrices of every rank up to p."""
    rng = np.random.default_rng(seed)
    mixed = np.array(one_hot(p, 1)) + np.array(one_hot(p, p))
    yield from ([one_hot(p, k)] * p for k in range(1, p + 1))
    yield [mixed] * p
    for rank in range(p + 1):
        yield mat_mul(rng.integers(0, p, size=(p, rank)), rng.integers(0, p, size=(rank, p)), p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduction_splits_any_graded_beta_rows(p):
    # induced-beta rows of any power matrix, within one weight or across
    # several, reduce d2* to the pivots and kill mask of the dense rref
    for powers in power_matrices(p, 23 * p):
        R = restricted.RestrictedAlgebra(liealg.make_m0(p), powers)
        assert_matches_dense(p, 2, power_rows(R), dense_d2_star(R))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduction_splits_graded_omega_rows(p):
    # omega rows of any power matrix, within one weight or across several,
    # reduce d1* to the pivots and kill mask of the dense rref
    for powers in power_matrices(p, 29 * p):
        R = restricted.RestrictedAlgebra(liealg.make_m0(p), powers)
        assert_matches_dense(p, 1, power_rows(R), d1_star_matrix(R))


@pytest.mark.parametrize("p", [2, 5, 13])
def test_per_lambda_work_eliminates_only_the_induced_rows(p, monkeypatch):
    # once lambda = 0 and one nonzero lambda have filled the memo, a new
    # lambda assembles no d2 and reduces nothing new, and rref is never
    # called: the family's power rows and W are read off lambda
    coh._reduced.cache_clear()
    coh._group.cache_clear()
    lams = criterion_lambdas(p)
    for lam in lams[:2]:
        R = restricted.Family(p, lam)
        coh.h1_star(R)
        coh.h2_star(R)
    misses = coh._reduced.cache_info().misses
    seen, rref = [], gf.rref

    def recording_rref(m, q):
        seen.append(np.shape(m)[0])
        return rref(m, q)

    def no_d2_matrix(algebra):
        raise AssertionError("d2_matrix called per lambda")

    differential_rows = cochains.differential_rows

    def no_d2_rows(algebra, degree):
        if degree == 2:
            raise AssertionError("d2 assembled per lambda")
        return differential_rows(algebra, degree)

    monkeypatch.setattr(gf, "rref", recording_rref)
    monkeypatch.setattr(cochains, "d2_matrix", no_d2_matrix)
    monkeypatch.setattr(cochains, "differential_rows", no_d2_rows)
    for lam in lams[2:]:
        R = restricted.Family(p, lam)
        coh.h1_star(R)
        coh.h2_star(R)
    assert not seen
    assert coh._reduced.cache_info().misses == misses


@pytest.mark.parametrize("p", [13, 31])
def test_cold_prime_assembles_each_differential_once(p, monkeypatch):
    # lambda = 0 and then a nonzero lambda (the line of e_p) share one
    # assembly and elimination of d1 and one of d2
    for memo in (coh._reduced, coh._group, coh._candidates):
        memo.cache_clear()
    calls = []
    differential_rows = cochains.differential_rows

    def counting_rows(algebra, degree):
        calls.append(degree)
        return differential_rows(algebra, degree)

    monkeypatch.setattr(cochains, "differential_rows", counting_rows)
    for lam in ((0,) * p, one_hot(p, 1)):
        assert cli.dims_row(p, lam)["ok"]
    assert sorted(calls) == [1, 2]


FRONTIER_PRIMES = [p for p in range(2, 212) if gf.is_prime(p)]


@pytest.mark.parametrize("p", FRONTIER_PRIMES)
def test_dims_row_matches_closed_forms_to_the_frontier(p):
    # the sparse route keeps every prime up to 211 in reach: lambda = 0 and
    # one seeded nonzero lambda against the closed-form table
    for lam in ((0,) * p, rand_lams(p, 1, seed=p)[0]):
        row = cli.dims_row(p, lam)
        want = coh.expected_summary(p, lam)
        got = {name: g["computed"] for name, g in row["groups"].items()}
        assert got == {
            "H1": want.h1.dimension,
            "H1+": want.h1_star.dimension,
            "H2": want.h2.dimension,
            "H2+": want.h2_star.dimension,
        }
        assert row["ok"], row


@pytest.mark.parametrize("p", [2, 5, 13])
def test_reduction_memo_holds_two_row_spaces_per_degree(p):
    # on the family the p-powers span 0 or the line of e_p, so the whole
    # lambda grid adds one reduction of d, the ordinary group that spans
    # ker d and two restricted selections per degree; H2+ also keys W,
    # which is 0 from p = 3 on and at p = 2 runs over 0 and the three
    # lines: four selections
    keys = {1: 3, 2: 5 if p == 2 else 3}
    coh._reduced.cache_clear()
    coh._group.cache_clear()
    lams, _ = cli.resolve_lambdas(p, "all")
    for degree, group in ((1, coh.h1_star), (2, coh.h2_star)):
        for lam in lams:
            group(restricted.Family(p, lam))
        assert coh._reduced.cache_info().currsize == degree
        assert coh._group.cache_info().currsize == sum(keys[d] for d in range(1, degree + 1))
    assert coh._group.cache_info().maxsize >= keys[1] + keys[2]  # one prime's keys fit


def per_lambda_greedy_pass(R, degree):
    """H1+ or H2+ as (representatives as strings, kernel_dim, image_dim)
    by a greedy pass over the image of this lambda's own d1*, the rows
    d1*(e^k): oracle for the memoised selection over the canonical image."""
    p = R.prime
    kernel_dim, killed = coh._kernel(p, degree, power_rows(R))
    if degree == 1:
        image, forms = (), coh._candidates(p, 1, False)[0]
    else:
        kernel_dim += p
        killed = np.concatenate([np.ones(p, dtype=bool), killed])
        image, forms = d1_star_matrix(R).T, coh._candidates(p, 2, True)[0]
    span = gf.SpanTracker(p, map(sparse, image))
    image_dim = span.rank
    reps = [str(c) for c, k in zip(forms, killed) if k and span.add(sparse(to_vector(c)))]
    return reps, kernel_dim, image_dim


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_restricted_selection_matches_per_lambda_greedy_pass(p):
    # every lambda at p = 2 and 3, where W, the row space of omega on ker d1,
    # is the line of lambda at p = 2; the CLI's "all" grid above
    if p <= 3:
        lams = list(itertools.product(range(p), repeat=p))
    else:
        lams, _ = cli.resolve_lambdas(p, "all")
    for lam in lams:
        R = restricted.Family(p, lam)
        for degree, group in ((1, coh.h1_star), (2, coh.h2_star)):
            s = group(R)
            got = ([str(r) for r in s.representatives], s.kernel_dim, s.image_dim)
            assert got == per_lambda_greedy_pass(R, degree), (lam, degree)
            assert s.lam == tuple(lam)


def test_lambda_grid_runs_the_greedy_pass_at_most_twice_per_degree(monkeypatch):
    # with d reduced and the ordinary groups memoised, the span trackers
    # left are one greedy pass per key and one rank of the induced rows on
    # ker d for the line of e_p (lambda = 0 reads the kernel of d itself):
    # two keys, three trackers per degree
    p = 13
    coh._group.cache_clear()
    lams, _ = cli.resolve_lambdas(p, "all")
    for powers in {coh._power_rows(lam) for lam in lams}:
        for degree in (1, 2):
            coh._kernel(p, degree, powers)
    passes = []

    class CountingSpanTracker(gf.SpanTracker):
        def __init__(self, *args):
            passes.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gf, "SpanTracker", CountingSpanTracker)
    for group in (coh.h1_star, coh.h2_star):
        passes.clear()
        for lam in lams:
            group(restricted.Family(p, lam))
        assert len(passes) == 3, group


def test_ordinary_summaries_do_not_share_representatives():
    A = liealg.make_m0(5)
    for group in (coh.h1, coh.h2):
        first = group(A)
        first.representatives.clear()
        assert len(group(A).representatives) == first.dimension


def test_restricted_summaries_do_not_share_representatives():
    R = restricted.Family(3, (0, 1, 2))
    first = coh.h2_star(R)
    first.representatives.clear()
    assert len(coh.h2_star(R).representatives) == first.dimension


@pytest.mark.parametrize("p", GRID_PRIMES)
def test_d1_star_matrix_columns_are_d1_star(p):
    for lam in criterion_lambdas(p):
        R = restricted.Family(p, lam)
        m = d1_star_matrix(R)
        for k in range(1, p + 1):
            want = to_vector(d1_star(R, dual_cochain(p, p, (k,))))
            assert (m[:, k - 1] == want).all(), (lam, k)


@pytest.mark.parametrize("p", [3, 5])
def test_ordinary_groups_reject_algebras_off_the_family(p):
    E = extend_ordinary(liealg.make_m0(p), dual_cochain(p, p, (1, p)))
    for group in (coh.h1, coh.h2):
        with pytest.raises(ValueError, match="make_m0"):
            group(E)


@pytest.mark.parametrize("p", [3, 5])
def test_restricted_groups_reject_algebras_off_the_family(p):
    # the member's powers on a general RestrictedAlgebra, and a stack of
    # two members, are refused: the groups take one Family member
    member = restricted.Family(p, one_hot(p, 1))
    general = restricted.RestrictedAlgebra(member.algebra, member.power_matrix)
    stack = restricted.Family(p, [one_hot(p, 1), one_hot(p, 2)])
    for group in (coh.h1_star, coh.h2_star):
        for R in (general, stack):
            with pytest.raises(ValueError, match="one member of the family"):
                group(R)
