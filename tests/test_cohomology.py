"""Cohomology dimensions and labeled bases against the closed-form tables."""

import numpy as np
import pytest

from filicoh import cochains, cohomology as coh, gf, liealg, restricted
from filicoh.cochains import dual_cochain

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
    # identical kernels, asserted on reduced bases, for every lambda shape
    A = liealg.make_m0(p)
    plain = gf.row_space_basis(
        np.stack([r.to_vector() for r in coh.h1(A).kernel_basis]), p
    )
    for lam in [(0,) * p, one_hot(p, 1), one_hot(p, p)] + rand_lams(p, 2, 5 * p):
        R = restricted.make_m0_lambda(p, lam)
        s = coh.h1_star(R)
        assert s.dimension == 2
        reduced = gf.row_space_basis(np.stack([r.to_vector() for r in s.kernel_basis]), p)
        assert (plain == reduced).all()


def test_h1_star_p2_depends_on_lambda():
    for lam, want_dim, want_reps in [
        ((0, 0), 2, ["e^1", "e^2"]),
        ((1, 0), 1, ["e^1"]),
        ((0, 1), 1, ["e^1"]),
        ((1, 1), 1, ["e^1"]),
    ]:
        s = coh.h1_star(restricted.make_m0_lambda(2, lam))
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


def test_h2_p7_golden_kernel_basis():
    s = coh.h2(liealg.make_m0(7))
    labels = [str(r) for r in s.kernel_basis]
    assert labels == [
        "e^{1,2}",
        "e^{1,3}",
        "e^{1,4}",
        "e^{1,5}",
        "e^{1,6}",
        "e^{1,7}",
        "e^{2,3}",
        "e^{2,5} - e^{3,4}",
        "e^{2,7} - e^{3,6} + e^{4,5}",
    ]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_reps_weight_homogeneous(p):
    s = coh.h2(liealg.make_m0(p))
    weights = {r.homogeneous_weight() for r in s.representatives}
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
        rows.append(r.to_vector())
    assert gf.rank(np.stack(rows), p) == base + s.dimension


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_d1_matrix_rank(p):
    assert gf.rank(cochains.d1_matrix(liealg.make_m0(p)), p) == p - 2


# ---------------------------------------------------------------------------
# degree 2, restricted


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_star_trivial_powers(p):
    s = coh.h2_star(restricted.make_m0_lambda(p, (0,) * p))
    assert s.dimension == (3 * p + 1) // 2
    assert s.kernel_dim == (5 * p - 3) // 2
    assert s.image_dim == p - 2


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_h2_star_nonzero_powers(p):
    for lam in [one_hot(p, 1), one_hot(p, p)] + rand_lams(p, 2, 7 * p):
        s = coh.h2_star(restricted.make_m0_lambda(p, lam))
        assert s.dimension == (3 * p - 3) // 2
        assert s.kernel_dim == (5 * p - 7) // 2
        assert s.image_dim == p - 2


def test_h2_star_p5_kernel_dim():
    s = coh.h2_star(restricted.make_m0_lambda(5, (0,) * 5))
    assert s.dimension == 8
    assert s.kernel_dim == 11


def test_h2_star_p3_nonzero_reps():
    s = coh.h2_star(restricted.make_m0_lambda(3, (1, 1, 1)))
    assert [str(r) for r in s.representatives] == [
        "(0, ebar^1)",
        "(0, ebar^2)",
        "(0, ebar^3)",
    ]


def test_h2_star_p7_trivial_reps():
    s = coh.h2_star(restricted.make_m0_lambda(7, (0,) * 7))
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
        s = coh.h2_star(restricted.make_m0_lambda(2, lam))
        assert s.dimension == want_dim
        assert [str(r) for r in s.representatives] == want_reps


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_splitting_at_trivial_powers(p):
    R = restricted.make_m0_lambda(p, (0,) * p)
    assert coh.h2_star(R).dimension == p + coh.h2(R.algebra).dimension


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h2_star_reps_are_restricted_cocycles(p):
    from filicoh import restricted_cochains as rcoch

    rng = np.random.default_rng(11 + p)
    lam = tuple(int(x) for x in rng.integers(0, p, size=p))
    R = restricted.make_m0_lambda(p, lam)
    s = coh.h2_star(R)
    for r in s.representatives:
        assert rcoch.d2_star(R, r).is_zero()


def test_h2_star_p3_all_lambda_sweep():
    # full enumeration: 27 lambda vectors
    for a in range(3):
        for b in range(3):
            for c in range(3):
                lam = (a, b, c)
                s = coh.h2_star(restricted.make_m0_lambda(3, lam))
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
        R = restricted.make_m0_lambda(p, lam)
        exp = coh.expected_summary(p, lam)
        for s in (coh.h1(R.algebra), coh.h1_star(R), coh.h2(R.algebra), coh.h2_star(R)):
            report = coh.compare(s, exp)
            assert report["ok"], report


def test_compare_flags_single_field():
    p = 5
    R = restricted.make_m0_lambda(p, (0,) * p)
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
        kernel_basis=s.kernel_basis + [s.representatives[0]],
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
                R = restricted.make_m0_lambda(3, lam)
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
    s = coh.h2_star(restricted.make_m0_lambda(3, (0, 1, 2)))
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
        coh.CohomologySummary(3, None, 2, False, 2, 4, 1, [], [])


def test_standard_d2_matrix_is_read_only():
    m = coh._standard_d2_matrix(5)
    with pytest.raises(ValueError):
        m[0, 0] = 1
    assert coh._standard_d2_matrix(5) is m
