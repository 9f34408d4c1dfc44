"""Diagonal isomorphism search, class partitions, and the condition-set report."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filicoh import isoclass
from filicoh.cli import resolve_lambdas
from filicoh.isoclass import (
    diag_iso_check,
    iso_bruteforce,
    partition_classes,
    proof_transform,
    proposition_formula_check,
    scale_factors,
)
from helpers import orbit_min_partition


def all_lambdas(p):
    return [tuple(v) for v in itertools.product(range(p), repeat=p)]


def pairwise_partition(p, lams):
    """The reference partition: each vector joins the first class whose
    first member the diagonal search finds it isomorphic to."""
    classes = []
    for lam in lams:
        lam = tuple(int(x) % p for x in lam)
        for cls in classes:
            if iso_bruteforce(p, lam, cls[0]) is not None:
                cls.append(lam)
                break
        else:
            classes.append([lam])
    return classes


# ---------------------------------------------------------------------------
# scale factors


def test_scale_factors_recursion():
    # mu_k = mu2 * mu1^(k-2) for k >= 3
    p = 7
    mus = scale_factors(p, 3, 5)
    assert len(mus) == p
    assert mus[0] == 3 and mus[1] == 5
    for k in range(3, p + 1):
        assert mus[k - 1] == (5 * pow(3, k - 2, p)) % p


def test_scale_factors_p2():
    assert scale_factors(2, 1, 1) == (1, 1)


# ---------------------------------------------------------------------------
# diag_iso_check


def test_identity_map_fixes_every_lambda():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        for _ in range(5):
            lam = tuple(int(x) for x in rng.integers(0, p, size=p))
            assert diag_iso_check(p, lam, lam, 1, 1)


def test_zero_lambda_isomorphic_under_any_scalars():
    p = 5
    zero = (0,) * p
    for mu1 in range(1, p):
        for mu2 in range(1, p):
            assert diag_iso_check(p, zero, zero, mu1, mu2)


def test_check_matches_transform():
    # diag_iso_check accepts exactly the pairs built by proof_transform
    rng = np.random.default_rng(23)
    for p in (3, 5, 7):
        for _ in range(10):
            lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
            mu1 = int(rng.integers(1, p))
            mu2 = int(rng.integers(1, p))
            lam = proof_transform(p, lam2, mu1, mu2)
            assert diag_iso_check(p, lam, lam2, mu1, mu2)


def test_scaled_top_entry_needs_matching_ratio():
    # p=3, lam=(0,0,1) vs (0,0,2): mu_3 = mu2*mu1, condition
    # 1 * mu_3 = mu_3^3 * 2, i.e. mu_3^2 = 2^{-1} = 2; no square root of 2
    # mod 3 exists, so no (mu1, mu2) works
    for mu1 in range(1, 3):
        for mu2 in range(1, 3):
            assert not diag_iso_check(3, (0, 0, 1), (0, 0, 2), mu1, mu2)
    assert iso_bruteforce(3, (0, 0, 1), (0, 0, 2)) is None


def test_zero_scalars_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        diag_iso_check(5, (0,) * 5, (0,) * 5, 0, 1)
    with pytest.raises(ValueError, match="nonzero"):
        diag_iso_check(5, (0,) * 5, (0,) * 5, 2, 5)  # 5 = 0 mod 5


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="not prime"):
        diag_iso_check(4, (0,) * 4, (0,) * 4, 1, 1)
    with pytest.raises(ValueError, match="one entry per basis vector"):
        diag_iso_check(5, (0, 0, 0), (0,) * 5, 1, 1)
    with pytest.raises(ValueError, match="p <= 31"):
        iso_bruteforce(37, (0,) * 37, (0,) * 37)


# ---------------------------------------------------------------------------
# iso_bruteforce


def test_first_witness_is_lexicographic():
    # lam = lam' = 0 accepts every pair, so the search returns (1, 1)
    w = iso_bruteforce(5, (0,) * 5, (0,) * 5)
    assert w == (1, 1)


def test_witness_actually_verifies():
    rng = np.random.default_rng(31)
    for p in (3, 5, 7):
        for _ in range(10):
            lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
            mu1 = int(rng.integers(1, p))
            mu2 = int(rng.integers(1, p))
            lam = proof_transform(p, lam2, mu1, mu2)
            w = iso_bruteforce(p, lam, lam2)
            assert w is not None
            assert diag_iso_check(p, lam, lam2, *w)


def test_search_checks_its_arguments_once(monkeypatch):
    # every (mu1, mu2) is tested on the arguments checked at the start, and
    # the first witness is the one diag_iso_check finds pair by pair
    checked = []
    real = isoclass._check_args

    def counted(*args):
        checked.append(args)
        return real(*args)

    rng = np.random.default_rng(33)
    found = 0
    for p in (3, 5, 7):
        for _ in range(6):
            lam, lam2 = (tuple(int(x) for x in rng.integers(0, p, size=p)) for _ in range(2))
            if rng.random() < 0.5:
                lam = proof_transform(p, lam2, int(rng.integers(1, p)), int(rng.integers(1, p)))
            pairs = itertools.product(range(1, p), repeat=2)
            first = next((mus for mus in pairs if diag_iso_check(p, lam, lam2, *mus)), None)
            monkeypatch.setattr(isoclass, "_check_args", counted)
            w = iso_bruteforce(p, lam, lam2)
            monkeypatch.undo()
            assert w == first
            assert len(checked) == 1
            checked.clear()
            found += w is not None
    assert 0 < found < 18


def test_relation_is_reflexive():
    rng = np.random.default_rng(37)
    for p in (2, 3, 5):
        for _ in range(5):
            lam = tuple(int(x) for x in rng.integers(0, p, size=p))
            w = iso_bruteforce(p, lam, lam)
            assert w is not None


def test_relation_is_symmetric():
    p = 5
    lams = all_lambdas(3)
    for lam in lams:
        for lam2 in ((0, 0, 1), (1, 0, 0), (1, 2, 0)):
            fwd = iso_bruteforce(3, lam, lam2)
            back = iso_bruteforce(3, lam2, lam)
            assert (fwd is None) == (back is None)


def test_relation_is_transitive_on_samples():
    rng = np.random.default_rng(41)
    p = 5
    for _ in range(20):
        base = tuple(int(x) for x in rng.integers(0, p, size=p))
        a = proof_transform(p, base, int(rng.integers(1, p)), int(rng.integers(1, p)))
        b = proof_transform(p, base, int(rng.integers(1, p)), int(rng.integers(1, p)))
        assert iso_bruteforce(p, a, base) is not None
        assert iso_bruteforce(p, base, b) is not None
        assert iso_bruteforce(p, a, b) is not None


def test_verdict_invariant_under_transforming_both_sides():
    rng = np.random.default_rng(43)
    p = 5
    for _ in range(20):
        lam = tuple(int(x) for x in rng.integers(0, p, size=p))
        lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
        before = iso_bruteforce(p, lam, lam2) is not None
        lam_t = proof_transform(p, lam, int(rng.integers(1, p)), int(rng.integers(1, p)))
        lam2_t = proof_transform(p, lam2, int(rng.integers(1, p)), int(rng.integers(1, p)))
        after = iso_bruteforce(p, lam_t, lam2_t) is not None
        assert before == after


def test_p2_verdicts():
    # at p=2 the only scalar pair is (1,1) and mu_2 = mu2 = 1, so the
    # condition is lam_k = lam'_k exactly
    for lam in all_lambdas(2):
        for lam2 in all_lambdas(2):
            w = iso_bruteforce(2, lam, lam2)
            assert (w is not None) == (lam == lam2)


# ---------------------------------------------------------------------------
# proof_transform


def test_transform_with_unit_scalars_is_identity():
    lam = (1, 4, 0, 2, 3)
    assert proof_transform(5, lam, 1, 1) == lam


def test_transform_preserves_zero_pattern():
    rng = np.random.default_rng(47)
    p = 7
    for _ in range(10):
        lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
        lam = proof_transform(p, lam2, int(rng.integers(1, p)), int(rng.integers(1, p)))
        assert tuple(x == 0 for x in lam) == tuple(x == 0 for x in lam2)


# ---------------------------------------------------------------------------
# partition_classes


def test_p3_partition_of_all_27():
    classes = partition_classes(3, all_lambdas(3))
    sizes = sorted(len(c) for c in classes)
    assert len(classes) == 12
    assert sizes == [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4]
    # the null vector is alone in its class
    zero_cls = [c for c in classes if (0, 0, 0) in c]
    assert zero_cls == [[(0, 0, 0)]]


def test_p3_class_sizes_divide_scalar_group_order():
    # orbit sizes divide |(F_3^*)^2| = 4
    classes = partition_classes(3, all_lambdas(3))
    for cls in classes:
        assert 4 % len(cls) == 0


def test_partition_members_pairwise_isomorphic():
    classes = partition_classes(3, all_lambdas(3))
    for cls in classes:
        rep = cls[0]
        for lam in cls[1:]:
            assert iso_bruteforce(3, lam, rep) is not None
    # and distinct representatives are not isomorphic
    reps = [cls[0] for cls in classes]
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert iso_bruteforce(3, a, b) is None


def test_partition_respects_input_order():
    classes = partition_classes(5, [(0,) * 5, (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)])
    assert classes[0] == [(0, 0, 0, 0, 0)]
    assert classes[1] == [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]


@pytest.mark.parametrize("p", [2, 3])
def test_partition_matches_pairwise_search_on_every_vector(p):
    lams = all_lambdas(p)
    assert partition_classes(p, lams) == pairwise_partition(p, lams)


@pytest.mark.parametrize("p", [5, 7])
def test_partition_matches_pairwise_search_on_capped_all(p):
    lams, _ = resolve_lambdas(p, "all")
    assert partition_classes(p, lams) == pairwise_partition(p, lams)


@st.composite
def lambda_lists(draw):
    """Up to 30 vectors over GF(p), drawn as transforms of a few base
    vectors so that classes have several members and repeats occur."""
    p = draw(st.sampled_from([5, 7, 11]))
    vec = st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(tuple)
    bases = draw(st.lists(vec, min_size=1, max_size=5))
    scalar = st.integers(1, p - 1)
    picks = draw(st.lists(
        st.tuples(st.sampled_from(bases), scalar, scalar), min_size=1, max_size=30
    ))
    return p, [proof_transform(p, lam, mu1, mu2) for lam, mu1, mu2 in picks]


@settings(deadline=None)
@given(lambda_lists())
def test_partition_matches_pairwise_search_on_random_lists(case):
    p, lams = case
    assert partition_classes(p, lams) == pairwise_partition(p, lams)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 31]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(0, p - 1), min_size=p, max_size=p),
    st.integers(1, p - 1),
    st.integers(1, p - 1),
)))
def test_transformed_vector_falls_in_its_class(case):
    p, lam, mu1, mu2 = case
    other = proof_transform(p, lam, mu1, mu2)
    assert partition_classes(p, [lam, other]) == [[tuple(lam), other]]


@pytest.mark.parametrize("p, count", [(2, 4), (3, 12), (5, 330)])
def test_key_matches_the_orbit_minimum_on_every_vector(p, count):
    # Burnside: lam_1 is 0 or not, lam_p is fixed, and s in GF(p)* scales
    # lam_k by s^(k-1) for 1 < k < p; at p = 5 that leaves 2 * 5 * 33 classes
    lams = all_lambdas(p)
    classes = partition_classes(p, lams)
    assert classes == orbit_min_partition(p, lams)
    assert len(classes) == count


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, 11, 13, 17, 19, 23, 29, 31]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(
        st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(tuple),
        min_size=1, max_size=40,
    ),
    st.lists(st.tuples(st.integers(1, p - 1), st.integers(1, p - 1)), max_size=40),
)))
def test_key_matches_the_orbit_minimum_on_random_lists(case):
    # the drawn vectors and transforms of them, so that classes repeat
    p, lams, mus = case
    lams = lams + [proof_transform(p, lam, *mu) for lam, mu in zip(lams, mus)]
    assert partition_classes(p, lams) == orbit_min_partition(p, lams)


def test_partition_refuses_prime_above_search_limit():
    # refused before any vector is looked at, whatever the list holds
    for lams in ([], [(0,) * 37], [(0,) * 37, (1,) * 37]):
        with pytest.raises(ValueError, match="p <= 31"):
            partition_classes(37, lams)


def test_partition_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not prime"):
        partition_classes(4, [(0,) * 4])
    with pytest.raises(ValueError, match="one entry per basis vector"):
        partition_classes(5, [(0, 0, 0)])


# ---------------------------------------------------------------------------
# the printed condition set vs the search


def test_report_shape():
    rep = proposition_formula_check(3, (0, 0, 0), (0, 0, 0))
    assert rep["prime"] == 3
    assert rep["lambda"] == [0, 0, 0]
    assert rep["lambda_prime"] == [0, 0, 0]
    assert rep["statement_isomorphic"] and rep["bruteforce_isomorphic"]
    assert rep["statement_witness"] == (1, 1)
    assert rep["bruteforce_witness"] == (1, 1)
    assert rep["agree"]


def test_p3_verdicts_agree_everywhere():
    # exhaustive: at p=3 every nonzero scalar squares to 1, collapsing both
    # condition sets to the same zero-pattern-plus-ratio test
    lams = all_lambdas(3)
    disagreements = [
        (lam, lam2)
        for lam in lams
        for lam2 in lams
        if not proposition_formula_check(3, lam, lam2)["agree"]
    ]
    assert disagreements == []


def test_p5_condition_sets_diverge():
    # the printed clauses pin mu1 by lam_1/lam'_1, the search by lam_2/lam'_2;
    # with all of lam_1, lam_2, lam_3 nonzero the two ratios must satisfy the
    # same square condition, and this pair breaks it one way only
    rep = proposition_formula_check(5, (1, 2, 1, 0, 0), (1, 1, 1, 0, 0))
    assert rep["statement_isomorphic"] is True
    assert rep["bruteforce_isomorphic"] is False
    assert rep["agree"] is False


def test_p5_random_report_is_consistent():
    # uniform sampling all but never hits the divergent region; assert only
    # internal consistency of each report, not agreement
    rng = np.random.default_rng(53)
    for _ in range(200):
        lam = tuple(int(x) for x in rng.integers(0, 5, size=5))
        lam2 = tuple(int(x) for x in rng.integers(0, 5, size=5))
        rep = proposition_formula_check(5, lam, lam2)
        assert rep["agree"] == (
            rep["statement_isomorphic"] == rep["bruteforce_isomorphic"]
        )
        if rep["bruteforce_isomorphic"]:
            w = rep["bruteforce_witness"]
            assert diag_iso_check(5, lam, lam2, *w)
        else:
            assert rep["bruteforce_witness"] is None
