"""Exact GF(p) linear algebra: unit oracles plus algebraic properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filicoh import cochains, gf
from helpers import dense_rows, make_m2, mat_mul, mat_pow, matrices_mod_p, sparse

PRIMES = [2, 3, 5, 7]


def test_is_prime_small_range():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    assert {n for n in range(2, 32) if gf.is_prime(n)} == expected
    assert not gf.is_prime(1)
    assert not gf.is_prime(0)


def test_inv_mod_known_values():
    assert gf.inv_mod(3, 7) == 5
    assert gf.inv_mod(1, 2) == 1
    assert gf.inv_mod(2, 5) == 3


def test_inv_mod_zero_rejected():
    with pytest.raises(ValueError):
        gf.inv_mod(0, 5)
    with pytest.raises(ValueError):
        gf.inv_mod(10, 5)


@pytest.mark.parametrize("p", PRIMES)
def test_inv_mod_exhaustive(p):
    for a in range(1, p):
        assert (a * gf.inv_mod(a, p)) % p == 1


def test_rref_singular_2x2():
    r, pivots = gf.rref([[2, 1], [1, 2]], 3)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_rref_empty_and_zero():
    r, pivots = gf.rref(np.zeros((2, 3), dtype=np.int64), 5)
    assert r.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert pivots == []


def test_kernel_basis_known():
    # Oracle: exhaustive enumeration of all 25 vectors over GF(5).
    m = [[1, 2], [2, 4]]
    basis = gf.kernel_basis(m, 5)
    assert basis.tolist() == [[3, 1]]
    arr = np.array(m)
    brute = [
        (x, y)
        for x in range(5)
        for y in range(5)
        if ((arr @ np.array([x, y])) % 5 == 0).all()
    ]
    span = {tuple((c * basis[0]) % 5) for c in range(5)}
    assert set(brute) == span


def test_in_span():
    tracker = gf.SpanTracker(5, map(sparse, [[1, 0, 2], [0, 1, 1]]))
    assert tracker.contains(sparse([1, 1, 3]))
    assert not tracker.contains(sparse([0, 0, 1]))
    assert gf.SpanTracker(5).contains(sparse([0, 0]))
    assert not gf.SpanTracker(5).contains(sparse([1, 0]))


def matrices(p, max_dim=4):
    side = st.integers(min_value=1, max_value=max_dim)
    return side.flatmap(
        lambda n: side.flatmap(
            lambda m: st.lists(
                st.lists(st.integers(min_value=0, max_value=p - 1), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


@settings(max_examples=60, derandomize=True)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_rref_idempotent(data, p):
    """rref of an rref is itself."""
    m = data.draw(matrices(p))
    r, pivots = gf.rref(m, p)
    r2, pivots2 = gf.rref(r, p)
    assert (r == r2).all()
    assert pivots == pivots2


@settings(max_examples=60, derandomize=True)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_kernel_vectors_annihilate(data, p):
    """Every kernel basis vector multiplies to zero, and count matches rank."""
    m = data.draw(matrices(p))
    arr = gf.normalize(m, p)
    basis = gf.kernel_basis(arr, p)
    for v in basis:
        assert not ((arr @ v) % p).any()
    assert len(basis) == arr.shape[1] - gf.rank(arr, p)


@settings(max_examples=60, derandomize=True)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_kernel_basis_depends_only_on_row_space(data, p):
    """The nonzero rref rows of m stacked over random combinations of m's
    rows give m's kernel basis byte for byte."""
    m = gf.normalize(data.draw(matrices(p)), p)
    r, pivots = gf.rref(m, p)
    k = data.draw(st.integers(min_value=0, max_value=4))
    combos = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=len(m), max_size=len(m)),
            min_size=k,
            max_size=k,
        )
    )
    mixed = mat_mul(gf.normalize(combos, p).reshape(k, len(m)), m, p)
    want = gf.kernel_basis(m, p)
    got = gf.kernel_basis(np.vstack([r[: len(pivots)], mixed]), p)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_int64_bound_is_enforced():
    # (p-1)^2 is just below 2^62 here, so four terms overflow and one does not
    big = 2**31 - 1
    with pytest.raises(ValueError, match="overflows int64"):
        mat_mul(np.ones((1, 4), dtype=np.int64), np.ones((4, 1), dtype=np.int64), big)
    assert mat_mul([[1]], [[big - 1]], big).tolist() == [[big - 1]]


@settings(max_examples=40, derandomize=True)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_mat_pow_matches_repeated_mul(data, p):
    n = data.draw(st.integers(min_value=1, max_value=3))
    m = gf.normalize(
        data.draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        p,
    )
    k = data.draw(st.integers(min_value=0, max_value=6))
    expected = np.eye(n, dtype=np.int64)
    for _ in range(k):
        expected = mat_mul(expected, m, p)
    assert (mat_pow(m, k, p) == expected).all()


def test_span_tracker_matches_rank_and_in_span():
    rng = np.random.default_rng(71)
    for p in (2, 5, 13):
        rows = rng.integers(0, p, size=(6, 9))
        tracker = gf.SpanTracker(p, map(sparse, rows))
        assert tracker.rank == gf.rank(rows, p)
        for _ in range(20):
            v = rng.integers(0, p, size=9)
            assert tracker.contains(sparse(v)) == (gf.rank(np.vstack([rows, v]), p) == tracker.rank)


def test_span_tracker_add_reports_growth():
    p = 7
    tracker = gf.SpanTracker(p)
    assert tracker.rank == 0
    assert tracker.contains(sparse(np.zeros(4, dtype=np.int64)))
    assert tracker.add(sparse([1, 2, 0, 0]))
    assert not tracker.add(sparse([2, 4, 0, 0]))
    assert tracker.add(sparse([0, 0, 3, 1]))
    assert tracker.rank == 2
    assert tracker.contains(sparse([3, 6, 3, 1]))
    assert not tracker.contains(sparse([0, 1, 0, 0]))


def test_span_tracker_greedy_matches_rank_filter():
    # the add-if-it-grows loop must pick the same rows a rank check would
    rng = np.random.default_rng(73)
    p = 5
    rows = rng.integers(0, p, size=(10, 6))
    tracker = gf.SpanTracker(p)
    picked = []
    kept = []
    for row in rows:
        before = len(picked)
        if tracker.add(sparse(row)):
            picked.append(row)
        stack = np.vstack(kept + [row]) if kept else row.reshape(1, -1)
        if gf.rank(stack, p) > (gf.rank(np.vstack(kept), p) if kept else 0):
            kept.append(row)
            assert len(picked) == before + 1
        else:
            assert len(picked) == before


@settings(max_examples=200, deadline=None)
@given(matrices_mod_p())
# row 3 fills in index 1, already the pivot of row 2, as it is reduced
@example((np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]]), 5))
def test_span_tracker_matches_rref(case):
    # row by row, add grows the rank exactly when contains says no and the
    # rank of the dense stack grows; the pivots are those of gf.rref
    m, p = case
    tracker = gf.SpanTracker(p)
    for n, row in enumerate(m, start=1):
        before = tracker.rank
        inside = tracker.contains(sparse(row))
        assert tracker.add(sparse(row)) == (not inside) == (tracker.rank == before + 1)
        assert tracker.rank == gf.rank(m[:n], p)
    assert tracker.pivots == tuple(gf.rref(m, p)[1])
    assert tracker.rank == len(tracker.pivots)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_span_tracker_matches_rref_on_the_differentials_of_m2(p):
    # rows of d2 with three entries, which make_m0 never has; ker d1 is
    # spanned by e^1 and e^2, and ker d2 has dimension p + 1
    A = make_m2(p)
    for degree, kernel in ((1, 2), (2, p + 1)):
        rows = list(cochains.differential_rows(A, degree).values())
        ncols = len(cochains.index_tuples(p, degree))
        tracker = gf.SpanTracker(p, rows)
        assert tracker.pivots == tuple(gf.rref(dense_rows(rows, ncols), p)[1])
        assert ncols - tracker.rank == kernel
        # and row by row, in reverse, to the same pivots
        assert gf.SpanTracker(p, rows[::-1]).pivots == tracker.pivots


@pytest.mark.parametrize("p", [2, 5, 13])
def test_mat_pow_of_a_stack_is_the_stack_of_powers(p):
    rng = np.random.default_rng(90 + p)
    stack = rng.integers(0, p, size=(4, 3, 3))
    for k in (0, 1, 2, 5, p):
        got = mat_pow(stack, k, p)
        assert got.shape == stack.shape
        assert all((got[i] == mat_pow(stack[i], k, p)).all() for i in range(4))
