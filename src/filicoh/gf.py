"""Exact linear algebra over the prime field GF(p).

Matrices are numpy integer arrays with entries reduced modulo p.  All
arithmetic is integer arithmetic followed by reduction mod p; no floating
point is used anywhere.  Functions return fresh arrays and never mutate
their inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

Mat = NDArray[np.int64]


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small moduli used here."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def normalize(entries, p: int) -> Mat:
    """Copy `entries` into an int64 array with every entry reduced into [0, p).

    Args:
        entries: array-like of integers, any shape.
        p: prime modulus.

    Returns:
        Fresh int64 array of the same shape, entries in [0, p).
    """
    return np.asarray(entries, dtype=np.int64) % p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p.  Raises ValueError when a == 0 mod p."""
    a = int(a) % p
    if a == 0:
        raise ValueError(f"0 is not invertible mod {p}")
    return pow(a, -1, p)


def identity(n: int) -> Mat:
    return np.eye(n, dtype=np.int64)


def zeros(shape) -> Mat:
    return np.zeros(shape, dtype=np.int64)


def mat_mul(a, b, p: int) -> Mat:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def mat_vec(m, v, p: int) -> Mat:
    return (np.asarray(m, dtype=np.int64) @ np.asarray(v, dtype=np.int64)) % p


def mat_pow(m, k: int, p: int) -> Mat:
    """m**k mod p by repeated squaring.  k >= 0."""
    if k < 0:
        raise ValueError("negative matrix power")
    n = np.asarray(m).shape[0]
    result = identity(n)
    base = normalize(m, p)
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return result


def rref(m, p: int) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over GF(p).

    Pivoting is deterministic: columns are scanned left to right and the
    first row at or below the current one with a nonzero entry becomes the
    pivot row.  Pivots are normalized to 1, and one outer-product update
    clears the whole pivot column above and below.

    Args:
        m: matrix (2-D array-like), possibly with zero rows or columns.
        p: prime modulus.

    Returns:
        (r, pivots) where r is the reduced matrix and pivots lists the
        pivot column indices in increasing order.  rank == len(pivots).
    """
    r = normalize(m, p)
    if r.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        below = np.flatnonzero(r[row:, col])
        if below.size == 0:
            continue
        pivot_row = row + int(below[0])
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        # left of col the pivot row is zero, so only columns col.. change
        r[row, col:] = (r[row, col:] * inv_mod(r[row, col], p)) % p
        factors = r[:, col].copy()
        factors[row] = 0
        targets = np.flatnonzero(factors)
        if targets.size:
            r[targets, col:] = (r[targets, col:] - np.outer(factors[targets], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(m, p: int) -> int:
    arr = np.asarray(m)
    if arr.size == 0:
        return 0
    return len(rref(arr, p)[1])


def kernel_basis(m, p: int) -> Mat:
    """Basis of the right null space of m over GF(p).

    One basis vector per free column, ordered by free column index: the
    vector has 1 in its free column, 0 in the other free columns, and the
    negated rref entry in each pivot column.

    Returns:
        Array of shape (nullity, ncols); zero rows when the kernel is 0.
    """
    arr = normalize(m, p)
    ncols = arr.shape[1]
    r, pivots = rref(arr, p)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = zeros((len(free), ncols))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return basis


def row_space_basis(rows, p: int) -> Mat:
    """Canonical (rref) basis of the span of the given row vectors."""
    arr = normalize(rows, p)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 0)
    r, pivots = rref(arr, p)
    return r[: len(pivots)]


def in_span(rows, v, p: int) -> bool:
    """Whether vector v lies in the row span of `rows` over GF(p)."""
    arr = normalize(rows, p)
    vec = normalize(v, p).reshape(1, -1)
    if arr.size == 0:
        return not vec.any()
    return rank(arr, p) == rank(np.vstack([arr, vec]), p)


def complement_basis(sub, whole, p: int) -> Mat:
    """Complete `sub` to a basis of span(whole) by greedy selection.

    Candidates are taken from the rows of `whole` in their given order and
    kept exactly when they enlarge the span.  The returned rows are the
    kept candidates themselves, unreduced, so a caller controls which
    vectors represent the complement by ordering `whole`.

    Args:
        sub: rows spanning a subspace of span(whole); may be empty.
        whole: candidate rows whose span contains span(sub).
        p: prime modulus.

    Returns:
        Array of appended rows; len == dim span(whole) - dim span(sub).
    """
    whole_arr = normalize(whole, p)
    ncols = whole_arr.shape[1] if whole_arr.ndim == 2 else 0
    sub_arr = normalize(sub, p) if np.asarray(sub).size else zeros((0, ncols))
    if sub_arr.ndim != 2:
        sub_arr = sub_arr.reshape(0, ncols)
    current = sub_arr
    current_rank = rank(current, p) if current.size else 0
    target = rank(whole_arr, p) if whole_arr.size else 0
    picked = []
    for row in whole_arr:
        if current_rank >= target:
            break
        candidate = np.vstack([current, row.reshape(1, -1)]) if current.size else row.reshape(1, -1)
        r = rank(candidate, p)
        if r > current_rank:
            picked.append(row.copy())
            current = candidate
            current_rank = r
    return np.array(picked, dtype=np.int64) if picked else zeros((0, ncols))


class SpanTracker:
    """Incrementally maintained row span with cheap membership tests.

    Rows are kept in echelon form keyed by pivot column; adding or testing
    a vector costs one forward elimination pass instead of a fresh rref of
    the whole stack.
    """

    def __init__(self, p: int, rows=()):
        self.p = int(p)
        self._rows: dict[int, np.ndarray] = {}
        for row in rows:
            self.add(row)

    def reduce(self, v) -> Mat:
        """Residue of v after eliminating every tracked pivot column."""
        v = normalize(v, self.p).copy()
        for col in sorted(self._rows):
            if v[col]:
                v = (v - v[col] * self._rows[col]) % self.p
        return v

    def add(self, v) -> bool:
        """Insert v; True exactly when it enlarged the span."""
        residue = self.reduce(v)
        support = np.flatnonzero(residue)
        if support.size == 0:
            return False
        col = int(support[0])
        self._rows[col] = (residue * inv_mod(int(residue[col]), self.p)) % self.p
        return True

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    @property
    def rank(self) -> int:
        return len(self._rows)
