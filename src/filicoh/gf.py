"""Exact linear algebra over the prime field GF(p).

Matrices are numpy integer arrays with entries reduced modulo p.  All
arithmetic is integer arithmetic followed by reduction mod p; no floating
point is used anywhere.  Functions return fresh arrays and never mutate
their inputs.

This module holds elimination and its helpers: the sparse `SpanTracker`,
the one elimination the other modules run, and `rref` with the rank and
the kernel read off it, which no other module calls: they stay as the
tests' oracles and as names the bench traces.  It also holds the text of
a residue vector (`vector_str`), since every command loads this module
and prints lambda vectors.  The other modules form their products with
numpy's `@` on int64 and reduce after each one.
Invariant: a product sums at most n terms, each below p^2, n being the
inner dimension, so int64 holds it exactly while n (p-1)^2 < 2^63.  The
algebras built here have dim at least p, so that holds for every dim
below 2^21, far beyond any array that fits in memory; nothing guards it
at run time.
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


def vector_str(v) -> str:
    """A residue vector as comma-separated integers, the text a lambda spec
    takes and the reports print."""
    return ",".join(str(int(x)) for x in v)


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p.  Raises ValueError when a == 0 mod p."""
    a = int(a) % p
    if a == 0:
        raise ValueError(f"0 is not invertible mod {p}")
    return pow(a, -1, p)


def zeros(shape) -> Mat:
    return np.zeros(shape, dtype=np.int64)


def rref(m, p: int) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over GF(p).

    Pivoting is deterministic: columns are scanned left to right and the
    first row at or below the current one with a nonzero entry becomes the
    pivot row.  Pivots are normalized to 1, and one outer-product update
    clears the whole pivot column above and below.  Only columns nonzero
    in m are scanned: a row operation keeps a zero column zero.

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
    nrows = r.shape[0]
    pivots: list[int] = []
    row = 0
    for col in np.flatnonzero(r.any(axis=0)).tolist():
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
    """Basis of the right null space of m over GF(p), read off its rref.

    One basis vector per free column, ordered by free column index: the
    vector has 1 in its free column, 0 in the other free columns, and the
    negated rref entry in each pivot column.

    Returns:
        Array of shape (nullity, ncols); zero rows when the kernel is 0.
    """
    r, pivots = rref(m, p)
    ncols = r.shape[1]
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = zeros((len(free), ncols))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return basis


class SpanTracker:
    """Incrementally maintained span of sparse rows {column: value}, with
    cheap membership tests.

    Rows are kept in echelon form, each under its smallest column with the
    value 1 there.  A vector is reduced smallest pivot first until its
    smallest column is no pivot, so the cost follows its fill-in, not the
    width.  The pivots of any echelon form are those of the rref.
    """

    def __init__(self, p: int, rows=()):
        self.p = int(p)
        self._rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    def _residue(self, v) -> dict[int, int]:
        """v reduced until its smallest column is no pivot; empty exactly
        when v lies in the span."""
        p = self.p
        residue = {i: x % p for i, x in v.items() if x % p}
        while residue and (lead := min(residue)) in self._rows:
            c = residue[lead]
            for i, x in self._rows[lead].items():
                residue[i] = (residue.get(i, 0) - c * x) % p
                if not residue[i]:
                    del residue[i]
        return residue

    def add(self, v) -> bool:
        """Insert v; True exactly when it enlarged the span."""
        residue = self._residue(v)
        if residue:
            lead = min(residue)
            scale = inv_mod(residue[lead], self.p)
            self._rows[lead] = {i: x * scale % self.p for i, x in residue.items()}
        return bool(residue)

    def contains(self, v) -> bool:
        return not self._residue(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot columns, increasing: those of the rref of the rows."""
        return tuple(sorted(self._rows))
