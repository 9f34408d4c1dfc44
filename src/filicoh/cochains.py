"""Alternating cochains in degrees 1..3 and the differentials d1, d2.

Cochains are stored sparsely on strictly increasing 1-based index tuples.
The differentials are read off an algebra's nonzero structure constants
on one route: `differential` maps one cochain, summing only the constants
that land on an index of one of its terms, and `differential_rows` gives
the whole of d1 or d2 as sparse rows for elimination; both take d2's
entries from `_entries`.  d1_matrix and d2_matrix are dense views of the
rows.  d1 and d2 compute the same differentials one cochain at a time by
evaluation; they, the dense views and the closed-form expressions for the
maximal-class family are kept as oracles (compared against the sparse
route in tests and in the verification report, never used as the source
of truth).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import gf, liealg


def _normalize_key(indices):
    """Sort an index tuple, returning (sorted_tuple, sign); sign 0 on repeats."""
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return key, 0
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return key, -1 if inversions % 2 else 1


def index_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All strictly increasing 1-based tuples, lexicographically ordered."""
    return list(itertools.combinations(range(1, dim + 1), degree))


@functools.lru_cache(maxsize=2)
def _positions(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    """Position of each index tuple in index_tuples(dim, degree)."""
    return {key: pos for pos, key in enumerate(index_tuples(dim, degree))}


def signed_sum(terms, prime: int) -> str:
    """Render (coefficient, label) pairs as "a - 2 b + c": each nonzero
    coefficient is taken in (-p/2, p/2], magnitude 1 is left out, and no
    term at all renders as "0"."""
    half = prime // 2
    parts = []
    for c, label in terms:
        if not c:
            continue
        signed = c if c <= half else c - prime
        mag = abs(signed)
        term = label if mag == 1 else f"{mag} {label}"
        parts.append(("- " if signed < 0 else "+ " if parts else "") + term)
    return " ".join(parts) or "0"


class Cochain:
    """An alternating form of degree 1, 2 or 3 with GF(p) coefficients."""

    def __init__(self, prime, dim, degree, coeffs=None):
        if degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        self.prime = int(prime)
        self.dim = int(dim)
        self.degree = int(degree)
        self.coeffs: dict[tuple[int, ...], int] = {}
        if coeffs:
            for key, value in coeffs.items():
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
                if not all(1 <= i <= dim for i in key):
                    raise ValueError(f"index tuple {key} out of range for dim {dim}")
                skey, sign = _normalize_key(key)
                if sign == 0:
                    continue
                c = (self.coeffs.get(skey, 0) + sign * int(value)) % prime
                if c:
                    self.coeffs[skey] = c
                elif skey in self.coeffs:
                    del self.coeffs[skey]

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, *vectors) -> int:
        """Value on a tuple of coefficient vectors (alternating multilinear).

        Each argument is read once as Python ints; the sum is reduced mod p
        once, at the end.
        """
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        vs = [np.asarray(v, dtype=np.int64).tolist() for v in vectors]
        total = 0
        if self.degree == 1:
            (x,) = vs
            for (i,), c in self.coeffs.items():
                total += c * x[i - 1]
        elif self.degree == 2:
            x, y = vs
            for (i, j), c in self.coeffs.items():
                total += c * (x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1])
        else:
            x, y, z = vs
            for (i, j, k), c in self.coeffs.items():
                i, j, k = i - 1, j - 1, k - 1
                total += c * (
                    x[i] * (y[j] * z[k] - y[k] * z[j])
                    - x[j] * (y[i] * z[k] - y[k] * z[i])
                    + x[k] * (y[i] * z[j] - y[j] * z[i])
                )
        return total % self.prime

    def _binop(self, other, op):
        if not isinstance(other, Cochain) or (self.prime, self.dim, self.degree) != (
            other.prime,
            other.dim,
            other.degree,
        ):
            raise ValueError("cochain mismatch")
        merged = dict(self.coeffs)
        for key, value in other.coeffs.items():
            merged[key] = (merged.get(key, 0) + op * value) % self.prime
        return Cochain(self.prime, self.dim, self.degree, merged)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rmul__(self, scalar: int):
        return Cochain(
            self.prime, self.dim, self.degree,
            {k: (scalar * v) % self.prime for k, v in self.coeffs.items()},
        )

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.prime, self.dim, self.degree) == (
            other.prime,
            other.dim,
            other.degree,
        ) and self.coeffs == other.coeffs

    def coordinates(self) -> dict[int, int]:
        """Sparse coordinates {position: coefficient} over
        index_tuples(dim, degree), lexicographic."""
        positions = _positions(self.dim, self.degree)
        return {positions[key]: c for key, c in self.coeffs.items()}

    def __str__(self):
        def label(key):
            return f"e^{key[0]}" if len(key) == 1 else "e^{" + ",".join(map(str, key)) + "}"

        return signed_sum(((self.coeffs[key], label(key)) for key in sorted(self.coeffs)), self.prime)

    def __repr__(self):
        return f"Cochain(p={self.prime}, dim={self.dim}, deg={self.degree}, {self.coeffs})"


def dual_cochain(prime, dim, indices) -> Cochain:
    """The dual basis cochain on the given 1-based index tuple."""
    indices = tuple(indices) if isinstance(indices, (tuple, list)) else (indices,)
    return Cochain(prime, dim, len(indices), {indices: 1})


def d1(algebra: liealg.LieAlgebra, c1: Cochain) -> Cochain:
    """Degree-1 differential: (d1 f)(x, y) = f([x, y]), from structure constants."""
    if c1.degree != 1:
        raise ValueError("d1 needs a degree-1 cochain")
    p = algebra.prime
    coeffs = {}
    for i, j in index_tuples(algebra.dim, 2):
        value = c1.evaluate(algebra.bracket_basis(i, j))
        if value:
            coeffs[(i, j)] = value
    return Cochain(p, algebra.dim, 2, coeffs)


def d2(algebra: liealg.LieAlgebra, c2: Cochain) -> Cochain:
    """Degree-2 differential from structure constants.

    (d2 f)(x, y, z) = f([x, y], z) - f([x, z], y) + f([y, z], x).
    Only the algebra's bracket_triples are evaluated: on any other triple
    the three brackets vanish and each term is f(0, .).
    """
    if c2.degree != 2:
        raise ValueError("d2 needs a degree-2 cochain")
    p = algebra.prime
    if c2.is_zero():  # d2 is linear
        return Cochain(p, algebra.dim, 3)
    coeffs = {}
    for l, m, n in algebra.bracket_triples:
        el, em, en = (algebra.basis_vector(k) for k in (l, m, n))
        value = (
            c2.evaluate(algebra.bracket_basis(l, m), en)
            - c2.evaluate(algebra.bracket_basis(l, n), em)
            + c2.evaluate(algebra.bracket_basis(m, n), el)
        ) % p
        if value:
            coeffs[(l, m, n)] = value
    return Cochain(p, algebra.dim, 3, coeffs)


def _entries(degree, i, j, k, c, zs):
    """The entries of d1 (degree 1) or d2 that the constant c of e_k in
    [e_i, e_j], i < j, gives, as (row, dual, value), repeats to be summed.
    d1: c at row (i, j), dual e^k.  d2: c * e^{k,z}([e_i, e_j], e_z) at the
    triple {i, j, z} for each z in zs outside {i, j, k}, with the sign -1
    when i < z < j (the middle term of d2), times -1 when k > z (the order
    of the pair dual)."""
    if degree == 1:
        yield (i, j), (k,), c
        return
    for z in zs:
        if z in (i, j, k):
            continue
        sign = -1 if i < z < j else 1
        if k > z:
            sign = -sign
        yield tuple(sorted((i, j, z))), (min(k, z), max(k, z)), sign * c


def differential(algebra: liealg.LieAlgebra, cochain: Cochain) -> Cochain:
    """d1 of a 1-cochain or d2 of a 2-cochain, from the constants that land
    on an index of one of its terms (LieAlgebra.constants_by_target), so
    the cost follows the number of terms, not the width of d.  A term
    x e^{a,b} meets d2 through the constants landing on a, with z = b, and
    those landing on b, with z = a."""
    if (cochain.prime, cochain.dim) != (algebra.prime, algebra.dim) or cochain.degree == 3:
        raise ValueError("differential needs a 1- or 2-cochain over the algebra")
    by_target = algebra.constants_by_target
    out: dict[tuple, int] = {}
    for key, x in cochain.coeffs.items():
        sides = [(key[0], ())] if cochain.degree == 1 else [(key[0], key[1:]), (key[1], key[:1])]
        for k, zs in sides:
            for i, j, c in by_target.get(k, ()):
                for row, _, value in _entries(cochain.degree, i, j, k, c, zs):
                    out[row] = out.get(row, 0) + value * x
    return Cochain(algebra.prime, algebra.dim, cochain.degree + 1, out)


def differential_rows(algebra: liealg.LieAlgebra, degree: int) -> dict:
    """The nonzero rows of d1 (degree 1) or d2 (degree 2), assembled
    sparsely from the structure constants in O(nnz * dim) steps (_entries):
    {row index tuple: {column: value}}, with rows over the pairs or
    triples, columns the positions in index_tuples(dim, degree) and values
    in [1, p).  Column c is the differential of the dual on
    index_tuples(dim, degree)[c]."""
    p = algebra.prime
    col = _positions(algebra.dim, degree)
    zs = range(1, algebra.dim + 1)
    rows: dict[tuple, dict[int, int]] = {}
    for k, terms in algebra.constants_by_target.items():
        for i, j, c in terms:
            for row, dual, value in _entries(degree, i, j, k, c, zs):
                entries = rows.setdefault(row, {})
                pos = col[dual]
                total = (entries.get(pos, 0) + value) % p
                if total:
                    entries[pos] = total
                else:
                    entries.pop(pos, None)
    return {row: entries for row, entries in rows.items() if entries}


def _dense_differential(algebra: liealg.LieAlgebra, degree: int):
    rows = _positions(algebra.dim, degree + 1)
    out = gf.zeros((len(rows), len(_positions(algebra.dim, degree))))
    for row, entries in differential_rows(algebra, degree).items():
        out[rows[row], list(entries)] = list(entries.values())
    return out


def d1_matrix(algebra: liealg.LieAlgebra):
    """Dense matrix of d1 with columns over the degree-1 duals, rows over
    pairs: row (i, j), column k holds the coefficient of e_k in [e_i, e_j],
    and column k equals d1 of the dual e^k.  A view of differential_rows,
    kept as an oracle."""
    return _dense_differential(algebra, 1)


def d2_matrix(algebra: liealg.LieAlgebra):
    """Dense matrix of d2 with columns over the degree-2 duals, rows over
    triples: column (a, b) equals d2 of the dual e^{a,b}.  A view of
    differential_rows, kept as an oracle."""
    return _dense_differential(algebra, 2)


def phi_k(p: int, k: int) -> Cochain:
    """The weight-k degree-2 cocycle of the maximal-class algebra, k odd.

    phi_k = e^{2,k-2} - e^{3,k-3} + ... +/- e^{(k-1)/2, (k+1)/2}, defined
    for odd k with 5 <= k <= p + 2.
    """
    if k % 2 == 0:
        raise ValueError("phi_k requires odd k")
    if not (5 <= k <= p + 2):
        raise ValueError(f"phi_k requires 5 <= k <= p + 2, got k={k} for p={p}")
    coeffs = {}
    for i in range(2, (k - 1) // 2 + 1):
        coeffs[(i, k - i)] = pow(-1, i, p)
    return Cochain(p, p, 2, coeffs)


def phi_weights(p: int) -> list[int]:
    """The odd weights k of the distinguished cocycles phi_k for this prime."""
    return list(range(5, p + 3, 2))


def random_cocycle(rng, p: int) -> Cochain:
    """A degree-2 cocycle of make_m0(p): a random combination of the closed
    generators e^{1,p} and phi_k plus a random coboundary.

    rng is a numpy Generator; its draws come in a fixed order (the e^{1,p}
    coefficient, one per phi_k, then one per e^k), so a seed replays.
    """
    A = liealg.make_m0(p)
    phi = int(rng.integers(0, p)) * dual_cochain(p, p, (1, p))
    for k in phi_weights(p):
        phi = phi + int(rng.integers(0, p)) * phi_k(p, k)
    psi = Cochain(p, p, 1, {(k,): int(rng.integers(0, p)) for k in range(1, p + 1)})
    return phi + differential(A, psi)


def d1_closed_m0(p: int, k: int) -> Cochain:
    """Oracle: d1 of e^k on the maximal-class algebra (e^{1,k-1} for k >= 3)."""
    if k in (1, 2):
        return Cochain(p, p, 2)
    return dual_cochain(p, p, (1, k - 1))


def d2_closed_m0_corrected(p: int, i: int, j: int) -> Cochain:
    """Oracle: d2 of e^{i,j} with second term index (1, i, j-1).

    Degenerate tuples (repeated entries) drop out via normalization; the
    i = 1 duals map to zero.
    """
    if i == 1:
        return Cochain(p, p, 3)
    return Cochain(p, p, 3, {(1, i - 1, j): 1}) + Cochain(p, p, 3, {(1, i, j - 1): 1})


def d2_closed_m0_printed(p: int, i: int, j: int) -> Cochain:
    """The same closed form with second term index (1, i, j-i).

    Kept only so the verification report can show where this variant
    disagrees with the generic differential; never used for computation.
    """
    if i == 1:
        return Cochain(p, p, 3)
    terms = Cochain(p, p, 3, {(1, i - 1, j): 1})
    second = (1, i, j - i)
    if len(set(second)) == 3 and all(1 <= t <= p for t in second):
        terms = terms + Cochain(p, p, 3, {second: 1})
    return terms
