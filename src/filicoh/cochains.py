"""Alternating cochains in degrees 1..3 and the differentials d1, d2.

Cochains are stored sparsely on strictly increasing 1-based index tuples.
d1_matrix and d2_matrix, the production route, are assembled directly from
an algebra's nonzero structure constants.  d1 and d2 compute the same
differentials one cochain at a time by evaluation; they and the closed-form
expressions for the maximal-class family are kept as oracles (compared
against the matrices in tests and in the verification report, never used
as the source of truth).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf, liealg


def _normalize_key(indices):
    """Sort an index tuple, returning (sorted_tuple, sign); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for a in range(len(idx)):
        for b in range(len(idx) - 1 - a):
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    if any(idx[t] == idx[t + 1] for t in range(len(idx) - 1)):
        return tuple(idx), 0
    return tuple(idx), sign


def index_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All strictly increasing 1-based tuples, lexicographically ordered."""
    return list(itertools.combinations(range(1, dim + 1), degree))


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

    def coefficient(self, indices) -> int:
        """Signed coefficient on any index tuple (0 on repeats)."""
        skey, sign = _normalize_key(indices)
        if sign == 0:
            return 0
        return (sign * self.coeffs.get(skey, 0)) % self.prime

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, *vectors) -> int:
        """Value on a tuple of coefficient vectors (alternating multilinear)."""
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        p = self.prime
        vs = [gf.normalize(v, p) for v in vectors]
        total = 0
        for key, c in self.coeffs.items():
            if self.degree == 1:
                minor = int(vs[0][key[0] - 1])
            elif self.degree == 2:
                i, j = key
                minor = int(vs[0][i - 1]) * int(vs[1][j - 1]) - int(vs[0][j - 1]) * int(vs[1][i - 1])
            else:
                minor = 0
                for perm, sign in (
                    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
                ):
                    prod = 1
                    for row, col in enumerate(perm):
                        prod *= int(vs[row][key[col] - 1])
                    minor += sign * prod
            total = (total + c * minor) % p
        return total

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

    def to_vector(self):
        """Coordinates over index_tuples(dim, degree), lexicographic."""
        order = index_tuples(self.dim, self.degree)
        out = gf.zeros(len(order))
        for pos, key in enumerate(order):
            out[pos] = self.coeffs.get(key, 0)
        return out

    @classmethod
    def from_vector(cls, prime, dim, degree, vec):
        order = index_tuples(dim, degree)
        vec = gf.normalize(vec, prime)
        if len(vec) != len(order):
            raise ValueError("coordinate vector has wrong length")
        return cls(prime, dim, degree, {key: int(v) for key, v in zip(order, vec) if v})

    def to_json(self) -> dict:
        """Term list form; indices are sorted so output is deterministic."""
        return {
            "prime": self.prime,
            "dim": self.dim,
            "degree": self.degree,
            "terms": [
                {"indices": list(key), "coefficient": int(self.coeffs[key])}
                for key in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cochain":
        coeffs = {tuple(t["indices"]): int(t["coefficient"]) for t in data["terms"]}
        return cls(data["prime"], data["dim"], data["degree"], coeffs)

    def weight_decomposition(self) -> dict[int, "Cochain"]:
        """Split by total index weight (the sum of the tuple entries)."""
        parts: dict[int, dict] = {}
        for key, value in self.coeffs.items():
            parts.setdefault(sum(key), {})[key] = value
        return {
            w: Cochain(self.prime, self.dim, self.degree, cs) for w, cs in sorted(parts.items())
        }

    def homogeneous_weight(self):
        """The common index weight, None for 0 or mixed cochains."""
        weights = {sum(key) for key in self.coeffs}
        if len(weights) == 1:
            return weights.pop()
        return None

    def __str__(self):
        if not self.coeffs:
            return "0"
        half = self.prime // 2
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            signed = c if c <= half else c - self.prime
            if len(key) == 1:
                label = f"e^{key[0]}"
            else:
                label = "e^{" + ",".join(str(i) for i in key) + "}"
            mag = abs(signed)
            term = label if mag == 1 else f"{mag} {label}"
            if not parts:
                parts.append(term if signed > 0 else f"- {term}")
            else:
                parts.append(("+ " if signed > 0 else "- ") + term)
        return " ".join(parts)

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
    """
    if c2.degree != 2:
        raise ValueError("d2 needs a degree-2 cochain")
    p = algebra.prime
    coeffs = {}
    for l, m, n in index_tuples(algebra.dim, 3):
        el, em, en = (algebra.basis_vector(k) for k in (l, m, n))
        value = (
            c2.evaluate(algebra.bracket_basis(l, m), en)
            - c2.evaluate(algebra.bracket_basis(l, n), em)
            + c2.evaluate(algebra.bracket_basis(m, n), el)
        ) % p
        if value:
            coeffs[(l, m, n)] = value
    return Cochain(p, algebra.dim, 3, coeffs)


def d1_matrix(algebra: liealg.LieAlgebra):
    """Matrix of d1 with columns over the degree-1 duals, rows over pairs.

    Assembled from the structure constants: row (i, j), column k holds the
    coefficient of e_k in [e_i, e_j].  Column k equals d1 of the dual e^k.
    """
    pairs = index_tuples(algebra.dim, 2)
    out = gf.zeros((len(pairs), algebra.dim))
    for row, pair in enumerate(pairs):
        vec = algebra.brackets.get(pair)
        if vec is not None:
            out[row] = vec
    return out


def d2_matrix(algebra: liealg.LieAlgebra):
    """Matrix of d2 with columns over the degree-2 duals, rows over triples.

    Assembled from the structure constants in O(nnz * dim) steps: each
    nonzero c_k of [e_i, e_j] contributes c_k * e^{k,z}([e_i, e_j], e_z)
    to the triple {i, j, z} for every z outside {i, j, k}.  The sign is
    -1 when i < z < j (the middle term of d2), times -1 when k > z (the
    order of the pair dual).  Column (a, b) equals d2 of the dual e^{a,b}.
    """
    n = algebra.dim
    pair_col = {pair: col for col, pair in enumerate(index_tuples(n, 2))}
    triple_row = {triple: row for row, triple in enumerate(index_tuples(n, 3))}
    out = gf.zeros((len(triple_row), len(pair_col)))
    for (i, j), vec in algebra.brackets.items():
        for k in np.flatnonzero(vec) + 1:
            c = int(vec[k - 1])
            for z in range(1, n + 1):
                if z in (i, j, k):
                    continue
                sign = -1 if i < z < j else 1
                if k > z:
                    sign = -sign
                row = triple_row[tuple(sorted((i, j, z)))]
                out[row, pair_col[(min(k, z), max(k, z))]] += sign * c
    return out % algebra.prime


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
