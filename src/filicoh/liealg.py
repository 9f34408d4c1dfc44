"""Graded Lie algebras over GF(p) given by sparse structure constants.

The central construction is the filiform algebra of maximal class on basis
e_1, ..., e_p with the only nonzero brackets [e_1, e_i] = e_{i+1} for
1 < i < p, graded by weight(e_k) = k.  Elements are coefficient vectors
(numpy int64, length dim, entries mod p) over the ordered basis; `bracket`
also takes stacks of them, rows in the last axis, and accumulates its
terms over `constants`, the cached nonzero constants; the p-power and
sum-rule recursions step through it.  `jacobi_check` walks the constants
grouped by target and by pair.  `ad_matrix`, the dense dim x dim matrix of
ad(g), is called by no other module: the tests keep it as their dense
oracle and the bench traces it by name.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from . import gf


class LieAlgebra:
    """A Lie algebra over GF(p) with structure constants stored on pairs i < j.

    brackets maps a 1-based pair (i, j), i < j, to the coefficient vector of
    [e_i, e_j].  Antisymmetry is applied on access, never stored.  The
    mapping and its vectors are read-only, so instances can be shared.
    """

    def __init__(self, prime, dim, brackets, weights, labels=None):
        if not gf.is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = int(prime)
        self.dim = int(dim)
        stored = {}
        for (i, j), coeffs in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad bracket pair ({i}, {j}) for dim {dim}")
            vec = gf.normalize(coeffs, prime)
            if vec.shape != (dim,):
                raise ValueError(f"bracket ({i}, {j}) has wrong length")
            if vec.any():
                vec.setflags(write=False)
                stored[(i, j)] = vec
        self.brackets = types.MappingProxyType(stored)
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != dim:
            raise ValueError("weights length must equal dim")
        self.labels = tuple(labels) if labels else tuple(f"e_{k}" for k in range(1, dim + 1))
        if len(self.labels) != dim:
            raise ValueError("labels length must equal dim")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        if self is other:
            return True
        if (self.prime, self.dim, self.weights, self.labels) != (
            other.prime,
            other.dim,
            other.weights,
            other.labels,
        ):
            return False
        if set(self.brackets) != set(other.brackets):
            return False
        return all((self.brackets[k] == other.brackets[k]).all() for k in self.brackets)

    def __repr__(self):
        return f"LieAlgebra(prime={self.prime}, dim={self.dim}, pairs={len(self.brackets)})"

    def zero(self):
        return gf.zeros(self.dim)

    def basis_vector(self, k):
        """Coefficient vector of e_k (1-based k)."""
        v = gf.zeros(self.dim)
        v[k - 1] = 1
        return v

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coefficient vector, for any order of i, j."""
        if i == j:
            return self.zero()
        if i < j:
            got = self.brackets.get((i, j))
            return got.copy() if got is not None else self.zero()
        got = self.brackets.get((j, i))
        return (-got) % self.prime if got is not None else self.zero()

    @functools.cached_property
    def constants(self):
        """The nonzero structure constants as one read-only (entries, 4)
        array of 0-based rows (i, j, k, c), each the coefficient c of e_k
        in [e_i, e_j], listed for both orders of every stored pair."""
        rows = []
        for (i, j), coeffs in self.brackets.items():
            for k in np.flatnonzero(coeffs).tolist():
                rows += [(i - 1, j - 1, k, coeffs[k]), (j - 1, i - 1, k, -coeffs[k] % self.prime)]
        out = np.array(rows, dtype=np.int64).reshape(-1, 4)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def constants_by_target(self):
        """`constants` grouped by the basis index they land on, one entry
        per stored pair: a read-only {k: ((i, j, c), ...)}, 1-based, where c
        is the coefficient of e_k in [e_i, e_j] and i < j."""
        out: dict[int, list] = {}
        for i, j, k, c in self.constants.tolist():
            if i < j:
                out.setdefault(k + 1, []).append((i + 1, j + 1, c))
        return types.MappingProxyType({k: tuple(terms) for k, terms in out.items()})

    @functools.cached_property
    def constants_by_pair(self):
        """`constants` grouped by ordered pair: a read-only
        {(i, j): ((k, c), ...)}, 1-based, for both orders of every stored
        pair, where c is the coefficient of e_k in [e_i, e_j]."""
        out: dict[tuple, list] = {}
        for i, j, k, c in self.constants.tolist():
            out.setdefault((i + 1, j + 1), []).append((k + 1, c))
        return types.MappingProxyType({pair: tuple(terms) for pair, terms in out.items()})

    @functools.cached_property
    def bracket_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The 1-based triples l < m < n, in lexicographic order, with a
        nonzero bracket among [e_l, e_m], [e_l, e_n] and [e_m, e_n]: a
        stored pair and any third index."""
        return tuple(sorted({
            tuple(sorted((i, j, z)))
            for i, j in self.brackets
            for z in range(1, self.dim + 1)
            if z not in (i, j)
        }))

    def bracket(self, g, h):
        """[g, h] for vectors or row stacks g and h, paired row by row: each
        nonzero constant adds g_i h_j c at e_k, several of them at one k."""
        p = self.prime
        g = gf.normalize(g, p)
        h = gf.normalize(h, p)
        i, j, k, c = self.constants.T
        terms = g[..., i] * h[..., j] % p * c
        out = gf.zeros(terms.shape[:-1] + (self.dim,))
        np.add.at(out, (..., k), terms)
        return out % p


@functools.lru_cache(maxsize=None)
def make_m0(p: int) -> LieAlgebra:
    """The maximal-class filiform algebra on p basis vectors over GF(p).

    [e_1, e_i] = e_{i+1} for 1 < i < p and all other basis brackets vanish;
    for p = 2 there are no such pairs and the algebra is abelian.  Built
    once per prime and shared.
    """
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    brackets = {}
    for i in range(2, p):
        v = gf.zeros(p)
        v[i] = 1  # e_{i+1}
        brackets[(1, i)] = v
    return LieAlgebra(p, p, brackets, weights=range(1, p + 1))


def bracket_closed_m0(p, g, h):
    """Closed-form product on the maximal-class algebra, used as a test oracle.

    [g, h] = sum over j in 3..p of (g_1 h_{j-1} - g_{j-1} h_1) e_j.
    """
    g = gf.normalize(g, p)
    h = gf.normalize(h, p)
    out = gf.zeros(p)
    for j in range(3, p + 1):
        out[j - 1] = (int(g[0]) * int(h[j - 2]) - int(g[j - 2]) * int(h[0])) % p
    return out


def ad_matrix(algebra, g):
    """Matrix of ad(g) = [g, -] acting on column coefficient vectors, for a
    vector g or, stacked the same way, for each row of a stack.

    Entry (k, j) of ad(g) is the e_k coefficient of [g, e_j], so each
    nonzero constant adds g_i c at flat position k n + j.  No other module
    calls it: it is the tests' dense oracle of `LieAlgebra.bracket` and a
    name the bench traces.
    """
    g = gf.normalize(g, algebra.prime)
    n = algebra.dim
    i, j, k, c = algebra.constants.T
    out = gf.zeros(g.shape[:-1] + (n * n,))
    np.add.at(out, (..., k * n + j), g[..., i] * c)
    return (out % algebra.prime).reshape(g.shape[:-1] + (n, n))


def jacobi_check(algebra):
    """Check the Jacobi identity on all basis triples.

    [[e_x, e_y], e_z] sums c1 c2 e_m over the chains of two constants: c1
    of e_k in [e_x, e_y], then c2 of e_m in [e_k, e_z].  On a triple
    a < b < c the Jacobiator is [[a, b], c] + [[b, c], a] - [[a, c], b],
    so each chain with x < y (a stored pair, taken once) and z outside
    {x, y} adds c1 c2 at (sorted triple, m), negated when x < z < y.  No
    other triple has a nonzero term.

    Returns:
        (True, None) on success, else (False, (i, j, k)) with the first
        failing 1-based triple in lexicographic order.
    """
    sums: dict[tuple, int] = {}
    for (k, z), second in algebra.constants_by_pair.items():
        for x, y, c1 in algebra.constants_by_target.get(k, ()):
            if z in (x, y):
                continue
            key = tuple(sorted((x, y, z)))
            sign = -1 if x < z < y else 1
            for m, c2 in second:
                sums[key, m] = sums.get((key, m), 0) + sign * c1 * c2
    failing = [key for (key, _), total in sums.items() if total % algebra.prime]
    if failing:
        return False, min(failing)
    return True, None


def to_json(algebra) -> dict:
    """Plain-dict form: {prime, dim, weights, labels, brackets:[{i, j, coeffs}]}."""
    return {
        "prime": algebra.prime,
        "dim": algebra.dim,
        "weights": list(algebra.weights),
        "labels": list(algebra.labels),
        "brackets": [
            {"i": i, "j": j, "coeffs": [int(c) for c in coeffs]}
            for (i, j), coeffs in sorted(algebra.brackets.items())
        ],
    }

