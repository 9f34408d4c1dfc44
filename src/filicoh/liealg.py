"""Graded Lie algebras over GF(p) given by sparse structure constants.

The central construction is the filiform algebra of maximal class on basis
e_1, ..., e_p with the only nonzero brackets [e_1, e_i] = e_{i+1} for
1 < i < p, graded by weight(e_k) = k.  Elements are coefficient vectors
(numpy int64, length dim, entries mod p) over the ordered basis; `bracket`
and `ad_matrix` also take stacks of them, rows in the last axis, and
contract them against one cached array of the structure constants.
"""

from __future__ import annotations

import functools
import itertools
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
    def structure(self):
        """The structure constants as one read-only dim x dim x dim array:
        structure[i - 1] is the matrix of ad(e_i), so its column j - 1 is
        [e_i, e_j] for every order of i and j."""
        n = self.dim
        out = gf.zeros((n, n, n))
        for (i, j), coeffs in self.brackets.items():
            out[i - 1, :, j - 1] = coeffs
            out[j - 1, :, i - 1] = (-coeffs) % self.prime
        out.setflags(write=False)
        return out

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
        """[g, h] by bilinear expansion over the structure constants; g and
        h are vectors or stacks of them, paired row by row."""
        g = gf.normalize(g, self.prime)
        h = gf.normalize(h, self.prime)
        return np.einsum("...i,ikj,...j->...k", g, self.structure, h) % self.prime


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


# Row-stack work that holds a few dim x dim matrices per row (ad matrices,
# recursion rows, forms, Jacobiators) takes its rows in batches of at most
# this many cells per such matrix, so a batch stays under a MB at any
# prime.
BATCH_CELLS = 1 << 13


def by_row_batches(dim, fn, *stacks):
    """fn(*batch) over consecutive batches of rows of equally long stacks,
    at most BATCH_CELLS // dim^2 rows each, the results concatenated.  A
    vector or a short stack goes whole."""
    step = max(1, BATCH_CELLS // (dim * dim))
    count = len(stacks[0])
    if stacks[0].ndim == 1 or count <= step:
        return fn(*stacks)
    return np.concatenate(
        [fn(*(s[start : start + step] for s in stacks)) for start in range(0, count, step)]
    )


def ad_matrix(algebra, g):
    """Matrix of ad(g) = [g, -] acting on column coefficient vectors, for a
    vector g or, stacked the same way, for each row of a stack.

    ad is linear in g, so it is g contracted with the structure constants:
    sum_i g_i ad(e_i).
    """
    g = gf.normalize(g, algebra.prime)
    n = algebra.dim
    out = (g @ algebra.structure.reshape(n, n * n)).reshape(g.shape[:-1] + (n, n))
    out %= algebra.prime
    return out


def jacobi_check(algebra):
    """Check the Jacobi identity on all basis triples.

    Column k of ad([e_i, e_j]) - [ad e_i, ad e_j] is the Jacobiator of
    (e_i, e_j, e_k).  These matrices come from contractions with the
    structure constants, for a batch of pairs i < j at a time (all pairs
    at small dim), and the triples with k > j are read off them.

    Returns:
        (True, None) on success, else (False, (i, j, k)) with the first
        failing 1-based triple in lexicographic order.
    """
    n = algebra.dim
    ads = algebra.structure
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)

    def failing(batch):
        i, j = batch[:, 0], batch[:, 1]
        brackets = ads[i, :, j]  # column j of ad(e_i) is [e_i, e_j]
        jacobiators = (brackets @ ads.reshape(n, n * n)).reshape(-1, n, n)
        jacobiators -= ads[i] @ ads[j]
        jacobiators += ads[j] @ ads[i]
        jacobiators %= algebra.prime
        return jacobiators.any(axis=1) & (np.arange(n) > j[:, None])

    hits = np.argwhere(by_row_batches(n, failing, pairs))
    if hits.size:
        pair, k = hits[0]
        i, j = pairs[pair]
        return False, (int(i) + 1, int(j) + 1, int(k) + 1)
    return True, None


def center(algebra):
    """Basis (rows) of the center {g : [g, x] = 0 for all x}."""
    # [g, e_j] is linear in g; column i of block j is [e_i, e_j].
    stacked = np.vstack(
        [
            np.stack([algebra.bracket_basis(i, j) for i in range(1, algebra.dim + 1)], axis=1)
            for j in range(1, algebra.dim + 1)
        ]
    ) % algebra.prime
    return gf.kernel_basis(stacked, algebra.prime)


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


def from_json(data: dict) -> LieAlgebra:
    brackets = {(b["i"], b["j"]): b["coeffs"] for b in data["brackets"]}
    return LieAlgebra(
        data["prime"],
        data["dim"],
        brackets,
        weights=data["weights"],
        labels=data.get("labels"),
    )
