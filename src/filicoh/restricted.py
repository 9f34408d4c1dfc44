"""Restricted structures: p-power maps on graded Lie algebras over GF(p).

A restricted structure assigns to each basis vector e_k a p-th power
e_k^[p], here stored as a coefficient vector.  The p-power, the omega of
a restricted 2-cochain and the beta of a restricted 3-cochain are all
p-semilinear on scaled basis vectors and additive up to a correction sum.
Over GF(p), a^p = a (Fermat), so a scaled basis vector a e_k maps to a
times the value on e_k, and no entry is raised to the p-th power.
`split_sum` is the one routine that evaluates such a map, on a vector or
on a stack of rows, in batches of split positions: a batch holds the
splits of every row at a run of positions, and the correction gets them as
(heads, tails) with one leading axis over the positions.  Two
evaluators for the p-th power are kept deliberately separate so they can
serve as mutual oracles:

* p_power_closed: the one-line formula valid on the maximal-class family,
  where every iterated bracket of length p vanishes and the p-power of
  sum(a_k e_k) is sum(a_k^p e_k^[p]).
* p_power_jacobson: `split_sum` with Jacobson's correction terms
  s_i(g, h), where i * s_i is the coefficient of t^(i-1) in
  ad(t g + h)^(p-1) applied to g.  That polynomial is built as a vector
  recursion on row stacks (`ad_recursion`): one row per power of t, with
  p-1 applications of w -> [h, w] + t [g, w] starting from w = g, two
  `LieAlgebra.bracket` calls each on the band of powers that is nonzero in
  some row.  On the family a split at a e_k, k >= 2, zeroes the stack in
  one step, and one at e_1 carries a single power.

A member of the family m_0^lambda(p) is its lambda: `Family(p, lam)`
holds make_m0(p) and lam, and reads its power matrix off lam.  A stack of
lambda vectors is a Family as well, and p_power_closed and
p_power_jacobson broadcast its power matrices against one block of rows
per member.  `batches` cuts such stacks into parts that BATCH_CELLS
bounds.  `RestrictedAlgebra` is the general case, an algebra with any
basis p-powers, which the central extensions are.

The restricted axiom ad(x^[p]) = ad(x)^p is checked on the basis by its
definition, on sparse {index: coefficient} vectors and the constants
looked up by first slot (`LieAlgebra.constants_by_first`, by k, then by
i, so that ad(e_k) of a central e_k costs nothing): ad(e_k) is applied to
each e_j until the p-th step or until the iterate vanishes, and no ad
matrix or matrix power is built.  A RestrictedAlgebra may hold a stack of
p-maps over its one algebra, as the central extensions of a Family stack
do; the iterate depends on the algebra alone, so it is computed once and
compared with [e_j, -e_k^[p]] of every member.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf, liealg


class RestrictedAlgebra:
    """A Lie algebra together with basis p-powers, the general case the
    extensions build; the family m_0^lambda(p) is a `Family`.

    Row k-1 of the read-only power_matrix is the coefficient vector of
    e_k^[p].  A stack of L p-maps on the one algebra, shape (L, dim, dim),
    is L members, which verify_restricted_map checks in one pass.
    """

    def __init__(self, algebra: liealg.LieAlgebra, basis_p_powers):
        self.algebra = algebra
        p, n = algebra.prime, algebra.dim
        try:
            matrix = gf.normalize(basis_p_powers, p)
        except ValueError:  # rows of different lengths
            matrix = None
        if matrix is None or matrix.ndim not in (2, 3) or matrix.shape[-2:] != (n, n):
            raise ValueError("basis_p_powers must give one vector of length dim per basis vector")
        matrix.setflags(write=False)
        self.power_matrix = matrix

    @property
    def prime(self):
        return self.algebra.prime

    @property
    def dim(self):
        return self.algebra.dim

    def __eq__(self, other):
        if not isinstance(other, RestrictedAlgebra):
            return NotImplemented
        return self.algebra == other.algebra and np.array_equal(
            self.power_matrix, other.power_matrix
        )

    def __repr__(self):
        return f"RestrictedAlgebra({self.algebra!r})"


class Family:
    """Members of the maximal-class family m_0^lambda(p): the algebra
    make_m0(p) with e_k^[p] = lam_k e_p, given by lam alone.  lam of shape
    (p,) is one member and (L, p) a stack of L members, read-only either
    way.  A stack is read by the routines that take one (p_power_closed,
    p_power_jacobson, restricted_cochains.ind1_values and ind2_matrix):
    member m reaches block m of the rows they get, so g has shape
    (L, rows, p).  An integer index gives one member, a slice the
    sub-stack."""

    def __init__(self, p: int, lam):
        lam = gf.normalize(lam, p)
        if lam.ndim not in (1, 2) or lam.shape[-1] != p:
            raise ValueError(f"lambda must have length {p}")
        lam.setflags(write=False)
        self.algebra = liealg.make_m0(p)
        self.lam = lam

    @property
    def prime(self):
        return self.algebra.prime

    @property
    def dim(self):
        return self.algebra.dim

    def __len__(self):
        if self.lam.ndim == 1:
            raise TypeError("one family member is not a stack")
        return len(self.lam)

    def __getitem__(self, index) -> Family:
        len(self)  # raises TypeError on one member
        return Family(self.prime, self.lam[index])

    @functools.cached_property
    def power_matrix(self):
        """e_k^[p] = lam_k e_p as the rows of one matrix per member."""
        out = gf.zeros(self.lam.shape + (self.dim,))
        out[..., -1] = self.lam
        out.setflags(write=False)
        return out


def p_power_closed(R: Family, g):
    """p-th power via the maximal-class closed form, of a vector or of each
    row of a stack; R is a family member, or a stack whose member m powers
    the rows g[m].

    Only valid on the maximal-class family; raises otherwise.  With
    g = sum(a_k e_k), returns sum(a_k^p lam_k) e_p, and a_k^p = a_k over
    GF(p) (Fermat), so that is g times lam.
    """
    if not isinstance(R, Family):
        raise ValueError("closed p-power formula requires a maximal-class family member")
    p = R.prime
    g = gf.normalize(g, p)
    out = gf.zeros(g.shape)
    out[..., p - 1] = (g @ R.lam[..., None])[..., 0] % p  # a column per member
    return out


# The one cell budget of the stacked routines.  split_sum batches as many
# split positions as keep each array its correction holds under it, at
# dim^2 cells a row and split, and at least one: max(BATCH_CELLS,
# rows * dim^2) cells.  A row and split holds a form matrix of the sum
# rules, dim^2 cells, and recursion rows of `ad_recursion`, band * nnz
# cells (the powers of t it carries times the nonzero constants a bracket
# reads), one power on the family's splits.  `batches` applies the same
# rule to the lambda stacks of the checks, whose parts then stay under it
# as well; the most rows one lambda brings are the 3(p + 1) of the omega
# sum rule.  At p = 61 their forms take 1.8 MB, and the rule peaks at
# 12.3 MB (tracemalloc) in the correction on unsplit rows, whose band
# spans every power.
BATCH_CELLS = 1 << 13


def batches(count: int, rows: int, dim: int) -> list[slice]:
    """Slices cutting a stack of count items, each bringing `rows` rows of
    length dim, into parts of at most BATCH_CELLS cells at dim^2 cells a
    row, one item at least.  split_sum cuts its split positions so, and
    the checks their lambda stacks."""
    step = max(1, BATCH_CELLS // max(rows * dim * dim, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def split_sum(p: int, v, on_basis, correction):
    """Value at v of a map known on scaled basis vectors and additive up
    to a correction: f(a e_k) = a^p f(e_k), with k 0-based, and
    f(x + y) = f(x) + f(y) + correction(x, y).

    v is a vector or a stack of rows, in any number of stack axes.  Each
    row is split into its basis terms lowest index first: each term adds
    its basis value, and the correction is taken between the term (the
    head) and the sum of the terms after it (the tail).

    on_basis(scales) gets the entries a_k^p, shaped as v, and returns
    sum_k scales_k f(e_k) for every row; a_k^p = a_k over GF(p) (Fermat),
    so the scales are the normalized rows of v themselves.
    correction(heads, tails) gets the splits at a run of positions k,
    shaped as v behind a leading axis over k: heads
    np.where(cols == k, v, 0), tails np.where(cols > k, v, 0).
    It returns its values with that leading axis; data it holds per row of
    v reaches them by broadcasting.  Every split of every row is evaluated,
    without branching on its entries: a zero head or tail must give a zero
    correction.  Values are scalars or vectors; the sums are returned mod
    p, one per row of v.
    """
    v = gf.normalize(v, p)
    n = v.shape[-1]
    total = np.array(on_basis(v), dtype=np.int64)
    cols = np.arange(n)
    # the last term has no tail, so the positions are 0..n-2
    for part in batches(n - 1, v.size // n, n):
        k = cols[: n - 1][part].reshape((-1,) + (1,) * v.ndim)
        total += correction(np.where(cols == k, v, 0), np.where(cols > k, v, 0)).sum(axis=0)
    total %= p
    return total[()]  # a scalar, not a 0-d array, for a vector of scalar values


def ad_recursion(A: liealg.LieAlgebra, g, h, w, steps: int):
    """The polynomial w(t) times `steps` factors ad(t g + h), for one pair
    (g, h) or for each pair of rows of two stacks.

    Row d of w holds the coefficient of t^d (w carries the stack axis of g
    and h ahead of its rows).  Each factor maps every row to [h, row] plus,
    one power of t up, [g, row]: two `bracket` calls on the stack.  Only
    the band of powers that is nonzero in some row of the stack is
    carried: the map is linear, so a power that is zero in every row adds
    nothing at its own power or at the next, and once the whole stack is
    zero the rest of it is.  Returns (low, band): band holds the rows of
    the product from t^low on, and its other rows, len(w) + steps in all,
    are zero.
    """
    p = A.prime
    g, h = g[..., None, :], h[..., None, :]
    low = 0
    for _ in range(steps):
        live = np.flatnonzero(w.any(axis=-1).reshape(-1, w.shape[-2]).any(axis=0))
        if not live.size:
            break
        low += live[0]
        w = w[..., live[0] : live[-1] + 1, :]
        # [h, row] at its own power, [g, row] one power up
        up = A.bracket(g, w)
        w = np.concatenate([A.bracket(h, w), up[..., -1:, :]], axis=-2)
        w[..., 1:-1, :] += up[..., :-1, :]
        w %= p
    return low, w


def jacobson_corrections(R: RestrictedAlgebra, g, h):
    """Sum of the correction terms s_i(g, h), i = 1..p-1, for one pair of
    vectors or for each pair of rows of two stacks.

    i * s_i(g, h) is the coefficient of t^(i-1) in ad(t g + h)^(p-1)
    applied to g: `ad_recursion` of w = g over p-1 factors, whose t^(p-1)
    row is not read.
    """
    p = R.prime
    g = gf.normalize(g, p)
    h = gf.normalize(h, p)
    weights = np.array([gf.inv_mod(i, p) for i in range(1, p)] + [0], dtype=np.int64)
    low, w = ad_recursion(R.algebra, g, h, g[..., None, :], p - 1)
    return weights[low : low + w.shape[-2]] @ w % p


def p_power_jacobson(R: RestrictedAlgebra | Family, g):
    """p-th power of a vector, or of each row of a stack, by basis splitting
    plus corrections: (a e_k)^[p] = a^p e_k^[p] and
    (x + y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y).  R is one restricted
    algebra or family member, or a Family stack whose member m powers the
    rows g[m].
    """
    return split_sum(
        R.prime, g,
        lambda scales: scales @ R.power_matrix,
        lambda x, y: jacobson_corrections(R, x, y),
    )


def verify_restricted_map(R: RestrictedAlgebra | Family):
    """Check ad(e_k^[p]) == ad(e_k)^p for every basis vector, on brackets:
    each e_j goes through x -> [e_k, x] up to p times and is compared with
    [e_k^[p], e_j].  The iteration stops once x is zero, which then stays
    zero.  Vectors are sparse {1-based index: coefficient} dicts, and each
    bracket [e_k, x] reads only the constants of the pairs (k, i) for the
    terms e_i of x; [e_k^[p], e_j] is taken as [e_j, -e_k^[p]].

    Returns (True, None) or (False, k) for the first failing 1-based k.
    A stack of p-maps gets one such pair per member, in a list: the
    iterates of each k are computed once for all of them, members with the
    same e_k^[p] are compared once, and a member is left out from its
    first failing k on.
    """
    p = R.prime
    by_first = R.algebra.constants_by_first

    def ad(k, x):
        pairs = by_first.get(k)
        if not pairs:
            return {}
        out: dict[int, int] = {}
        for i, a in x.items():
            for m, c in pairs.get(i, ()):
                out[m] = (out.get(m, 0) + a * c) % p
        return {m: c for m, c in out.items() if c}

    stack = R.power_matrix.reshape(-1, R.dim, R.dim)
    failing = [None] * len(stack)
    for k in range(1, R.dim + 1):
        rows: dict[tuple, list[int]] = {}  # e_k^[p] -> the members left with it
        for m, row in enumerate(stack[:, k - 1].tolist()):
            if failing[m] is None:
                rows.setdefault(tuple(row), []).append(m)
        if not rows:
            break
        groups = [
            ({i: p - c for i, c in enumerate(row, start=1) if c}, members)
            for row, members in rows.items()
        ]
        for j in range(1, R.dim + 1):
            x = {j: 1}
            for _ in range(p):
                x = ad(k, x)
                if not x:
                    break
            for minus_power, members in groups:
                if failing[members[0]] is None and ad(j, minus_power) != x:
                    for m in members:
                        failing[m] = k
    verdicts = [(k is None, k) for k in failing]
    return verdicts if R.power_matrix.ndim == 3 else verdicts[0]


def to_json(R: RestrictedAlgebra) -> dict:
    data = liealg.to_json(R.algebra)
    data["p_powers"] = R.power_matrix.tolist()
    return data

