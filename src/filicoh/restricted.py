"""Restricted structures: p-power maps on graded Lie algebras over GF(p).

A restricted structure assigns to each basis vector e_k a p-th power
e_k^[p], here stored as a coefficient vector.  The p-power, the omega of
a restricted 2-cochain and the beta of a restricted 3-cochain are all
p-semilinear on scaled basis vectors and additive up to a correction sum;
`split_sum` is the one loop that evaluates such a map at a general
element.  Two evaluators for the p-th power are kept deliberately
separate so they can serve as mutual oracles:

* p_power_closed: the one-line formula valid on the maximal-class family,
  where every iterated bracket of length p vanishes and the p-power of
  sum(a_k e_k) is sum(a_k^p e_k^[p]).
* p_power_jacobson: `split_sum` with Jacobson's correction terms
  s_i(g, h), where i * s_i is the coefficient of t^(i-1) in
  ad(t g + h)^(p-1) applied to g.  That polynomial is built as a vector
  recursion: one vector per power of t, with p-1 applications of
  w -> ad(h) w + t ad(g) w starting from w = g.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf, liealg


class RestrictedAlgebra:
    """A Lie algebra together with basis p-powers.

    basis_p_powers[k-1] is the coefficient vector of e_k^[p].  `lam` marks
    a member of the maximal-class family: the algebra is make_m0(p) and
    e_k^[p] = lam[k-1] e_p for every k, which the constructor checks.  It
    unlocks the closed p-power formula.
    """

    def __init__(self, algebra: liealg.LieAlgebra, basis_p_powers, lam=None):
        self.algebra = algebra
        p = algebra.prime
        powers = [gf.normalize(v, p) for v in basis_p_powers]
        if len(powers) != algebra.dim or any(v.shape != (algebra.dim,) for v in powers):
            raise ValueError("basis_p_powers must give one vector of length dim per basis vector")
        self.basis_p_powers = powers
        self.lam = None if lam is None else tuple(int(x) % p for x in lam)
        if self.lam is not None and (
            algebra != liealg.make_m0(p)
            or len(self.lam) != p
            or any(v[:-1].any() or v[-1] != x for v, x in zip(powers, self.lam))
        ):
            raise ValueError(
                "lambda is given only for the family m_0^lambda(p): "
                "make_m0(p) with e_k^[p] = lambda_k e_p"
            )

    @property
    def prime(self):
        return self.algebra.prime

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def is_m0_family(self):
        return self.lam is not None

    @functools.cached_property
    def power_rows(self) -> tuple[tuple[int, ...], ...]:
        """A basis of the span of the e_k^[p]: the nonzero rref rows of the
        power matrix as int tuples, at most one row on the family.  It keys
        the memoised reductions of d1* and d2*, so it is computed once."""
        r, pivots = gf.rref(np.stack(self.basis_p_powers), self.prime)
        return tuple(map(tuple, r[: len(pivots)].tolist()))

    def __eq__(self, other):
        if not isinstance(other, RestrictedAlgebra):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.lam == other.lam
            and all((a == b).all() for a, b in zip(self.basis_p_powers, other.basis_p_powers))
        )

    def __repr__(self):
        return f"RestrictedAlgebra({self.algebra!r}, lam={self.lam})"


def make_m0_lambda(p: int, lam) -> RestrictedAlgebra:
    """Maximal-class algebra with p-powers e_k^[p] = lam_k * e_p.

    Args:
        p: prime.
        lam: sequence of p integers, reduced mod p.
    """
    A = liealg.make_m0(p)
    lam = [int(x) % p for x in lam]
    if len(lam) != p:
        raise ValueError(f"lambda must have length {p}")
    powers = []
    for k in range(1, p + 1):
        v = gf.zeros(p)
        v[p - 1] = lam[k - 1]
        powers.append(v)
    return RestrictedAlgebra(A, powers, lam=lam)


def lam_str(lam) -> str:
    return ",".join(str(int(x)) for x in lam)


def p_power_closed(R: RestrictedAlgebra, g):
    """p-th power via the maximal-class closed form.

    Only valid on the maximal-class family; raises otherwise.  With
    g = sum(a_k e_k), returns sum(a_k^p lam_k) e_p.
    """
    if not R.is_m0_family:
        raise ValueError("closed p-power formula requires a maximal-class family member")
    p = R.prime
    g = gf.normalize(g, p)
    total = 0
    for k in range(p):
        total = (total + pow(int(g[k]), p, p) * R.lam[k]) % p
    out = gf.zeros(p)
    out[p - 1] = total
    return out


def split_sum(p: int, v, on_basis, correction):
    """Value at v of a map known on scaled basis vectors and additive up
    to a correction: f(a e_k) = on_basis(k, a^p), with k 0-based, and
    f(x + y) = f(x) + f(y) + correction(x, y).

    v is split into its basis terms lowest index first, in one pass: each
    term adds its basis value, and the correction is taken between the
    term and the sum of the terms after it.  Values are ints or vectors;
    the sum is returned mod p, and 0 when v is zero.
    """
    v = gf.normalize(v, p)
    tail = v
    total = 0
    for k in np.flatnonzero(v):
        total = total + on_basis(k, pow(int(v[k]), p, p))
        tail = tail.copy()
        tail[k] = 0
        if tail.any():
            head = gf.zeros(len(v))
            head[k] = v[k]
            total = total + correction(head, tail)
    return total % p


def jacobson_corrections(R: RestrictedAlgebra, g, h):
    """Sum of the correction terms s_i(g, h), i = 1..p-1.

    i * s_i(g, h) is the coefficient of t^(i-1) in ad(t g + h)^(p-1)
    applied to g.  Row d of w holds the coefficient of t^d; each of the
    p-1 factors maps w to ad(h) w + t ad(g) w.  Once w is zero it stays
    zero, so the sum is zero.
    """
    p = R.prime
    A = R.algebra
    g = gf.normalize(g, p)
    h = gf.normalize(h, p)
    ad_h = liealg.ad_matrix(A, h).T
    ad_g = liealg.ad_matrix(A, g).T
    w = g[None, :]
    for _ in range(p - 1):
        if not w.any():
            return gf.zeros(A.dim)
        nxt = gf.zeros((len(w) + 1, A.dim))
        nxt[:-1] = w @ ad_h
        nxt[1:] += w @ ad_g
        w = nxt % p
    inverses = np.array([gf.inv_mod(i, p) for i in range(1, p)], dtype=np.int64)
    return (inverses @ w[: p - 1]) % p


def p_power_jacobson(R: RestrictedAlgebra, g):
    """p-th power of a general element by basis splitting plus corrections:
    (a e_k)^[p] = a^p e_k^[p] and (x + y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y).
    """
    value = split_sum(
        R.prime, g,
        lambda k, scale: scale * R.basis_p_powers[k],
        lambda x, y: jacobson_corrections(R, x, y),
    )
    return gf.zeros(R.dim) + value


def p_power(R: RestrictedAlgebra, g):
    """p-th power of g: closed route on the family, Jacobson route otherwise."""
    if R.is_m0_family:
        return p_power_closed(R, g)
    return p_power_jacobson(R, g)


def verify_restricted_map(R: RestrictedAlgebra):
    """Check ad(e_k^[p]) == ad(e_k)^p for every basis vector.

    Returns (True, None) or (False, k) for the first failing 1-based k.
    """
    A = R.algebra
    p = R.prime
    for k in range(1, A.dim + 1):
        lhs = liealg.ad_matrix(A, R.basis_p_powers[k - 1])
        rhs = gf.mat_pow(liealg.ad_matrix(A, A.basis_vector(k)), p, p)
        if (lhs != rhs).any():
            return False, k
    return True, None


def to_json(R: RestrictedAlgebra) -> dict:
    data = liealg.to_json(R.algebra)
    data["p_powers"] = [[int(c) for c in v] for v in R.basis_p_powers]
    if R.lam is not None:
        data["lambda"] = list(R.lam)
    return data


def from_json(data: dict) -> RestrictedAlgebra:
    A = liealg.from_json(data)
    if "p_powers" in data:
        powers = data["p_powers"]
    elif "lambda" in data:
        powers = []
        for k in range(A.dim):
            v = [0] * A.dim
            v[A.dim - 1] = data["lambda"][k]
            powers.append(v)
    else:
        raise ValueError("restricted algebra JSON needs p_powers or lambda")
    return RestrictedAlgebra(A, powers, lam=data.get("lambda"))
