"""Restricted structures: p-power maps on graded Lie algebras over GF(p).

A restricted structure assigns to each basis vector e_k a p-th power
e_k^[p], here stored as a coefficient vector.  Two evaluators for the
p-th power of a general element are kept deliberately separate so they
can serve as mutual oracles:

* p_power_closed: the one-line formula valid on the maximal-class family,
  where every iterated bracket of length p vanishes and the p-power of
  sum(a_k e_k) is sum(a_k^p e_k^[p]).
* p_power_jacobson: the general recursion that splits an element into
  basis terms and adds the correction terms s_i(g, h), where i * s_i is
  the coefficient of t^(i-1) in ad(t g + h)^(p-1) applied to g.
"""

from __future__ import annotations

import numpy as np

from . import gf, liealg


class RestrictedAlgebra:
    """A Lie algebra together with basis p-powers.

    basis_p_powers[k-1] is the coefficient vector of e_k^[p].  When the
    algebra is a member of the maximal-class family with e_k^[p] in the
    span of the top basis vector, `lam` stores the coefficient vector
    (lam[k-1] = coefficient of e_dim in e_k^[p]) and unlocks the closed
    p-power formula.
    """

    def __init__(self, algebra: liealg.LieAlgebra, basis_p_powers, lam=None):
        self.algebra = algebra
        p = algebra.prime
        powers = [gf.normalize(v, p) for v in basis_p_powers]
        if len(powers) != algebra.dim or any(v.shape != (algebra.dim,) for v in powers):
            raise ValueError("basis_p_powers must give one vector of length dim per basis vector")
        self.basis_p_powers = powers
        self.lam = None if lam is None else tuple(int(x) % p for x in lam)

    @property
    def prime(self):
        return self.algebra.prime

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def is_m0_family(self):
        return self.lam is not None

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


def _poly_mul(a, b, p):
    """Product of two matrix polynomials given as lists of coefficient matrices."""
    out = [gf.zeros(a[0].shape) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if not ai.any():
            continue
        for j, bj in enumerate(b):
            if not bj.any():
                continue
            out[i + j] = (out[i + j] + ai @ bj) % p
    return out


def jacobson_corrections(R: RestrictedAlgebra, g, h):
    """Sum of the correction terms s_i(g, h), i = 1..p-1.

    i * s_i(g, h) is the coefficient of t^(i-1) in ad(t g + h)^(p-1)
    applied to g, computed here by exact polynomial matrix arithmetic in
    the formal variable t.
    """
    p = R.prime
    A = R.algebra
    g = gf.normalize(g, p)
    h = gf.normalize(h, p)
    lin = [liealg.ad_matrix(A, h), liealg.ad_matrix(A, g)]  # ad(h) + t ad(g)
    power = [gf.identity(A.dim)]
    for _ in range(p - 1):
        power = _poly_mul(power, lin, p)
    total = gf.zeros(A.dim)
    for i in range(1, p):
        coeff_vec = (power[i - 1] @ g) % p
        total = (total + gf.inv_mod(i, p) * coeff_vec) % p
    return total


def p_power_jacobson(R: RestrictedAlgebra, g):
    """p-th power of a general element by basis splitting plus corrections.

    Splits g into its basis terms t_1 + t_2 + ... (increasing index) and
    applies (x + y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y) one term at a
    time.  Scaled basis vectors use (a e_k)^[p] = a^p e_k^[p].
    """
    p = R.prime
    g = gf.normalize(g, p)
    support = [k for k in range(R.dim) if g[k] != 0]
    if not support:
        return gf.zeros(R.dim)
    if len(support) == 1:
        k = support[0]
        return (pow(int(g[k]), p, p) * R.basis_p_powers[k]) % p
    head = gf.zeros(R.dim)
    head[support[0]] = g[support[0]]
    rest = g.copy()
    rest[support[0]] = 0
    out = (
        p_power_jacobson(R, head)
        + p_power_jacobson(R, rest)
        + jacobson_corrections(R, head, rest)
    ) % p
    return out


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
