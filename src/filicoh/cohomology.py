"""Degree 1 and 2 cohomology, ordinary and restricted, with labeled bases.

Each computation assembles the differential matrices over the dual bases,
extracts kernel and image, and picks representatives by a deterministic
greedy pass over a candidate list of distinguished cocycles.  Candidates
are consumed in order and kept exactly when they grow the span past the
image, so golden tests can compare labels rather than raw coordinates.
The closed-form dimension counts live in expected_summary; compare never
raises on a mismatch, it reports one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import cochains, gf, liealg, restricted
from . import restricted_cochains as rcoch


@dataclass
class CohomologySummary:
    """One cohomology group: dimensions plus labeled basis data."""

    prime: int
    lam: tuple[int, ...] | None
    degree: int
    restricted: bool
    dimension: int
    kernel_dim: int
    image_dim: int
    representatives: list
    kernel_basis: list

    def __post_init__(self):
        if self.dimension != self.kernel_dim - self.image_dim:
            raise ValueError("dimension must equal kernel_dim - image_dim")
        if len(self.representatives) != self.dimension:
            raise ValueError("representative count must equal dimension")
        if len(self.kernel_basis) != self.kernel_dim:
            raise ValueError("kernel basis size must equal kernel_dim")


@dataclass(frozen=True)
class ExpectedEntry:
    dimension: int
    kernel_dim: int
    image_dim: int


@dataclass(frozen=True)
class ExpectedSummary:
    """Closed-form dimension table for one (p, lambda)."""

    prime: int
    lam: tuple[int, ...]
    h1: ExpectedEntry
    h1_star: ExpectedEntry
    h2: ExpectedEntry
    h2_star: ExpectedEntry

    def entry(self, degree: int, restricted_flag: bool) -> ExpectedEntry:
        table = {
            (1, False): self.h1,
            (1, True): self.h1_star,
            (2, False): self.h2,
            (2, True): self.h2_star,
        }
        return table[(degree, restricted_flag)]


def _select(image_rows, kernel_rows, candidates, fallback, p):
    """Greedy pick of labeled kernel elements independent modulo the image.

    candidates: (object, vector) pairs tried in order; only those inside
    the kernel span compete.  fallback turns a raw kernel row into an
    object so the pick always completes even if the candidates fall short.
    """
    picked_objs = []
    span = gf.SpanTracker(p, image_rows)
    kernel_span = gf.SpanTracker(p, kernel_rows)
    pool = [(obj, vec) for obj, vec in candidates if kernel_span.contains(vec)]
    pool += [(fallback(vec), vec) for vec in kernel_rows]
    for obj, vec in pool:
        if span.add(vec):
            picked_objs.append(obj)
    return picked_objs


def _is_standard(A: liealg.LieAlgebra) -> bool:
    if A.dim != A.prime:
        return False
    try:
        return A == liealg.make_m0(A.prime)
    except ValueError:
        return False


@functools.lru_cache(maxsize=None)
def _standard_d2_matrix(p: int):
    """d2 of the maximal-class algebra, built once per prime; read-only
    because every caller shares the cached array."""
    m = cochains.d2_matrix(liealg.make_m0(p))
    m.setflags(write=False)
    return m


def _d2_block(A: liealg.LieAlgebra):
    if _is_standard(A):
        return _standard_d2_matrix(A.prime)
    return cochains.d2_matrix(A)


def _dual_candidates_deg1(p, dim):
    return [
        (cochains.dual_cochain(p, dim, (k,)), gf.normalize([0] * (k - 1) + [1] + [0] * (dim - k), p))
        for k in range(1, dim + 1)
    ]


def _pair_candidates(p, dim, keys):
    out = []
    for key in keys:
        c = cochains.dual_cochain(p, dim, key) if isinstance(key, tuple) else key
        out.append((c, c.to_vector()))
    return out


def _h2_rep_candidates(p, dim):
    # distinguished cocycles first: the top corner pair, then the
    # alternating weight forms in increasing weight
    if dim == p and p >= 3:
        keys = [(1, p)] + [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
    elif dim == p == 2:
        keys = [(1, 2)]
    else:
        keys = cochains.index_tuples(dim, 2)
    return _pair_candidates(p, dim, keys)


def _h2_kernel_candidates(p, dim):
    if dim == p and p >= 3:
        keys = [(1, j) for j in range(2, p + 1)]
        keys += [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
    elif dim == p == 2:
        keys = [(1, 2)]
    else:
        keys = cochains.index_tuples(dim, 2)
    return _pair_candidates(p, dim, keys)


def h1(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-1 cohomology: the whole kernel of d1."""
    p = A.prime
    kernel = gf.kernel_basis(cochains.d1_matrix(A), p)
    reps = _select(
        [],
        kernel,
        _dual_candidates_deg1(p, A.dim),
        lambda v: cochains.Cochain.from_vector(p, A.dim, 1, v),
        p,
    )
    return CohomologySummary(
        prime=p,
        lam=None,
        degree=1,
        restricted=False,
        dimension=len(kernel),
        kernel_dim=len(kernel),
        image_dim=0,
        representatives=reps,
        kernel_basis=list(reps),
    )


def _d1_star_matrix(R: restricted.RestrictedAlgebra):
    """Matrix of d1* over the degree-1 duals: d1 rows over the induced
    omega values.  Column k is the coordinate vector of d1*(e^k)."""
    A = R.algebra
    ind_rows = gf.zeros((A.dim, A.dim))
    for j in range(1, A.dim + 1):
        psi = cochains.dual_cochain(A.prime, A.dim, (j,))
        ind_rows[:, j - 1] = rcoch.ind1_values(R, psi)
    return np.vstack([cochains.d1_matrix(A), ind_rows])


def h1_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-1 cohomology: d1 plus the induced omega values."""
    A = R.algebra
    p = A.prime
    kernel = gf.kernel_basis(_d1_star_matrix(R), p)
    reps = _select(
        [],
        kernel,
        _dual_candidates_deg1(p, A.dim),
        lambda v: cochains.Cochain.from_vector(p, A.dim, 1, v),
        p,
    )
    return CohomologySummary(
        prime=p,
        lam=R.lam,
        degree=1,
        restricted=True,
        dimension=len(kernel),
        kernel_dim=len(kernel),
        image_dim=0,
        representatives=reps,
        kernel_basis=list(reps),
    )


def h2(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-2 cohomology: ker d2 modulo im d1."""
    p = A.prime
    kernel = gf.kernel_basis(_d2_block(A), p)
    image_rows = cochains.d1_matrix(A).T
    image_dim = gf.rank(image_rows, p)
    build = lambda v: cochains.Cochain.from_vector(p, A.dim, 2, v)
    reps = _select(image_rows, kernel, _h2_rep_candidates(p, A.dim), build, p)
    kbasis = _select([], kernel, _h2_kernel_candidates(p, A.dim), build, p)
    return CohomologySummary(
        prime=p,
        lam=None,
        degree=2,
        restricted=False,
        dimension=len(kernel) - image_dim,
        kernel_dim=len(kernel),
        image_dim=image_dim,
        representatives=reps,
        kernel_basis=kbasis,
    )


def _restricted_two_matrix(R: restricted.RestrictedAlgebra):
    """Matrix of d2* over the (pair duals, Frobenius duals) coordinates.

    Columns for the Frobenius duals are zero since d2* ignores the omega
    part; rows stack the d2 triples over the flattened induced-beta grid.
    """
    A = R.algebra
    p = A.prime
    pairs = cochains.index_tuples(A.dim, 2)
    top = _d2_block(A)
    bottom = gf.zeros((A.dim * A.dim, len(pairs)))
    for col, key in enumerate(pairs):
        phi = cochains.dual_cochain(p, A.dim, key)
        bottom[:, col] = rcoch.ind2_matrix(R, phi).reshape(-1)
    left = np.vstack([top, bottom])
    return np.hstack([left, gf.zeros((left.shape[0], A.dim))])


def _h2_star_candidates(R: restricted.RestrictedAlgebra, kernel_keys: bool):
    A = R.algebra
    p = A.prime
    dim = A.dim
    npairs = dim * (dim - 1) // 2
    out = []
    for k in range(1, dim + 1):
        c = rcoch.frobenius_dual_cochain(p, dim, k)
        out.append((c, c.to_vector()))
    if dim == p and p >= 3:
        if kernel_keys:
            keys = [(1, j) for j in range(2, p + 1)]
        else:
            keys = [(1, p)]
        forms = [cochains.dual_cochain(p, dim, key) for key in keys]
        forms += [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
    elif dim == p == 2:
        forms = [cochains.dual_cochain(p, dim, (1, 2))]
    else:
        forms = [cochains.dual_cochain(p, dim, key) for key in cochains.index_tuples(dim, 2)]
    for phi in forms:
        c = rcoch.RestrictedTwoCochain(phi, (0,) * dim)
        out.append((c, c.to_vector()))
    return out


def h2_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-2 cohomology: ker d2* modulo im d1*."""
    A = R.algebra
    p = A.prime
    kernel = gf.kernel_basis(_restricted_two_matrix(R), p)
    image_rows = _d1_star_matrix(R).T
    image_dim = gf.rank(image_rows, p)
    build = lambda v: rcoch.RestrictedTwoCochain.from_vector(p, A.dim, v)
    reps = _select(image_rows, kernel, _h2_star_candidates(R, kernel_keys=False), build, p)
    kbasis = _select([], kernel, _h2_star_candidates(R, kernel_keys=True), build, p)
    return CohomologySummary(
        prime=p,
        lam=R.lam,
        degree=2,
        restricted=True,
        dimension=len(kernel) - image_dim,
        kernel_dim=len(kernel),
        image_dim=image_dim,
        representatives=reps,
        kernel_basis=kbasis,
    )


def expected_summary(p: int, lam) -> ExpectedSummary:
    """Closed-form dimensions for the graded family at one (p, lambda)."""
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    lam = tuple(int(x) % p for x in lam)
    if len(lam) != p:
        raise ValueError("lambda must have one entry per basis vector")
    nonzero = any(lam)
    if p >= 3:
        h1e = ExpectedEntry(2, 2, 0)
        h1se = ExpectedEntry(2, 2, 0)
        h2e = ExpectedEntry((p + 1) // 2, (3 * p - 3) // 2, p - 2)
        if nonzero:
            h2se = ExpectedEntry((3 * p - 3) // 2, (5 * p - 7) // 2, p - 2)
        else:
            h2se = ExpectedEntry((3 * p + 1) // 2, (5 * p - 3) // 2, p - 2)
    else:
        h1e = ExpectedEntry(2, 2, 0)
        h1se = ExpectedEntry(1, 1, 0) if nonzero else ExpectedEntry(2, 2, 0)
        h2e = ExpectedEntry(1, 1, 0)
        h2se = ExpectedEntry(1, 2, 1) if nonzero else ExpectedEntry(3, 3, 0)
    return ExpectedSummary(p, lam, h1e, h1se, h2e, h2se)


def compare(computed: CohomologySummary, expected: ExpectedSummary) -> dict:
    """Field-by-field report of a computed summary against the closed forms."""
    checks = []

    def add(name, got, want):
        checks.append({"field": name, "computed": got, "expected": want, "ok": got == want})

    add("prime", computed.prime, expected.prime)
    if computed.lam is not None:
        add("lambda", tuple(computed.lam), tuple(expected.lam))
    entry = expected.entry(computed.degree, computed.restricted)
    add("dim", computed.dimension, entry.dimension)
    add("kernel_dim", computed.kernel_dim, entry.kernel_dim)
    add("image_dim", computed.image_dim, entry.image_dim)
    add("representative_count", len(computed.representatives), entry.dimension)
    return {
        "degree": computed.degree,
        "restricted": computed.restricted,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def summary_to_json(s: CohomologySummary) -> dict:
    return {
        "prime": s.prime,
        "lambda": list(s.lam) if s.lam is not None else None,
        "degree": s.degree,
        "restricted": s.restricted,
        "dim": s.dimension,
        "kernel_dim": s.kernel_dim,
        "image_dim": s.image_dim,
        "representatives": [str(r) for r in s.representatives],
    }
