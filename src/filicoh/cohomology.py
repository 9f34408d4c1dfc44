"""Degree 1 and 2 cohomology of the family m_0^lambda(p), with labeled bases.

Only make_m0(p) and its restricted family members are accepted; anything
else raises ValueError.  d1* and d2* are reduced once per row space of the
p-power vectors and memoised: a family member changes only the induced
rows (omega for d1*, beta for d2*), and those depend on lambda only
through that row space, the line of e_p or 0.  So each prime needs at most
two reductions per degree, and lambda = 0 shares its reduction with the
ordinary H1 and H2.  d1* is reduced by one rref; d2 preserves weight, so
d2* is reduced one weight block at a time and the dense d2 is never
built.  An entry keeps only the pivots, the canonical kernel basis (an
rref is unique, so it is that of the dense d1* or d2*) and which
distinguished cocycles it kills; per lambda the groups look it up and
pick representatives by a deterministic greedy pass that keeps a
candidate exactly when it grows the span past the image, so golden tests
can compare labels rather than raw coordinates.  The closed-form
dimension counts live in expected_summary; compare never raises on a
mismatch, it reports one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import cochains, gf, liealg, restricted
from . import restricted_cochains as rcoch


@dataclass
class CohomologySummary:
    """One cohomology group: dimensions, labeled representatives and the
    kernel rows they were picked from."""

    prime: int
    lam: tuple[int, ...] | None
    degree: int
    restricted: bool
    dimension: int
    kernel_dim: int
    image_dim: int
    representatives: list
    kernel: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.dimension != self.kernel_dim - self.image_dim:
            raise ValueError("dimension must equal kernel_dim - image_dim")
        if len(self.representatives) != self.dimension:
            raise ValueError("representative count must equal dimension")
        if len(self.kernel) != self.kernel_dim:
            raise ValueError("kernel size must equal kernel_dim")


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


def _cohomology(entry, image_rows, candidates, *, prime, lam, degree, restricted):
    """The kernel of a memoised reduction modulo the span of image_rows,
    with labeled representatives.

    candidates: (cochains, read-only stack of their coordinate vectors),
    tried in order; only those the entry marks killed compete, and one is
    kept exactly when it grows the span past the image.  On the family the
    distinguished cocycles always complete the quotient (CohomologySummary
    raises if they do not).
    """
    span = gf.SpanTracker(prime, image_rows)
    image_dim = span.rank
    forms, vectors = candidates
    reps = [c for c, v, k in zip(forms, vectors, entry.killed) if k and span.add(v)]
    return CohomologySummary(
        prime=prime,
        lam=lam,
        degree=degree,
        restricted=restricted,
        dimension=len(entry.kernel) - image_dim,
        kernel_dim=len(entry.kernel),
        image_dim=image_dim,
        representatives=reps,
        kernel=entry.kernel,
    )


@dataclass(frozen=True)
class _Reduction:
    """What the groups read of one reduction of d1* or d2*: the pivot
    columns of its rref, the canonical kernel basis (gf.kernel_from_rref
    order) and which of the restricted candidates it kills."""

    pivots: tuple[int, ...]
    kernel: np.ndarray
    killed: np.ndarray


@functools.lru_cache(maxsize=4)
def _reduced(p: int, degree: int, powers: tuple) -> _Reduction:
    """Reduction of d1* (degree 1) or d2* (degree 2) for make_m0(p) whose
    p-power vectors span the rows of powers (RestrictedAlgebra.power_rows):
    d1 over those rows, or d2 over their induced-beta rows, with the p zero
    Frobenius columns of d2* last.  powers == () is d1 or d2 alone.

    d1* is one dense rref.  d2* is reduced one weight block at a time
    (cochains.d2_blocks); each induced-beta row joins the block of its
    weight, and a row that spans two weights raises ValueError (on the
    family the rows of the line of e_p are the units at (a, p), one per
    block a + p).  The blocks have disjoint columns and an rref is unique,
    so the block pivots and kernels, placed in global column order, are
    those of the dense d2*.  On the family the powers span 0 or the line
    of e_p: two entries per (p, degree), and the memo keeps the four of
    one prime, since grids and sweeps visit primes in turn.  Read-only
    because every caller shares it."""
    A = liealg.make_m0(p)
    new = np.array(powers, dtype=np.int64).reshape(-1, p)
    if degree == 1:
        ncols = p
        blocks = [(np.arange(p), np.vstack([cochains.d1_matrix(A), new]))]
    else:
        npairs = p * (p - 1) // 2
        ncols = npairs + p
        by_weight = cochains.d2_blocks(A)
        col_weight = gf.zeros(npairs)
        for w, (cols, _) in by_weight.items():
            col_weight[cols] = w
        for row in _ind2_block(new, p):
            weights = set(col_weight[row != 0].tolist())
            if len(weights) > 1:
                raise ValueError("an induced-beta row spans several weights")
            for w in weights:
                cols, block = by_weight[w]
                by_weight[w] = cols, np.vstack([block, row[cols]])
        blocks = [*by_weight.values(), (np.arange(npairs, ncols), gf.zeros((0, p)))]
    vectors = _candidates(p, degree, True)[1]
    pivots, kernels = [], []
    killed = np.ones(len(vectors), dtype=bool)
    for cols, block in blocks:
        r, piv = gf.rref(block, p)
        pivots += cols[piv].tolist()
        kernels.append((cols, gf.kernel_from_rref(r, piv, p)))
        killed &= ~gf.mat_mul(r[: len(piv)], vectors[:, cols].T, p).any(axis=0)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    row_of = np.cumsum(is_free) - 1  # kernel row of each free column
    kernel = gf.zeros((int(is_free.sum()), ncols))
    for cols, k in kernels:
        kernel[np.ix_(row_of[cols[is_free[cols]]], cols)] = k
    kernel.setflags(write=False)
    killed.setflags(write=False)
    return _Reduction(tuple(sorted(pivots)), kernel, killed)


def _ind2_block(powers, p: int):
    """Induced-beta rows of d2* over the pair duals for the p-power vectors
    in the rows of powers: row (i, j), column (a, b) is e^{a,b}(e_i ^ w_j)
    with w_j row j of powers."""
    n = powers.shape[1]
    a, b = (np.array(t) - 1 for t in zip(*cochains.index_tuples(n, 2)))
    eye = gf.identity(n)
    block = eye[:, None, a] * powers[None, :, b] - eye[:, None, b] * powers[None, :, a]
    return block.reshape(-1, len(a)) % p


@functools.lru_cache(maxsize=4)
def _candidates(p: int, degree: int, restricted: bool):
    """Distinguished cocycles with the read-only stack of their coordinate
    vectors, built once per prime.  Degree 1: the duals e^k.  Degree 2: the
    top corner pair, then the alternating weight forms in increasing
    weight; for H2+ these follow the Frobenius duals, with zero omega."""
    if degree == 1:
        forms = [cochains.dual_cochain(p, p, (k,)) for k in range(1, p + 1)]
    else:
        forms = [cochains.dual_cochain(p, p, (1, p))]
        forms += [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
        if restricted:
            forms = [rcoch.frobenius_dual_cochain(p, p, k) for k in range(1, p + 1)] + [
                rcoch.RestrictedTwoCochain(phi, (0,) * p) for phi in forms
            ]
    vectors = np.stack([c.to_vector() for c in forms])
    vectors.setflags(write=False)
    return tuple(forms), vectors


def h1(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-1 cohomology of make_m0(p): the whole kernel of d1."""
    if A != liealg.make_m0(A.prime):
        raise ValueError("h1 is computed on make_m0(p) only")
    return _cohomology(
        _reduced(A.prime, 1, ()), (), _candidates(A.prime, 1, False),
        prime=A.prime, lam=None, degree=1, restricted=False,
    )


def _d1_star_matrix(R: restricted.RestrictedAlgebra):
    """Matrix of d1* over the degree-1 duals: d1 rows over the induced
    omega rows, whose row k is e_k^[p].  Column k is the coordinate vector
    of d1*(e^k)."""
    return np.vstack([cochains.d1_matrix(R.algebra), np.stack(R.basis_p_powers)])


def h1_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-1 cohomology: the kernel of d1 over the induced
    omega rows, looked up by the row space of the p-powers."""
    if not R.is_m0_family:
        raise ValueError("h1_star is computed on the family m_0^lambda(p) only")
    p = R.prime
    return _cohomology(
        _reduced(p, 1, R.power_rows), (), _candidates(p, 1, True),
        prime=p, lam=R.lam, degree=1, restricted=True,
    )


def h2(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-2 cohomology of make_m0(p): ker d2 modulo im d1."""
    if A != liealg.make_m0(A.prime):
        raise ValueError("h2 is computed on make_m0(p) only")
    p = A.prime
    star = _reduced(p, 2, ())
    # the p zero Frobenius columns are free and last, so their kernel rows
    # are the last p, and the Frobenius duals lead the restricted
    # candidates: dropping both leaves ker d2 and its kill mask
    entry = _Reduction(star.pivots, star.kernel[:-p, :-p], star.killed[p:])
    return _cohomology(
        entry, cochains.d1_matrix(A).T, _candidates(p, 2, False),
        prime=p, lam=None, degree=2, restricted=False,
    )


def h2_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-2 cohomology: ker d2* modulo im d1*.

    d2* is reduced from d2 over the induced-beta rows of a basis of the
    p-power vectors: n rows per basis vector instead of n^2, with the same
    row space and so the same rref.  It is looked up by that basis."""
    if not R.is_m0_family:
        raise ValueError("h2_star is computed on the family m_0^lambda(p) only")
    p = R.prime
    return _cohomology(
        _reduced(p, 2, R.power_rows),
        _d1_star_matrix(R).T,
        _candidates(p, 2, True),
        prime=p, lam=R.lam, degree=2, restricted=True,
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
