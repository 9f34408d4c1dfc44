"""Degree 1 and 2 cohomology of the family m_0^lambda(p), with labeled bases.

Only make_m0(p) and its restricted family members are accepted; anything
else raises ValueError.  d1* and d2* are reduced once per row space of the
p-power vectors and memoised: a family member changes only the induced
rows (omega for d1*, beta for d2*), and those depend on lambda only
through that row space, the line of e_p or 0.  So each prime needs at most
two reductions per degree, and lambda = 0 shares its reduction with the
ordinary H1 and H2.  Both degrees are reduced on one path: the sparse
rows of d1 or d2 and the sparse induced rows go into one sparse
gf.SpanTracker, and nothing of the size of d2 is built densely.  An entry
keeps only what the groups read: the pivots, which give the kernel
dimension, and which distinguished cocycles the differential kills.

The groups pick those killed candidates by a deterministic greedy pass
that keeps one exactly when it grows the span past the image, so golden
tests can compare labels rather than raw coordinates.  H1+ and H2+ run
that pass once per key (p, degree, power rows, W) and memoise what it
selects; per lambda they only build the key and copy the entry with their
own lambda.  W is the row space of omega on ker d1.  The image of d1* is
the rows (d1 f, omega_f); its span projects onto im d1 and meets the
Frobenius coordinates in W, and the pass reads nothing else, because the
Frobenius duals are tried first.  So the pass runs over a canonical image
instead: the d1 rows with zero Frobenius columns, over the W rows in the
Frobenius columns.  The power rows alone do not fix W.  For p >= 3, ker
d1 = span(e^1, e^2) and f(e_j^[p]) = lambda_j f(e_p) = 0 there, so W = 0
(the paper's H1 = H1+); at p = 2 the algebra is abelian, ker d1 is
everything and W is the line of lambda.  The closed-form dimension counts
live in expected_summary; compare never raises on a mismatch, it reports
one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cochains, gf, liealg, restricted
from . import restricted_cochains as rcoch


@dataclass
class CohomologySummary:
    """One cohomology group: dimensions and labeled representatives, the
    distinguished cocycles that complete the image to the kernel."""

    prime: int
    lam: tuple[int, ...] | None
    degree: int
    restricted: bool
    dimension: int
    kernel_dim: int
    image_dim: int
    representatives: list

    def __post_init__(self):
        if self.dimension != self.kernel_dim - self.image_dim:
            raise ValueError("dimension must equal kernel_dim - image_dim")
        if len(self.representatives) != self.dimension:
            raise ValueError("representative count must equal dimension")


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


def _cohomology(kernel_dim, killed, image_rows, candidates, *, prime, lam, degree, restricted):
    """A kernel of dimension kernel_dim modulo the span of image_rows, with
    labeled representatives.

    image_rows are sparse coordinate rows; candidates are (cochains, their
    sparse coordinates), tried in order.  Only those marked in killed
    compete, and one is kept exactly when it grows the span past the
    image.  On the family the distinguished cocycles always complete the
    quotient (CohomologySummary raises if they do not).
    """
    span = gf.SpanTracker(prime, image_rows)
    image_dim = span.rank
    forms, coords = candidates
    reps = [c for c, v, k in zip(forms, coords, killed) if k and span.add(v)]
    return CohomologySummary(
        prime=prime,
        lam=lam,
        degree=degree,
        restricted=restricted,
        dimension=kernel_dim - image_dim,
        kernel_dim=kernel_dim,
        image_dim=image_dim,
        representatives=reps,
    )


@dataclass(frozen=True)
class _Reduction:
    """What the groups read of one reduction of d1* or d2*: the pivot
    columns of its rref and which of the ordinary candidates it kills."""

    pivots: tuple[int, ...]
    killed: np.ndarray


@functools.lru_cache(maxsize=4)
def _reduced(p: int, degree: int, powers: tuple) -> _Reduction:
    """Reduction of d1* (degree 1) or d2* without its zero Frobenius
    columns (degree 2) for make_m0(p) whose p-power vectors span the rows
    of powers (RestrictedAlgebra.power_rows): the sparse rows of d1 over
    those rows, or of d2 over their induced-beta rows, fed to one
    gf.SpanTracker.  powers == () is d1 or d2 alone.

    The tracker's pivots are those of the rref of the stacked rows.  A
    candidate is killed when its differential is zero and so is its
    product with the induced rows, read only through the columns its
    coordinates touch.  On the family the powers span 0 or the line of
    e_p: two entries per (p, degree), and the memo keeps the four of one
    prime, since grids and sweeps visit primes in turn.  The kill mask is
    read-only because every caller shares it."""
    A = liealg.make_m0(p)
    induced = _induced_rows(p, degree, powers)
    columns: dict[int, list] = {}
    for r, row in enumerate(induced):
        for c, x in row.items():
            columns.setdefault(c, []).append((r, x))

    def kills(form, coords):
        sums: dict[int, int] = {}
        for c, x in coords.items():
            for r, m in columns.get(c, ()):
                sums[r] = sums.get(r, 0) + m * x
        return not any(s % p for s in sums.values()) and cochains.differential(A, form).is_zero()

    killed = np.array([kills(*c) for c in zip(*_candidates(p, degree, False))], dtype=bool)
    killed.setflags(write=False)
    rows = list(cochains.differential_rows(A, degree).values()) + induced
    return _Reduction(gf.SpanTracker(p, rows).pivots, killed)


def _kernel(p: int, degree: int, powers: tuple):
    """(kernel dimension, kill mask) of the reduction _reduced(p, degree,
    powers): the columns of d1 or d2 less its rank."""
    entry = _reduced(p, degree, powers)
    return math.comb(p, degree) - len(entry.pivots), entry.killed


def _induced_rows(p: int, degree: int, powers) -> list[dict[int, int]]:
    """The induced rows of d1* (degree 1) or d2* for the p-power vectors
    w_j in powers, as sparse rows over the columns of d1 or d2.  Degree 1:
    row j is omega of each dual e^k, the value w_j[k].  Degree 2: row
    (i, j), in the order of ind2_matrix's entries, is e^{a,b}(e_i ^ w_j),
    nonzero only at the pairs (i, b) with b in the support of w_j."""
    if degree == 1:
        return [{k: int(x) % p for k, x in enumerate(w) if x % p} for w in powers]
    return [
        cochains.Cochain(p, p, 2, {(i, b): x for b, x in enumerate(w, start=1) if x}).coordinates()
        for i in range(1, p + 1)
        for w in powers
    ]


@functools.lru_cache(maxsize=4)
def _candidates(p: int, degree: int, restricted: bool):
    """Distinguished cocycles with their sparse coordinates, built once per
    prime.  Degree 1: the duals e^k.  Degree 2: the top corner pair, then
    the alternating weight forms in increasing weight; for H2+ these
    follow the Frobenius duals, with zero omega."""
    if degree == 1:
        forms = [cochains.dual_cochain(p, p, (k,)) for k in range(1, p + 1)]
    else:
        forms = [cochains.dual_cochain(p, p, (1, p))]
        forms += [cochains.phi_k(p, k) for k in cochains.phi_weights(p)]
        if restricted:
            forms = [rcoch.frobenius_dual_cochain(p, p, k) for k in range(1, p + 1)] + [
                rcoch.RestrictedTwoCochain(phi, (0,) * p) for phi in forms
            ]
    return tuple(forms), tuple(c.coordinates() for c in forms)


def h1(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-1 cohomology of make_m0(p): the whole kernel of d1."""
    if A != liealg.make_m0(A.prime):
        raise ValueError("h1 is computed on make_m0(p) only")
    return _cohomology(
        *_kernel(A.prime, 1, ()), (), _candidates(A.prime, 1, False),
        prime=A.prime, lam=None, degree=1, restricted=False,
    )


@functools.lru_cache(maxsize=8)
def _restricted_group(p: int, degree: int, powers: tuple, omega: tuple) -> CohomologySummary:
    """H1+ (degree 1) or H2+ of every family member whose p-power vectors
    span the rows of powers and whose omega on ker d1 spans the rows of
    omega (_omega_rows), with lam None.

    H1+ has no image.  H2+ counts the p zero Frobenius columns of d2* in
    its kernel, and the Frobenius duals, which lead its candidates, are p
    more cocycles; its image is the canonical one of the module docstring.
    One prime has at most eight keys (four per degree, at p = 2, where W
    runs over 0 and the three lines; two per degree from p = 3 on), and
    the memo keeps them all, since grids and sweeps visit primes in turn."""
    kernel_dim, killed = _kernel(p, degree, powers)
    if degree == 1:
        return _cohomology(
            kernel_dim, killed, (), _candidates(p, 1, False),
            prime=p, lam=None, degree=1, restricted=True,
        )
    npairs = math.comb(p, 2)
    image = _d1_images(p)
    image += [{npairs + k: x for k, x in enumerate(w) if x} for w in omega]
    return _cohomology(
        kernel_dim + p,
        np.concatenate([np.ones(p, dtype=bool), killed]),
        image,
        _candidates(p, 2, True),
        prime=p, lam=None, degree=2, restricted=True,
    )


def _d1_images(p: int) -> list[dict[int, int]]:
    """d1 of each dual e^k of make_m0(p), as sparse coordinates over the pairs."""
    A = liealg.make_m0(p)
    return [cochains.differential(A, e).coordinates() for e in _candidates(p, 1, False)[0]]


def _omega_rows(R: restricted.RestrictedAlgebra) -> tuple:
    """W: a basis of omega on ker d1, the nonzero rref rows of
    K @ power_matrix^T as int tuples, with K the killed degree-1 duals (on
    the family they span ker d1, since H1 has no image).  Row e^k of that
    product is omega of e^k, j -> e^k(e_j^[p]), column k of power_matrix."""
    p = R.prime
    r, pivots = gf.rref(R.power_matrix[:, _kernel(p, 1, ())[1]].T, p)
    return tuple(map(tuple, r[: len(pivots)].tolist()))


def _restricted_summary(R: restricted.RestrictedAlgebra, degree: int, name: str):
    if not R.is_m0_family:
        raise ValueError(f"{name} is computed on the family m_0^lambda(p) only")
    s = _restricted_group(R.prime, degree, R.power_rows, _omega_rows(R))
    return dataclasses.replace(s, lam=R.lam, representatives=list(s.representatives))


def h1_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-1 cohomology: the kernel of d1 over the induced
    omega rows, looked up by the row space of the p-powers and W
    (_restricted_group)."""
    return _restricted_summary(R, 1, "h1_star")


def h2(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-2 cohomology of make_m0(p): ker d2 modulo im d1."""
    if A != liealg.make_m0(A.prime):
        raise ValueError("h2 is computed on make_m0(p) only")
    p = A.prime
    return _cohomology(
        *_kernel(p, 2, ()), _d1_images(p), _candidates(p, 2, False),
        prime=p, lam=None, degree=2, restricted=False,
    )


def h2_star(R: restricted.RestrictedAlgebra) -> CohomologySummary:
    """Restricted degree-2 cohomology: ker d2* modulo im d1*.

    d2* is reduced from d2 over the induced-beta rows of a basis of the
    p-power vectors: n rows per basis vector instead of n^2, with the same
    row space and so the same rref.  It is looked up by that basis, and
    the selection by that basis and W (_restricted_group)."""
    return _restricted_summary(R, 2, "h2_star")


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
