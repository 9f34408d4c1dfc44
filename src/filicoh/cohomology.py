"""Degree 1 and 2 cohomology of the family m_0^lambda(p), with labeled bases.

Only make_m0(p) and its restricted family members are accepted; anything
else raises ValueError.  The restricted groups sit inside the ordinary
ones: ker d1* and ker d2* are the parts of ker d1 and ker d2 that the
maps induced by the p-powers (omega for d1*, beta for d2*) send to zero.
So d1 and d2 are eliminated once per prime: their sparse rows go into one
sparse gf.SpanTracker, and nothing of the size of d2 is built densely.
The memo keeps the pivots, which give dim ker d, and which distinguished
cocycles d kills.  The induced rows depend on lambda only through the row
space of the p-power vectors, on the family 0 or the line of e_p, and
each such key applies them to a basis of ker d (the ordinary
representatives, with the d1 images in degree 2): the kernel loses their
rank there, and a candidate stays killed when they send it to zero.  That
is p-sized work per key; no row of d is reduced twice.

The groups pick those killed candidates by a deterministic greedy pass
that keeps one exactly when it grows the span past the image, so golden
tests can compare labels rather than raw coordinates.  All four groups
come from one memo, keyed (p, degree, restricted, power rows, W), W only
in H2+'s keys; a call copies its entry, and per lambda H1+ and H2+ only
build the key and copy the entry with their own lambda.  W is the row
space of omega on ker d1, and only H2+ reads it.  The image of d1* is the
rows (d1 f, omega_f); its span projects onto im d1 and meets the
Frobenius coordinates in W, and the pass reads nothing else, because the
Frobenius duals are tried first.  So the pass runs over a canonical image
instead: the d1 rows with zero Frobenius columns, over the W rows in the
Frobenius columns.  The power rows alone do not fix W.  For p >= 3, ker
d1 = span(e^1, e^2) and f(e_j^[p]) = lambda_j f(e_p) = 0 there, so W = 0
(the paper's H1 = H1+); at p = 2 the algebra is abelian, ker d1 is
everything and W is the line of lambda.  So W, like the power rows, is
read off lambda, and no elimination runs per lambda.  The closed-form
dimension counts live in expected_summary; compare never raises on a
mismatch, it reports one.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class _Reduction:
    """What the groups read of one reduction of d1 or d2: its pivot columns
    and which of the ordinary candidates it kills."""

    pivots: tuple[int, ...]
    killed: np.ndarray


@functools.lru_cache(maxsize=2)
def _reduced(p: int, degree: int) -> _Reduction:
    """Reduction of d1 (degree 1) or d2 of make_m0(p): its sparse rows fed
    to one gf.SpanTracker, whose pivots are those of the rref, and the
    candidates whose cochains.differential is zero.  The memo keeps both
    degrees of one prime, since grids and sweeps visit primes in turn.
    The kill mask is read-only because every caller shares it."""
    A = liealg.make_m0(p)
    forms = _candidates(p, degree, False)[0]
    killed = np.array([cochains.differential(A, c).is_zero() for c in forms], dtype=bool)
    killed.setflags(write=False)
    # a list, so the dict's row keys are freed before the elimination
    rows = list(cochains.differential_rows(A, degree).values())
    return _Reduction(gf.SpanTracker(p, rows).pivots, killed)


def _kernel(p: int, degree: int, powers: tuple):
    """(dimension, kill mask of the ordinary candidates) of the kernel of
    d1* (degree 1) or of d2* without its zero Frobenius columns (degree 2),
    for the p-power vectors spanning the rows of powers (_power_rows);
    powers == () is d1 or d2 alone.

    That kernel is the part of ker d that the induced rows send to zero.
    The ordinary representatives, with the d1 images in degree 2, span
    ker d (CohomologySummary holds their count to kernel_dim - image_dim),
    so it loses the rank of the induced rows on them, and a candidate is
    killed when d kills it and so do the induced rows.  Those rows are read
    only through the columns a vector touches; no row of d is reduced
    again."""
    entry = _reduced(p, degree)
    kernel_dim = math.comb(p, degree) - len(entry.pivots)
    if not powers:
        return kernel_dim, entry.killed
    columns: dict[int, list] = {}
    for r, row in enumerate(_induced_rows(p, degree, powers)):
        for c, x in row.items():
            columns.setdefault(c, []).append((r, x))

    def induced(coords):
        sums: dict[int, int] = {}
        for c, x in coords.items():
            for r, m in columns.get(c, ()):
                sums[r] = (sums.get(r, 0) + m * x) % p
        return {r: s for r, s in sums.items() if s}

    spanning = [c.coordinates() for c in _group(p, degree, False).representatives]
    if degree == 2:
        spanning += _d1_images(p)
    rank = gf.SpanTracker(p, map(induced, spanning)).rank
    zero = np.array([not induced(c) for c in _candidates(p, degree, False)[1]], dtype=bool)
    return kernel_dim - rank, entry.killed & zero


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


def _d1_images(p: int) -> list[dict[int, int]]:
    """d1 of each dual e^k of make_m0(p), as sparse coordinates over the pairs."""
    A = liealg.make_m0(p)
    return [cochains.differential(A, e).coordinates() for e in _candidates(p, 1, False)[0]]


@functools.lru_cache(maxsize=8)
def _group(p: int, degree: int, restricted: bool, powers: tuple = (), omega: tuple = ()):
    """H1 or H2 of make_m0(p) (restricted False), or H1+ or H2+ of every
    family member whose p-power vectors span the rows of powers and, for
    H2+, whose omega on ker d1 spans the rows of omega (_omega_rows; H1+
    keys omega = ()), with lam None.

    The kernel is _kernel's, modulo the span of the image rows: none in
    degree 1, the d1 images in degree 2.  H2+ counts the p zero Frobenius
    columns of d2* in its kernel, the Frobenius duals that lead its
    candidates are p more cocycles, and its image is the canonical one of
    the module docstring.  The killed candidates are tried in order and
    one is kept exactly when it grows the span past the image; on the
    family they always complete the quotient (CohomologySummary raises if
    they do not).  One prime has at most eight keys: the two ordinary
    groups, two for H1+ and, for H2+, four at p = 2, where W runs over 0
    and the three lines, or two from p = 3 on.  The memo keeps them all,
    since grids and sweeps visit primes in turn.  The public groups hand out
    copies (_copy), so no caller can change an entry."""
    kernel_dim, killed = _kernel(p, degree, powers)
    image = _d1_images(p) if degree == 2 else []
    frobenius = restricted and degree == 2
    if frobenius:
        npairs = math.comb(p, 2)
        image += [{npairs + k: x for k, x in enumerate(w) if x} for w in omega]
        kernel_dim += p
        killed = np.concatenate([np.ones(p, dtype=bool), killed])
    span = gf.SpanTracker(p, image)
    image_dim = span.rank
    forms, coords = _candidates(p, degree, frobenius)
    reps = [c for c, v, k in zip(forms, coords, killed) if k and span.add(v)]
    return CohomologySummary(
        p,
        None,  # lam: _copy sets each caller's
        degree=degree,
        restricted=restricted,
        dimension=kernel_dim - image_dim,
        kernel_dim=kernel_dim,
        image_dim=image_dim,
        representatives=reps,
    )


def _omega_rows(p: int, lam) -> tuple:
    """W: a basis of omega on ker d1 in rref form, read off lam, with
    ker d1 spanned by the killed degree-1 duals (H1 has no image).  On the
    family omega(e^k) is j -> lam_j [k = p], so W is the line of lam,
    scaled to a leading 1, when d1 kills e^p (only at p = 2, where the
    algebra is abelian) and lam != 0, and 0 otherwise."""
    if not (_kernel(p, 1, ())[1][-1] and any(lam)):
        return ()
    lead = gf.inv_mod(next(x for x in lam if x), p)
    return (tuple(lead * x % p for x in lam),)


def _power_rows(lam) -> tuple:
    """The key of a family member's p-powers: the e_k^[p] = lam_k e_p span
    the line of e_p, or nothing at lam = 0, the nonzero rref rows of its
    power matrix read off lam."""
    return ((0,) * (len(lam) - 1) + (1,),) if any(lam) else ()


def _copy(s: CohomologySummary, lam) -> CohomologySummary:
    """A memo entry with lam and a representative list of the caller's own."""
    return type(s)(**{**vars(s), "lam": lam, "representatives": list(s.representatives)})


def _ordinary(A: liealg.LieAlgebra, degree: int, name: str) -> CohomologySummary:
    if A != liealg.make_m0(A.prime):
        raise ValueError(f"{name} is computed on make_m0(p) only")
    return _copy(_group(A.prime, degree, False), None)


def _restricted_summary(R: restricted.Family, degree: int, name: str):
    if not isinstance(R, restricted.Family) or R.lam.ndim != 1:
        raise ValueError(f"{name} is computed on one member of the family m_0^lambda(p) only")
    p, lam = R.prime, tuple(R.lam.tolist())
    omega = _omega_rows(p, lam) if degree == 2 else ()
    return _copy(_group(p, degree, True, _power_rows(lam), omega), lam)


def h1(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-1 cohomology of make_m0(p): the whole kernel of d1,
    computed once per prime."""
    return _ordinary(A, 1, "h1")


def h1_star(R: restricted.Family) -> CohomologySummary:
    """Restricted degree-1 cohomology: the part of ker d1 that the induced
    omega rows send to zero.  d1 is reduced once per prime, and each
    p-power row space ranks its omega rows on a basis of ker d1; per
    lambda the memoised summary is copied with this lambda."""
    return _restricted_summary(R, 1, "h1_star")


def h2(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-2 cohomology of make_m0(p): ker d2 modulo im d1,
    computed once per prime."""
    return _ordinary(A, 2, "h2")


def h2_star(R: restricted.Family) -> CohomologySummary:
    """Restricted degree-2 cohomology: ker d2* modulo im d1*.

    ker d2* is the part of ker d2 that the induced-beta rows send to zero,
    plus the p zero Frobenius columns.  d2 is reduced once per prime, and
    each key (p-power row space, W) ranks the beta rows of a basis of the
    p-powers, n rows per basis vector, on a basis of ker d2; per lambda the
    memoised summary is copied with this lambda."""
    return _restricted_summary(R, 2, "h2_star")


def expected_summary(p: int, lam) -> ExpectedSummary:
    """Closed-form dimensions for the graded family at one (p, lambda)."""
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    lam = tuple(int(x) % p for x in lam)
    if len(lam) != p:
        raise ValueError("lambda must have one entry per basis vector")
    return ExpectedSummary(p, lam, *_expected_entries(p, any(lam)))


@functools.lru_cache(maxsize=None)
def _expected_entries(p: int, nonzero: bool) -> tuple[ExpectedEntry, ...]:
    """The closed-form H1, H1+, H2 and H2+ entries, which depend on lambda
    only through whether it is nonzero."""
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
    return h1e, h1se, h2e, h2se


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
