"""Degree 1 and 2 cohomology of the family m_0^lambda(p), with labeled bases.

Only make_m0(p) and its restricted family members are accepted; anything
else raises ValueError.  The restricted groups sit inside the ordinary
ones: ker d1* and ker d2* are the parts of ker d1 and ker d2 that the
maps induced by the p-powers (omega for d1*, beta for d2*) send to zero.
They depend on lambda only through whether it is zero: a nonzero
lambda's p-powers e_k^[p] = lam_k e_p span the line of e_p, so the
induced maps send a cochain to zero exactly when it has no coefficient on
the duals that hold p, e^p in degree 1 and the e^{i,p} in degree 2.  So
d1 and d2 are eliminated once per prime: their sparse rows go into one
sparse gf.SpanTracker, and then the unit rows of those duals go into the
same tracker.  Nothing of the size of d2 is built densely.  The memo
keeps the pivots of d alone, which give dim ker d, the rank with the unit
rows, which gives the restricted kernel for a nonzero lambda, and which
distinguished cocycles d kills; a nonzero lambda keeps those of them with
no coefficient on the duals that hold p.

The groups pick those killed candidates by a deterministic greedy pass
that keeps one exactly when it grows the span past the image, so golden
tests can compare labels rather than raw coordinates.  All four groups
come from one memo, keyed (p, degree, restricted, lambda != 0, W), W only
in H2+'s keys; a call copies its entry, and per lambda H1+ and H2+ only
build the key and copy the entry with their own lambda.  W is the row
space of omega on ker d1, and only H2+ reads it.  The image of d1* is the
rows (d1 f, omega_f); its span projects onto im d1 and meets the
Frobenius coordinates in W, and the pass reads nothing else, because the
Frobenius duals are tried first.  So the pass runs over a canonical image
instead: the d1 rows with zero Frobenius columns, over the W rows in the
Frobenius columns.  Whether lambda is zero does not fix W.  For p >= 3,
ker d1 = span(e^1, e^2) and f(e_j^[p]) = lambda_j f(e_p) = 0 there, so
W = 0 (the paper's H1 = H1+); at p = 2 the algebra is abelian, ker d1 is
everything and W is the line of lambda.  So W, like the rest of the key,
is read off lambda, and no elimination runs per lambda.  The closed forms
are one table keyed (p, lambda != 0), read through closed_form; compare
never raises on a mismatch, it returns False.
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
class _Reduction:
    """What the groups read of one reduction of d1 or d2: its pivot
    columns, its rank with the unit rows of the duals that hold p added,
    and which of the ordinary candidates it kills."""

    pivots: tuple[int, ...]
    held_rank: int
    killed: np.ndarray


@functools.lru_cache(maxsize=2)
def _reduced(p: int, degree: int) -> _Reduction:
    """Reduction of d1 (degree 1) or d2 of make_m0(p): its sparse rows fed
    to one gf.SpanTracker, whose pivots are those of the rref, then the
    unit rows of the duals that hold p (_held) fed to the same tracker;
    and the candidates whose cochains.differential is zero.  The memo
    keeps both degrees of one prime, since grids and sweeps visit primes in
    turn.  The kill mask is read-only because every caller shares it."""
    A = liealg.make_m0(p)
    forms = _candidates(p, degree, False)[0]
    killed = np.array([cochains.differential(A, c).is_zero() for c in forms], dtype=bool)
    killed.setflags(write=False)
    # a list, so the dict's row keys are freed before the elimination
    rows = list(cochains.differential_rows(A, degree).values())
    span = gf.SpanTracker(p, rows)
    pivots = span.pivots
    del rows  # kept alive under the unit rows, they raised the peak RSS (31 MB at p = 1009)
    for c in _held(p, degree):
        span.add({c: 1})
    return _Reduction(pivots, span.rank, killed)


def _held(p: int, degree: int) -> list[int]:
    """The positions of the duals that hold p: e^p in degree 1, e^{i,p}
    for i < p in degree 2."""
    positions = cochains._positions(p, degree)
    return [positions[(p,)]] if degree == 1 else [positions[(i, p)] for i in range(1, p)]


def _kernel(p: int, degree: int, nonzero: bool):
    """(dimension, kill mask of the ordinary candidates) of the kernel of
    d1* (degree 1) or of d2* without its zero Frobenius columns (degree 2),
    for lambda nonzero or not; at lambda = 0 that is d1 or d2 alone.

    A nonzero lambda's p-powers e_k^[p] = lam_k e_p span the line of e_p,
    so the induced rows (omega for d1*, beta for d2*) send a cochain to
    zero exactly when it has no coefficient on the duals that hold p.  The
    kernel is then that of d with their unit rows added, and a candidate
    stays killed when d kills it and it has no coefficient on them."""
    entry = _reduced(p, degree)
    if not nonzero:
        return math.comb(p, degree) - len(entry.pivots), entry.killed
    held = set(_held(p, degree))
    free = np.array([held.isdisjoint(c) for c in _candidates(p, degree, False)[1]], dtype=bool)
    return math.comb(p, degree) - entry.held_rank, entry.killed & free


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
def _group(p: int, degree: int, restricted: bool, nonzero: bool = False, omega: tuple = ()):
    """H1 or H2 of make_m0(p) (restricted False), or H1+ or H2+ of every
    family member with lambda nonzero or not and, for H2+, whose omega on
    ker d1 spans the rows of omega (_omega_rows; H1+ keys omega = ()), with
    lam None.

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
    kernel_dim, killed = _kernel(p, degree, nonzero)
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
    if not (_kernel(p, 1, False)[1][-1] and any(lam)):
        return ()
    lead = gf.inv_mod(next(x for x in lam if x), p)
    return (tuple(lead * x % p for x in lam),)


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
    return _copy(_group(p, degree, True, any(lam), omega), lam)


def h1(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-1 cohomology of make_m0(p): the whole kernel of d1,
    computed once per prime."""
    return _ordinary(A, 1, "h1")


def h1_star(R: restricted.Family) -> CohomologySummary:
    """Restricted degree-1 cohomology: the part of ker d1 that the induced
    omega rows send to zero, which for a nonzero lambda is the part with
    no coefficient on e^p.  Both come from the one reduction of d1 per
    prime; per lambda the memoised summary is copied with this lambda."""
    return _restricted_summary(R, 1, "h1_star")


def h2(A: liealg.LieAlgebra) -> CohomologySummary:
    """Ordinary degree-2 cohomology of make_m0(p): ker d2 modulo im d1,
    computed once per prime."""
    return _ordinary(A, 2, "h2")


def h2_star(R: restricted.Family) -> CohomologySummary:
    """Restricted degree-2 cohomology: ker d2* modulo im d1*.

    ker d2* is the part of ker d2 that the induced-beta rows send to zero,
    which for a nonzero lambda is the part with no coefficient on any
    e^{i,p}, plus the p zero Frobenius columns.  Both come from the one
    reduction of d2 per prime; per lambda the memoised summary for (lambda
    nonzero or not, W) is copied with this lambda."""
    return _restricted_summary(R, 2, "h2_star")


@functools.lru_cache(maxsize=None)
def _closed_forms(p: int, nonzero: bool) -> dict:
    """The paper's (dimension, kernel_dim, image_dim) of H1, H1+, H2 and
    H2+, keyed (degree, restricted); they depend on lambda only through
    whether it is nonzero."""
    if p == 2:
        return {
            (1, False): (2, 2, 0),
            (1, True): (1, 1, 0) if nonzero else (2, 2, 0),
            (2, False): (1, 1, 0),
            (2, True): (1, 2, 1) if nonzero else (3, 3, 0),
        }
    if nonzero:
        h2_star = ((3 * p - 3) // 2, (5 * p - 7) // 2, p - 2)
    else:
        h2_star = ((3 * p + 1) // 2, (5 * p - 3) // 2, p - 2)
    return {
        (1, False): (2, 2, 0),
        (1, True): (2, 2, 0),
        (2, False): ((p + 1) // 2, (3 * p - 3) // 2, p - 2),
        (2, True): h2_star,
    }


def closed_form(p: int, lam, degree: int, restricted: bool) -> tuple[int, int, int]:
    """The closed-form (dimension, kernel_dim, image_dim) of one group of
    the family member (p, lambda), lambda read mod p."""
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(lam) != p:
        raise ValueError("lambda must have one entry per basis vector")
    return _closed_forms(p, any(int(x) % p for x in lam))[degree, restricted]


def compare(computed: CohomologySummary, p: int, lam) -> bool:
    """Whether a computed summary is the closed form's at (p, lambda): the
    same prime, lambda mod p (when the summary has one), dimension, kernel
    and image dimensions, and one representative per dimension.  A
    mismatch, of the prime or lambda too, is False, never an error."""
    if computed.prime != p or len(lam) != p:
        return False
    if computed.lam is not None and any((int(x) - y) % p for x, y in zip(lam, computed.lam)):
        return False
    want = closed_form(p, lam, computed.degree, computed.restricted)
    got = (computed.dimension, computed.kernel_dim, computed.image_dim)
    return got == want and len(computed.representatives) == want[0]


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
