"""Graded restricted isomorphism of the p-power family.

A graded isomorphism is diagonal on the one-dimensional graded pieces and
is pinned by two nonzero scalars mu1, mu2; the remaining factors follow
from bracket preservation as mu_k = mu2 * mu1^(k-2).  Two power vectors
are isomorphic exactly when lam_k * mu_p = mu_k^p * lam'_k for all k and
some choice of (mu1, mu2), which a (p-1)^2 search decides outright.

The maps act on a power vector by scaling each entry, so its class is its
orbit under the (p-1)^2 factor vectors mu_k^p * mu_p^(-1).  Over GF(p),
mu^p = mu, so that factor is mu1^(k-1) for 2 <= k <= p, while mu2 scales
lam_1 alone, by any nonzero factor.  partition_classes therefore keys a
vector by (lam_1 != 0, the lexicographic minimum over s != 0 of
(s lam_2, s^2 lam_3, ..., s^(p-2) lam_(p-1)), lam_p): O(p^2) per vector
instead of the O(p^3) orbit.  The orbit minimum (`tests/helpers`) and
the pairwise search iso_bruteforce are its oracles.

The literature states an alternative closed condition set whose k = 1, 2
clauses look reparameterized; proposition_formula_check compares its
verdicts against the brute-force search and reports, never decides.
"""

from __future__ import annotations

import numpy as np

from . import gf

# the largest prime both iso modes and verify's diagonal-search checks serve,
# whatever the lambda list holds
SEARCH_LIMIT = 31


def scale_factors(p: int, mu1: int, mu2: int) -> tuple[int, ...]:
    """mu_k for k = 1..p: (mu1, mu2, mu2*mu1, mu2*mu1^2, ...)."""
    out = [mu1 % p, mu2 % p]
    for k in range(3, p + 1):
        out.append((mu2 * pow(mu1, k - 2, p)) % p)
    return tuple(out[:p])


def _check_args(p, lam, lam2):
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    lam = tuple(int(x) % p for x in lam)
    lam2 = tuple(int(x) % p for x in lam2)
    if len(lam) != p or len(lam2) != p:
        raise ValueError("power vectors must have one entry per basis vector")
    return lam, lam2


def diag_iso_check(p: int, lam, lam2, mu1: int, mu2: int) -> bool:
    """Whether the diagonal map with scalars (mu1, mu2) carries the second
    power vector onto the first: lam_k * mu_p = mu_k^p * lam'_k for all k."""
    lam, lam2 = _check_args(p, lam, lam2)
    mu1 %= p
    mu2 %= p
    if mu1 == 0 or mu2 == 0:
        raise ValueError("scale factors must be nonzero")
    return _carries(p, lam, lam2, mu1, mu2)


def _carries(p, lam, lam2, mu1, mu2) -> bool:
    """diag_iso_check on arguments it has already checked."""
    mus = scale_factors(p, mu1, mu2)
    mu_p = mus[p - 1]
    return all(
        (lam[k] * mu_p) % p == (pow(mus[k], p, p) * lam2[k]) % p for k in range(p)
    )


def iso_bruteforce(p: int, lam, lam2) -> tuple[int, int] | None:
    """First diagonal witness (mu1, mu2) in lexicographic order, or None
    after exhausting all (p-1)^2 candidates."""
    if p > SEARCH_LIMIT:
        raise ValueError(f"diagonal search is limited to p <= {SEARCH_LIMIT}")
    lam, lam2 = _check_args(p, lam, lam2)
    for mu1 in range(1, p):
        for mu2 in range(1, p):
            if _carries(p, lam, lam2, mu1, mu2):
                return mu1, mu2
    return None


def proof_transform(p: int, lam2, mu1: int, mu2: int) -> tuple[int, ...]:
    """The power vector isomorphic to lam' under the (mu1, mu2) map:
    lam_k = mu_k^p * mu_p^{-1} * lam'_k."""
    lam2 = tuple(int(x) % p for x in lam2)
    mus = scale_factors(p, mu1, mu2)
    inv_mu_p = gf.inv_mod(mus[p - 1], p)
    return tuple((pow(mus[k], p, p) * inv_mu_p * lam2[k]) % p for k in range(p))


def partition_classes(p: int, lam_list) -> list[list[tuple[int, ...]]]:
    """Group power vectors into isomorphism classes by a canonical key:
    whether lam_1 is nonzero, the least of the p - 1 scalings of
    lam_2..lam_(p-1) by (s, s^2, ..., s^(p-2)), and lam_p.

    Classes come in order of first appearance and keep their members in
    input order, the partition a pairwise search against each class's first
    member would give.
    """
    if p > SEARCH_LIMIT:
        raise ValueError(f"diagonal search is limited to p <= {SEARCH_LIMIT}")
    if not gf.is_prime(p):
        raise ValueError(f"{p} is not prime")
    lams = [tuple(int(x) % p for x in lam) for lam in lam_list]
    if any(len(lam) != p for lam in lams):
        raise ValueError("power vectors must have one entry per basis vector")
    # row s - 1 holds s^(k-1) for k = 2..p-1
    scales = np.array([[pow(s, k, p) for k in range(1, p - 1)] for s in range(1, p)])
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for lam in lams:
        middle = min(map(tuple, (scales * lam[1:-1] % p).tolist()))
        classes.setdefault((lam[0] != 0, middle, lam[-1]), []).append(lam)
    return list(classes.values())


def _statement_conditions(p, lam, lam2, mu1, mu2) -> bool:
    """The closed condition set as printed: k = 1, 2 use mu1, mu2 directly,
    k >= 3 uses mu2^(p-1) * mu1^(p(k-3)+2)."""
    if (lam[0] - mu1 * lam2[0]) % p:
        return False
    if (lam[1] - mu2 * lam2[1]) % p:
        return False
    for k in range(3, p + 1):
        factor = (pow(mu2, p - 1, p) * pow(mu1, p * (k - 3) + 2, p)) % p
        if (lam[k - 1] - factor * lam2[k - 1]) % p:
            return False
    return True


def proposition_formula_check(p: int, lam, lam2) -> dict:
    """Compare the printed condition set against the brute-force verdict.

    Informational: the report records both verdicts, their witnesses, and
    whether they agree; it never overrides the search.
    """
    lam, lam2 = _check_args(p, lam, lam2)
    brute = iso_bruteforce(p, lam, lam2)  # refuses p > SEARCH_LIMIT first
    statement_witness = None
    for mu1 in range(1, p):
        for mu2 in range(1, p):
            if _statement_conditions(p, lam, lam2, mu1, mu2):
                statement_witness = (mu1, mu2)
                break
        if statement_witness:
            break
    return {
        "prime": p,
        "lambda": list(lam),
        "lambda_prime": list(lam2),
        "statement_isomorphic": statement_witness is not None,
        "statement_witness": statement_witness,
        "bruteforce_isomorphic": brute is not None,
        "bruteforce_witness": brute,
        "agree": (statement_witness is not None) == (brute is not None),
    }
