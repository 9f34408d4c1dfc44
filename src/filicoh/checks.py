"""The checks `filicoh verify` runs, shared with the acceptance tests.

Each check appends a record {name, ok, detail, info}; an info record never
fails the run.  The checks draw from one numpy generator in a fixed order,
so a seeded run replays byte for byte.  What does not depend on lambda is
evaluated once per prime: d2 of each dual pair, the d1 images of the
degree-1 duals, and d2 of each of those images.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cochains, extensions, gf, isoclass, liealg, restricted
from . import restricted_cochains as rcoch

# expensive per-lambda checks run on at most this many vectors
VERIFY_SAMPLE_CAP = 20


def record(records, name, ok, detail="", info=False):
    records.append({"name": name, "ok": bool(ok), "detail": detail, "info": info})


@dataclass(frozen=True)
class ComplexIdentity:
    """d1 e^k for k = 1..p, and whether d2 kills every one of them."""

    images: tuple[cochains.Cochain, ...]
    ok: bool

    def restricted_holds(self, R) -> bool:
        """d2+(d1+ e^k) = (d2(d1 e^k), induced beta of d1 e^k) = (0, 0) for
        every k.  self.ok decided the lambda-independent form part."""
        return self.ok and not any(rcoch.ind2_matrix(R, image).any() for image in self.images)


def complex_identity(A: liealg.LieAlgebra) -> ComplexIdentity:
    """d2(d1 e^k) = 0 for every degree-1 dual, one d2 per image."""
    p = A.prime
    images = tuple(
        cochains.d1(A, cochains.dual_cochain(p, A.dim, (k,))) for k in range(1, A.dim + 1)
    )
    return ComplexIdentity(images, all(cochains.d2(A, image).is_zero() for image in images))


def transform_confirmed(p: int, lam, mu1: int, mu2: int) -> bool:
    """The diagonal search finds lam isomorphic to its (mu1, mu2) transform."""
    other = isoclass.proof_transform(p, lam, mu1, mu2)
    return isoclass.iso_bruteforce(p, other, lam) is not None


def prime_checks(p, records, rng) -> ComplexIdentity:
    """Checks on make_m0(p) alone; returns the complex identity for reuse."""
    A = liealg.make_m0(p)
    ok, _ = liealg.jacobi_check(A)
    record(records, "jacobi identity", ok)

    n = 20
    ok = True
    for _ in range(n):
        g = gf.normalize(rng.integers(0, p, size=p), p)
        h = gf.normalize(rng.integers(0, p, size=p), p)
        if (A.bracket(g, h) != liealg.bracket_closed_m0(p, g, h)).any():
            ok = False
    record(records, "bracket closed form", ok, f"{n} random pairs")

    identity = complex_identity(A)
    ok = all(
        image == cochains.d1_closed_m0(p, k)
        for k, image in enumerate(identity.images, start=1)
    )
    record(records, "degree-1 differential closed form", ok, "all duals")

    pairs = cochains.index_tuples(p, 2)
    d2_images = [cochains.d2(A, cochains.dual_cochain(p, p, pair)) for pair in pairs]
    ok = all(
        image == cochains.d2_closed_m0_corrected(p, *pair)
        for pair, image in zip(pairs, d2_images)
    )
    record(records, "degree-2 differential closed form (corrected)", ok, "all dual pairs")

    deviant = [
        pair
        for pair, image in zip(pairs, d2_images)
        if image != cochains.d2_closed_m0_printed(p, *pair)
    ]
    detail = (
        f"printed variant deviates from the generic differential on "
        f"{len(deviant)} of {len(pairs)} dual pairs"
    )
    if deviant:
        detail += f", first at e^{{{deviant[0][0]},{deviant[0][1]}}}"
    record(records, "degree-2 closed form as printed", True, detail, info=True)

    record(records, "complex identity d2(d1(psi)) = 0", identity.ok, "all duals")
    return identity


def lambda_checks(p, lams, identity: ComplexIdentity, records, rng):
    """The p-power recursion and the restricted complex identity on every lambda."""
    bad_power = bad_complex = 0
    for lam in lams:
        R = restricted.make_m0_lambda(p, lam)
        for _ in range(3):
            g = gf.normalize(rng.integers(0, p, size=p), p)
            if (restricted.p_power_jacobson(R, g) != restricted.p_power_closed(R, g)).any():
                bad_power += 1
        if not identity.restricted_holds(R):
            bad_complex += 1
    cover = f"{len(lams)} lambda vector(s)"
    record(records, "p-power recursion vs closed form", bad_power == 0, f"{cover}, 3 samples each")
    record(records, "restricted complex identity", bad_complex == 0, f"{cover}, all duals")


def sampled_checks(p, lams, records, rng):
    """Sum rules, extensions and the diagonal search on a capped sample."""
    sample = lams[:VERIFY_SAMPLE_CAP]
    cover = f"{len(sample)} of {len(lams)} lambda vector(s)"
    bad_star = bad_dstar = bad_ind1 = bad_ext = bad_prop = 0
    for lam in sample:
        R = restricted.make_m0_lambda(p, lam)
        for k in range(1, p + 1):
            psi = cochains.dual_cochain(p, p, (k,))
            c2 = rcoch.d1_star(R, psi)
            g = gf.normalize(rng.integers(0, p, size=p), p)
            h = gf.normalize(rng.integers(0, p, size=p), p)
            if not rcoch.star_property_holds(R.algebra, c2, g, h):
                bad_star += 1
            if rcoch.star_eval(R.algebra, c2, g) != psi.evaluate(restricted.p_power(R, g)):
                bad_ind1 += 1
        phi = cochains.random_cocycle(rng, p)
        omega = tuple(int(x) for x in rng.integers(0, p, size=p))
        c2 = rcoch.RestrictedTwoCochain(phi, omega)
        g = gf.normalize(rng.integers(0, p, size=p), p)
        h = gf.normalize(rng.integers(0, p, size=p), p)
        if not rcoch.star_property_holds(R.algebra, c2, g, h):
            bad_star += 1
        rc3 = rcoch.d2_star(R, c2)
        for _ in range(3):
            g = gf.normalize(rng.integers(0, p, size=p), p)
            h1 = gf.normalize(rng.integers(0, p, size=p), p)
            h2 = gf.normalize(rng.integers(0, p, size=p), p)
            if not rcoch.doublestar_property_holds(R.algebra, rc3, g, h1, h2):
                bad_dstar += 1
        for k in (1, 2, p):
            dual = rcoch.frobenius_dual_cochain(p, p, k)
            try:
                res = extensions.extend_restricted(R, dual)
            except (ValueError, RuntimeError):
                bad_ext += 1
                continue
            # the form part of (0, ebar^k) is a coboundary, so E_k splits
            # when forgotten down to an ordinary extension
            if not extensions.is_trivial_ordinary_extension(R.algebra, dual.phi):
                bad_ext += 1
            if res.algebra.labels[-1] != extensions.CENTER_LABEL:
                bad_ext += 1
        if p <= isoclass.SEARCH_LIMIT:
            mu1 = int(rng.integers(1, p)) if p > 2 else 1
            mu2 = int(rng.integers(1, p)) if p > 2 else 1
            if not transform_confirmed(p, lam, mu1, mu2):
                bad_prop += 1
    record(records, "omega sum rule on induced and cocycle pairs", bad_star == 0, cover)
    record(records, "induced omega matches psi of the p-power", bad_ind1 == 0, cover)
    record(records, "beta sum rule on induced triples", bad_dstar == 0, f"{cover}, 3 triples each")
    record(records, "central extensions verify and stay trivial", bad_ext == 0, cover)
    record(records, "diagonal search confirms transformed vectors", bad_prop == 0, cover)


def proposition_report(p, lams, records, rng):
    """Informational: the printed condition set against the diagonal search."""
    if p > isoclass.SEARCH_LIMIT:
        return
    sample = lams[:VERIFY_SAMPLE_CAP]
    agree = 0
    first_disagreement = None
    for lam in sample:
        lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
        if isoclass.proposition_formula_check(p, lam, lam2)["agree"]:
            agree += 1
        elif first_disagreement is None:
            first_disagreement = (lam, lam2)
    detail = f"condition-set comparison: {agree}/{len(sample)} verdicts agree"
    if first_disagreement:
        a, b = first_disagreement
        detail += (
            f", first disagreement at lambda={restricted.lam_str(a)} vs {restricted.lam_str(b)}"
        )
    record(records, "closed condition set vs diagonal search", True, detail, info=True)
