"""The checks `filicoh verify` runs, shared with the acceptance tests.

Each check appends a record {name, ok, detail, info}; an info record never
fails the run.  The checks draw from one numpy generator in a fixed order,
so a seeded run replays byte for byte.  What does not depend on lambda is
evaluated once per prime: d2 of each dual pair, the d1 images of the
degree-1 duals, and d2 of each of those images.  The sampled oracles get
each lambda's samples, drawn in that order, as one stack of rows, and a
failure is still counted per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cochains, extensions, gf, isoclass, liealg, restricted
from . import restricted_cochains as rcoch

# expensive per-lambda checks run on at most this many vectors
VERIFY_SAMPLE_CAP = 20


def record(records, name, ok, detail="", info=False):
    records.append({"name": name, "ok": bool(ok), "detail": detail, "info": info})


@dataclass(frozen=True)
class ComplexIdentity:
    """d1 e^k for k = 1..p, their form matrices, and whether d2 kills every
    one of them."""

    images: tuple[cochains.Cochain, ...]
    forms: np.ndarray
    ok: bool

    def restricted_holds(self, R) -> bool:
        """d2+(d1+ e^k) = (d2(d1 e^k), induced beta of d1 e^k) = (0, 0) for
        every k.  self.ok decided the lambda-independent form part."""
        return self.ok and not rcoch.ind2_matrix(R, self.forms).any()


def complex_identity(A: liealg.LieAlgebra) -> ComplexIdentity:
    """d2(d1 e^k) = 0 for every degree-1 dual, one d2 per image."""
    p = A.prime
    images = tuple(
        cochains.d1(A, cochains.dual_cochain(p, A.dim, (k,))) for k in range(1, A.dim + 1)
    )
    ok = all(cochains.d2(A, image).is_zero() for image in images)
    return ComplexIdentity(images, rcoch.form_matrices(images), ok)


def transform_confirmed(p: int, lam, mu1: int, mu2: int) -> bool:
    """The diagonal search finds lam isomorphic to its (mu1, mu2) transform."""
    other = isoclass.proof_transform(p, lam, mu1, mu2)
    return isoclass.iso_bruteforce(p, other, lam) is not None


def draw(rng, p, count):
    """count random vectors, one rng call each as the checks have always
    drawn them, stacked as rows."""
    return np.stack([gf.normalize(rng.integers(0, p, size=p), p) for _ in range(count)])


def prime_checks(p, records, rng) -> ComplexIdentity:
    """Checks on make_m0(p) alone; returns the complex identity for reuse."""
    A = liealg.make_m0(p)
    ok, _ = liealg.jacobi_check(A)
    record(records, "jacobi identity", ok)

    n = 20
    gh = draw(rng, p, 2 * n)
    closed = [liealg.bracket_closed_m0(p, g, h) for g, h in zip(gh[0::2], gh[1::2])]
    ok = not (A.bracket(gh[0::2], gh[1::2]) != closed).any()
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
        g = draw(rng, p, 3)
        jacobson = restricted.p_power_jacobson(R, g)
        bad_power += int((jacobson != restricted.p_power_closed(R, g)).any(axis=1).sum())
        if not identity.restricted_holds(R):
            bad_complex += 1
    cover = f"{len(lams)} lambda vector(s)"
    record(records, "p-power recursion vs closed form", bad_power == 0, f"{cover}, 3 samples each")
    record(records, "restricted complex identity", bad_complex == 0, f"{cover}, all duals")


def sampled_checks(p, lams, identity: ComplexIdentity, records, rng):
    """Sum rules, extensions and the diagonal search on a capped sample."""
    sample = lams[:VERIFY_SAMPLE_CAP]
    cover = f"{len(sample)} of {len(lams)} lambda vector(s)"
    bad_star = bad_dstar = bad_ind1 = bad_ext = bad_prop = 0
    psis = [cochains.dual_cochain(p, p, (k,)) for k in range(1, p + 1)]
    for lam in sample:
        R = restricted.make_m0_lambda(p, lam)
        # d1+(e^k) = (d1 e^k, omega induced by the p-powers), d1 e^k once per prime
        pairs = [
            rcoch.RestrictedTwoCochain(image, rcoch.ind1_values(R, psi))
            for image, psi in zip(identity.images, psis)
        ]
        gh = draw(rng, p, 2 * p)  # g then h for each induced pair d1+(e^k)
        phi = cochains.random_cocycle(rng, p)
        omega = tuple(int(x) for x in rng.integers(0, p, size=p))
        c2 = rcoch.RestrictedTwoCochain(phi, omega)
        gh = np.vstack([gh, draw(rng, p, 2)])  # and for the cocycle pair
        g, h = gh[0::2], gh[1::2]
        holds = rcoch.star_property_holds(R.algebra, pairs + [c2], g, h)
        bad_star += int((~holds).sum())
        induced = rcoch.star_eval(R.algebra, pairs, g[:p])
        powers = restricted.p_power(R, g[:p])
        bad_ind1 += sum(
            value != psi.evaluate(power) for value, psi, power in zip(induced, psis, powers)
        )
        rc3 = rcoch.d2_star(R, c2)
        triples = draw(rng, p, 9)
        holds = rcoch.doublestar_property_holds(
            R.algebra, rc3, triples[0::3], triples[1::3], triples[2::3]
        )
        bad_dstar += int((~holds).sum())
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
    name = "diagonal search confirms transformed vectors"
    if p <= isoclass.SEARCH_LIMIT:
        record(records, name, bad_prop == 0, cover)
    else:
        record(records, name, True, f"not run: p > {isoclass.SEARCH_LIMIT}", info=True)


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
