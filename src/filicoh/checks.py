"""The checks `filicoh verify` runs, shared with the acceptance tests.

Each check appends a record {name, ok, detail, info}; an info record never
fails the run.  The checks draw from one seeded stream in a fixed order,
so a seeded run replays byte for byte.  The stream is cli.SeededStream:
numpy's default generator stream (SeedSequence, PCG64, Lemire's bounded
draw) computed in plain Python, without numpy's random module, and pinned
draw for draw to numpy's generator by a test.  What does not depend on lambda is
evaluated once per prime: d2 of each dual pair, the d1 images of the
degree-1 duals and d2 of each of those images, and whether the ordinary
extension by the form part of each Frobenius dual (0, ebar^k), 0 for every
lambda, splits.  The samples of every lambda are drawn first, in that
order; then each oracle runs once per part of the lambda stack, a
restricted.Family cut by restricted.batches into parts of at most
restricted.BATCH_CELLS cells, and a failure is still counted per sample.
The beta sum rule is omega's rule of restricted_cochains.beta_at, one
(basis values, forms) block per member, and the p-powers are the closed
ones of the family.  Each Frobenius dual extends the whole sample's stack
in one extensions.extend_restricted call, one build and one Jacobi and
restricted-axiom check for all its members, since the dual's form part
is 0 for every lambda; only the diagonal search runs once per lambda.
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
    """d1 e^k for k = 1..p, their form matrices and whether d2 kills every
    one of them."""

    images: tuple[cochains.Cochain, ...]
    forms: np.ndarray
    ok: bool

    def restricted_holds(self, family: restricted.Family) -> np.ndarray:
        """d2+(d1+ e^k) = (d2(d1 e^k), induced beta of d1 e^k) = (0, 0) for
        every k, one flag per member: one ind2_matrix product of the forms
        over the stack.  self.ok decided the lambda-independent form part."""
        induced = rcoch.ind2_matrix(family, self.forms[:, None])  # (k, member, i, j)
        return self.ok & ~induced.any(axis=(0, 2, 3))


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
    """count random vectors, stacked as rows, in one rng call.  rng is a
    cli.SeededStream, or the numpy generator whose stream it computes;
    either's bounded draws give the stream of one call per vector, which
    is how the checks have always drawn them."""
    return rng.integers(0, p, size=(count, p))


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
    """The p-power recursion and the restricted complex identity on every
    lambda, each oracle called once per part of the lambda stack."""
    family = restricted.Family(p, lams)
    g = draw(rng, p, 3 * len(lams)).reshape(len(lams), 3, p)
    bad_power = bad_complex = 0
    # a lambda brings 3 rows to each split
    for part in restricted.batches(len(lams), 3, p):
        jacobson = restricted.p_power_jacobson(family[part], g[part])
        closed = restricted.p_power_closed(family[part], g[part])
        bad_power += int((jacobson != closed).any(axis=-1).sum())
    # and p induced beta matrices, p x p each, to the complex identity
    for part in restricted.batches(len(lams), p, p):
        bad_complex += int((~identity.restricted_holds(family[part])).sum())
    cover = f"{len(lams)} lambda vector(s)"
    record(records, "p-power recursion vs closed form", bad_power == 0, f"{cover}, 3 samples each")
    record(records, "restricted complex identity", bad_complex == 0, f"{cover}, all duals")


def sampled_checks(p, lams, identity: ComplexIdentity, records, rng):
    """Sum rules, extensions and the diagonal search on a capped sample.

    Every sampled lambda's values are drawn first, in the order the checks
    have always drawn them.  The sum rules then run once per part of the
    sample's stack, the extensions once per Frobenius dual on the whole
    stack, and the diagonal search on each lambda vector."""
    sample = lams[:VERIFY_SAMPLE_CAP]
    cover = f"{len(sample)} of {len(lams)} lambda vector(s)"
    search = p <= isoclass.SEARCH_LIMIT
    gh, cocycles, omegas, triples, mus = [], [], [], [], []
    for _ in sample:
        pairs_gh = draw(rng, p, 2 * p)  # g then h for each induced pair d1+(e^k)
        cocycles.append(cochains.random_cocycle(rng, p))
        omegas.append(rng.integers(0, p, size=p))
        gh.append(np.vstack([pairs_gh, draw(rng, p, 2)]))  # and for the cocycle pair
        triples.append(draw(rng, p, 9))
        if search:
            mus.append(tuple(int(rng.integers(1, p)) for _ in range(2)))  # no draw at p = 2
    A = liealg.make_m0(p)
    family = restricted.Family(p, sample)
    gh, triples, omegas = np.stack(gh), np.stack(triples), np.stack(omegas)
    g, h = gh[:, 0::2], gh[:, 1::2]
    phis = rcoch.form_matrices(cocycles)
    psis = [cochains.dual_cochain(p, p, (k,)) for k in range(1, p + 1)]

    bad_star = bad_ind1 = bad_dstar = 0
    # a lambda brings 3(p + 1) rows (g, h and g + h of p + 1 pairs) to a split
    for part in restricted.batches(len(sample), 3 * (p + 1), p):
        members = family[part]
        # d1+(e^k) = (d1 e^k, omega induced by the p-powers), d1 e^k once
        # per prime, then the cocycle pair (phi, omega)
        induced = [rcoch.ind1_values(members, psi)[:, None] for psi in psis]
        omega = np.concatenate(induced + [omegas[part, None]], axis=1)
        forms = np.concatenate(
            [np.broadcast_to(identity.forms, (len(members), p, p, p)), phis[part, None]], axis=1
        )
        at_g, holds = rcoch.star_rule(A, (omega, forms), g[part], h[part])
        bad_star += int((~holds).sum())
        # psi_k = e^k reads coordinate k of the k-th p-power
        powers = restricted.p_power_closed(members, g[part, :p])
        bad_ind1 += int((at_g[:, :p] != np.diagonal(powers, axis1=-2, axis2=-1)).sum())

    # and 9 rows (h1, h2 and h1 + h2 of 3 triples) to a beta split
    for part in restricted.batches(len(sample), 9, p):
        # d2+(phi, omega) = (d2 phi, beta induced by the p-powers); beta(g, -)
        # of each member is omega of beta_at, so omega's rule decides it
        betas = rcoch.ind2_matrix(family[part], phis[part])
        t = triples[part]
        at = [
            rcoch.beta_at(cochains.differential(A, phi), beta, rows)
            for phi, beta, rows in zip(cocycles[part], betas, t[:, 0::3])
        ]
        stacked = tuple(np.stack(arrays) for arrays in zip(*at))
        _, holds = rcoch.star_rule(A, stacked, t[:, 1::3], t[:, 2::3])
        bad_dstar += int((~holds).sum())

    bad_ext = 0
    for k in (1, 2, p):
        dual = rcoch.frobenius_dual_cochain(p, p, k)
        # the form part of (0, ebar^k) is a coboundary, so E_k splits when
        # forgotten down to an ordinary extension; that part is 0 for every
        # lambda, and so are E_k's brackets
        try:
            RE = extensions.extend_restricted(family, dual)
        except (ValueError, RuntimeError):
            bad_ext += 1
            continue
        if not extensions.is_trivial_ordinary_extension(A, dual.phi):
            bad_ext += 1
        if RE.algebra.labels[-1] != extensions.CENTER_LABEL:
            bad_ext += 1
    bad_prop = sum(
        1 for lam, mu in zip(sample, mus) if not transform_confirmed(p, lam, *mu)
    )
    record(records, "omega sum rule on induced and cocycle pairs", bad_star == 0, cover)
    record(records, "induced omega matches psi of the p-power", bad_ind1 == 0, cover)
    record(records, "beta sum rule on induced triples", bad_dstar == 0, f"{cover}, 3 triples each")
    record(records, "central extensions verify and stay trivial", bad_ext == 0, cover)
    name = "diagonal search confirms transformed vectors"
    if search:
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
            f", first disagreement at lambda={gf.vector_str(a)} vs {gf.vector_str(b)}"
        )
    record(records, "closed condition set vs diagonal search", True, detail, info=True)
