"""Acceptance gate: nine headline claims, one test (and one line) each.

Run with `pytest -v tests/test_acceptance.py` to get a per-criterion
pass/fail report.  Every comparison is exact integer equality over
GF(p); the only non-algebraic bound is the wall-clock budget on the
dimension sweep.
"""

import itertools
import time

import numpy as np

from filicoh import checks, cochains, cohomology, extensions, gf, isoclass, liealg, restricted
from filicoh import restricted_cochains as rcoch
from filicoh.cochains import Cochain, dual_cochain, phi_k
from helpers import (
    d1_star,
    d1_star_matrix,
    d2_star,
    ind2_at,
    ind2_family_closed,
    omega_arrays,
    star_correction_naive,
    to_vector,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def note(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def criterion_lambdas(p, seed=1000):
    """The shared test grid: zero, every one-hot, five seeded random nonzero."""
    rng = np.random.default_rng(seed + p)
    out = [(0,) * p]
    out.extend(tuple(int(i == k) for i in range(p)) for k in range(p))
    for _ in range(5):
        while True:
            lam = tuple(int(x) for x in rng.integers(0, p, size=p))
            if any(lam):
                out.append(lam)
                break
    return out


def rref_of(cochain_list, p):
    mat = np.stack([to_vector(c) for c in cochain_list])
    return gf.rref(mat, p)[0]


def test_criterion_1_dimension_table():
    start = time.perf_counter()
    cases = 0
    bad = []
    for p in PRIMES:
        A = liealg.make_m0(p)
        # the ordinary groups take no lambda, so compute them once per prime
        dim_h1 = cohomology.h1(A).dimension
        dim_h2 = cohomology.h2(A).dimension
        for lam in criterion_lambdas(p):
            cases += 1
            nonzero = any(lam)
            dim_h2s = cohomology.h2_star(restricted.Family(p, lam)).dimension
            if p >= 3:
                want = (2, (p + 1) // 2,
                        (3 * p - 3) // 2 if nonzero else (3 * p + 1) // 2)
                got = (dim_h1, dim_h2, dim_h2s)
            else:
                want = (1, 1 if nonzero else 3)
                got = (dim_h2, dim_h2s)
            if got != want:
                bad.append((p, lam, got, want))
    elapsed = time.perf_counter() - start
    note(1, not bad and elapsed < 5.0,
         f"dimension table exact on {cases} (p, lambda) cases in {elapsed:.2f}s "
         f"(budget 5s), mismatches: {len(bad)}")


def test_criterion_2_p7_golden_bases():
    p = 7
    s = cohomology.h2(liealg.make_m0(p))
    golden_reps = [dual_cochain(p, p, (1, 7)), phi_k(p, 5), phi_k(p, 7), phi_k(p, 9)]
    reps_ok = len(s.representatives) == 4 and all(
        (to_vector(a) == to_vector(b)).all()
        for a, b in zip(s.representatives, golden_reps)
    )
    golden_kernel = [dual_cochain(p, p, (1, j)) for j in range(2, 8)] + [
        phi_k(p, 5), phi_k(p, 7), phi_k(p, 9)
    ]
    kernel = gf.kernel_basis(cochains.d2_matrix(liealg.make_m0(p)), p)
    kernel_ok = s.kernel_dim == 9 and (
        gf.rref(kernel, p)[0] == rref_of(golden_kernel, p)
    ).all()
    note(2, reps_ok and kernel_ok,
         "p=7 golden bases: 4 representatives and 9 kernel elements match "
         "as reduced coordinate vectors")


def test_criterion_3_h1_equals_h1_star():
    bad = []
    for p in (3, 5, 7, 11, 13):
        A = liealg.make_m0(p)
        plain = cohomology.h1(A)
        plain_kernel = gf.rref(gf.kernel_basis(cochains.d1_matrix(A), p), p)[0]
        for lam in criterion_lambdas(p):
            R = restricted.Family(p, lam)
            star = cohomology.h1_star(R)
            star_kernel = gf.kernel_basis(d1_star_matrix(R), p)
            same = plain.dimension == star.dimension == 2 and (
                plain.kernel_dim == star.kernel_dim
            ) and (plain_kernel == gf.rref(star_kernel, p)[0]).all()
            if not same:
                bad.append((p, lam))
    note(3, not bad,
         f"restricted degree-1 kernel equals the ordinary one as reduced "
         f"bases for p in (3,5,7,11,13), mismatches: {len(bad)}")


def test_criterion_4_splitting_at_zero_lambda():
    bad = []
    for p in PRIMES:
        h2 = cohomology.h2(liealg.make_m0(p)).dimension
        h2s = cohomology.h2_star(restricted.Family(p, (0,) * p)).dimension
        if h2s != p + h2:
            bad.append((p, h2, h2s))
    note(4, not bad,
         f"zero lambda splitting dim H2+ = p + dim H2 for all {len(PRIMES)} "
         f"primes, violations: {len(bad)}")


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(500)
    matrices_ok = power_ok = ind2_ok = corrections_ok = True
    for p in PRIMES:
        A = liealg.make_m0(p)
        closed_d1 = np.stack(
            [to_vector(cochains.d1_closed_m0(p, k)) for k in range(1, p + 1)], axis=1
        )
        if (cochains.d1_matrix(A) != closed_d1).any():
            matrices_ok = False
        closed_d2 = np.stack(
            [to_vector(cochains.d2_closed_m0_corrected(p, i, j))
             for i, j in cochains.index_tuples(p, 2)],
            axis=1,
        )
        if (cochains.d2_matrix(A) != closed_d2).any():
            matrices_ok = False

        for _ in range(100):
            R = restricted.Family(p, rng.integers(0, p, size=p))
            g = gf.normalize(rng.integers(0, p, size=p), p)
            if (restricted.p_power_jacobson(R, g) != restricted.p_power_closed(R, g)).any():
                power_ok = False

        for lam in criterion_lambdas(p):
            R = restricted.Family(p, lam)
            for _ in range(100):
                phi = Cochain(
                    p, p, 2,
                    {key: int(rng.integers(0, p)) for key in cochains.index_tuples(p, 2)},
                )
                g = gf.normalize(rng.integers(0, p, size=p), p)
                h = gf.normalize(rng.integers(0, p, size=p), p)
                if ind2_at(R, phi, g, h) != ind2_family_closed(R, phi, g, h):
                    ind2_ok = False

        trials = 5 if p <= 7 else (3 if p == 11 else 2)
        for _ in range(trials):
            phi = Cochain(
                p, p, 2,
                {key: int(rng.integers(0, p)) for key in cochains.index_tuples(p, 2)},
            )
            h1 = gf.normalize(rng.integers(0, p, size=p), p)
            h2 = gf.normalize(rng.integers(0, p, size=p), p)
            if star_correction_naive(A, phi, h1, h2) != rcoch.star_correction(
                A, rcoch.form_matrix(phi), h1, h2
            ):
                corrections_ok = False
    ok = matrices_ok and power_ok and ind2_ok and corrections_ok
    note(5, ok,
         f"oracle equivalences: differential matrices {matrices_ok}, "
         f"p-power recursion vs closed form {power_ok} (100/prime), induced "
         f"beta closed form {ind2_ok} (100 per (p, lambda)), naive vs DP "
         f"corrections {corrections_ok}")


def test_criterion_6_complex_identities_and_gradedness():
    rng = np.random.default_rng(600)
    complex_ok = restricted_ok = graded_ok = True
    for p in PRIMES:
        A = liealg.make_m0(p)
        identity = checks.complex_identity(A)
        if not identity.ok:
            complex_ok = False
        # the family is graded by basis index, so d1 must send weight k
        # to pairs summing to k
        for k, image in enumerate(identity.images, start=1):
            if any(i + j != k for (i, j) in image.coeffs):
                graded_ok = False
        for i, j in cochains.index_tuples(p, 2):
            out = cochains.d2(A, dual_cochain(p, p, (i, j)))
            if any(sum(key) != i + j for key in out.coeffs):
                graded_ok = False
        lams = [(0,) * p] + [
            tuple(int(x) for x in rng.integers(0, p, size=p)) for _ in range(2)
        ]
        if not identity.restricted_holds(restricted.Family(p, lams)).all():
            restricted_ok = False
    ok = complex_ok and restricted_ok and graded_ok
    note(6, ok,
         f"complex identities: d2(d1) = 0 {complex_ok}, restricted "
         f"d2+(d1+) = (0,0) {restricted_ok}, differentials graded {graded_ok}")


def test_criterion_7_sum_rule_conformance():
    rng = np.random.default_rng(700)
    star_fail = dstar_fail = 0
    for p in PRIMES:
        A = liealg.make_m0(p)
        for _ in range(100):
            lam = tuple(int(x) for x in rng.integers(0, p, size=p))
            R = restricted.Family(p, lam)
            psi = Cochain(p, p, 1, {(k,): int(rng.integers(0, p)) for k in range(1, p + 1)})
            g = gf.normalize(rng.integers(0, p, size=p), p)
            h = gf.normalize(rng.integers(0, p, size=p), p)
            if not rcoch.star_rule(A, omega_arrays(d1_star(R, psi)), g, h)[1]:
                star_fail += 1
        for _ in range(100):
            lam = tuple(int(x) for x in rng.integers(0, p, size=p))
            R = restricted.Family(p, lam)
            alpha, beta = d2_star(
                R,
                rcoch.RestrictedTwoCochain(
                    cochains.random_cocycle(rng, p),
                    tuple(int(x) for x in rng.integers(0, p, size=p)),
                ),
            )
            g = gf.normalize(rng.integers(0, p, size=p), p)
            h1 = gf.normalize(rng.integers(0, p, size=p), p)
            h2 = gf.normalize(rng.integers(0, p, size=p), p)
            if not rcoch.star_rule(A, rcoch.beta_at(alpha, beta, g), h1, h2)[1]:
                dstar_fail += 1
    note(7, star_fail == 0 and dstar_fail == 0,
         f"sum rules on 100 random tuples per prime: omega rule failures "
         f"{star_fail}, beta rule failures {dstar_fail} (beta rule over "
         f"cocycle-sourced forms)")


def test_criterion_8_central_extensions():
    rng = np.random.default_rng(800)
    entry_ok = verified_ok = trivial_ok = True
    for p in PRIMES:
        A = liealg.make_m0(p)
        lams = [(0,) * p] + [
            tuple(int(x) for x in rng.integers(0, p, size=p)) for _ in range(2)
        ]
        for lam in lams:
            R = restricted.Family(p, lam)
            for k in range(1, p + 1):
                dual = rcoch.frobenius_dual_cochain(p, p, k)
                P = extensions.extend_restricted(R, dual)
                E = P.algebra
                # brackets unchanged, powers e_i^[p] = lam_i e_p + delta_ik c
                for (i, j), vec in E.brackets.items():
                    if vec[-1] != 0 or (vec[:-1] != A.bracket_basis(i, j)).any():
                        entry_ok = False
                if set(E.brackets) != set(A.brackets):
                    entry_ok = False
                for i in range(1, p + 1):
                    want = gf.zeros(p + 1)
                    want[p - 1] = lam[i - 1]
                    if i == k:
                        want[p] = 1
                    if (P.power_matrix[i - 1] != want).any():
                        entry_ok = False
                if P.power_matrix[p].any():
                    entry_ok = False
                ok_j, _ = liealg.jacobi_check(E)
                ok_r, _ = restricted.verify_restricted_map(P)
                verified_ok = verified_ok and ok_j and ok_r
                if not extensions.is_trivial_ordinary_extension(A, dual.phi):
                    trivial_ok = False
    note(8, entry_ok and verified_ok and trivial_ok,
         f"Frobenius-dual extensions entry-for-entry {entry_ok}, Jacobi and "
         f"restricted axioms re-verified {verified_ok}, trivial as ordinary "
         f"extensions {trivial_ok}")


def test_criterion_9_isomorphism_classifier():
    rng = np.random.default_rng(900)
    transform_fail = 0
    for p in (3, 5, 7):
        for _ in range(100):
            lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
            mu1 = int(rng.integers(1, p))
            mu2 = int(rng.integers(1, p))
            if not checks.transform_confirmed(p, lam2, mu1, mu2):
                transform_fail += 1

    lams = [tuple(v) for v in itertools.product(range(3), repeat=3)]
    M = np.zeros((27, 27), dtype=bool)
    for a, lam in enumerate(lams):
        for b, lam2 in enumerate(lams):
            M[a, b] = isoclass.iso_bruteforce(3, lam, lam2) is not None
    reflexive = bool(M.diagonal().all())
    symmetric = bool((M == M.T).all())
    transitive = not ((M.astype(int) @ M.astype(int) > 0) & ~M).any()
    zero_idx = lams.index((0, 0, 0))
    zero_singleton = int(M[zero_idx].sum()) == 1
    classes = isoclass.partition_classes(3, lams)
    partition_ok = len(classes) == 12 and sorted(len(c) for c in classes) == [
        1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4,
    ]

    # informational comparison report: never part of the pass/fail verdict
    agree3 = sum(
        isoclass.proposition_formula_check(3, a, b)["agree"] for a in lams for b in lams
    )
    print(f"condition-set report p=3: {agree3}/729 verdicts agree (exhaustive)")
    agree5 = 0
    for _ in range(200):
        a = tuple(int(x) for x in rng.integers(0, 5, size=5))
        b = tuple(int(x) for x in rng.integers(0, 5, size=5))
        agree5 += isoclass.proposition_formula_check(5, a, b)["agree"]
    print(f"condition-set report p=5: {agree5}/200 sampled verdicts agree")
    flagged = isoclass.proposition_formula_check(5, (1, 2, 1, 0, 0), (1, 1, 1, 0, 0))
    print(
        "condition-set report p=5 flagged pair lambda=1,2,1,0,0 vs 1,1,1,0,0: "
        f"statement={flagged['statement_isomorphic']} "
        f"search={flagged['bruteforce_isomorphic']} agree={flagged['agree']}"
    )

    ok = (transform_fail == 0 and reflexive and symmetric and transitive
          and zero_singleton and partition_ok)
    note(9, ok,
         f"transformed-pair confirmations failed {transform_fail}/300; p=3 "
         f"relation reflexive {reflexive}, symmetric {symmetric}, transitive "
         f"{transitive}; null vector a singleton {zero_singleton}; 12-class "
         f"partition {partition_ok}; condition-set report emitted above")
