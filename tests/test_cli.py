"""End-to-end CLI behavior: flags, reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filicoh import checks, cli, cochains, cohomology, extensions, isoclass, restricted
from filicoh import restricted_cochains as rcoch
from filicoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dims


def test_dims_zero_lambda_row(capsys):
    code, out, _ = run(capsys, "dims", "--prime", "7", "--lambda", "zero")
    assert code == 0
    assert "H2=4" in out and "H2+=11" in out
    assert "all pass" in out


def test_dims_p2_nonzero_lambda(capsys):
    code, out, _ = run(capsys, "dims", "--prime", "2", "--lambda", "1,0")
    assert code == 0
    assert "H2+=1" in out


def test_dims_rejects_composite(capsys):
    code, out, err = run(capsys, "dims", "--prime", "4", "--lambda", "zero")
    assert code == 2
    assert "not prime" in err


def test_dims_rejects_wrong_lambda_length(capsys):
    code, _, err = run(capsys, "dims", "--prime", "5", "--lambda", "1,2")
    assert code == 2
    assert "5 entries" in err


def test_dims_rejects_bad_lambda_spec(capsys):
    code, _, err = run(capsys, "dims", "--prime", "5", "--lambda", "ones")
    assert code == 2
    assert "bad lambda spec" in err


def test_dims_rejects_negative_random_seed(capsys):
    code, out, err = run(capsys, "dims", "--prime", "5", "--lambda", "random:-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err and "Traceback" not in err


def test_dims_json_shape(capsys):
    code, out, _ = run(capsys, "dims", "--prime", "3", "--lambda", "all",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dims"
    assert doc["ok"] is True
    assert len(doc["rows"]) == 27
    row = doc["rows"][0]
    assert row["lambda"] == [0, 0, 0]
    assert row["groups"]["H2+"]["computed"] == 5


def test_dims_all_capped_for_large_prime(capsys):
    code, out, _ = run(capsys, "dims", "--prime", "5", "--lambda", "all",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == cli.CAP_SAMPLES + 1
    assert any("capped" in n and "seed 0" in n for n in doc["notes"])
    lams = {tuple(r["lambda"]) for r in doc["rows"]}
    assert (0, 0, 0, 0, 0) in lams
    assert (0, 1, 0, 0, 0) in lams  # one-hots are always included


def test_dims_random_seed_echoed(capsys):
    code1, out1, _ = run(capsys, "dims", "--prime", "5", "--lambda", "random:42")
    code2, out2, _ = run(capsys, "dims", "--prime", "5", "--lambda", "random:42")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed 42" in out1


@pytest.mark.parametrize("p", ["2", "3", "7"])
def test_dims_reads_each_member_off_its_lambda(capsys, monkeypatch, p):
    # the groups read the power rows and W off lambda, so no member's power
    # matrix is built, at p = 2 (where W is the line of lambda) or later
    def no_power_matrix(R):
        raise AssertionError("a power matrix was built for dims")

    monkeypatch.setattr(restricted.Family, "power_matrix", property(no_power_matrix))
    code, out, _ = run(capsys, "dims", "--prime", p, "--lambda", "all")
    assert code == 0
    assert out.endswith("all pass\n")


# ---------------------------------------------------------------------------
# basis


def test_basis_p7_ordinary_degree2(capsys):
    code, out, _ = run(capsys, "basis", "--prime", "7", "--lambda", "zero",
                       "--degree", "2")
    assert code == 0
    for rep in ("e^{1,7}", "e^{2,3}", "e^{2,5} - e^{3,4}",
                "e^{2,7} - e^{3,6} + e^{4,5}"):
        assert rep in out


def test_basis_p3_restricted_all_ones(capsys):
    code, out, _ = run(capsys, "basis", "--prime", "3", "--lambda", "1,1,1",
                       "--degree", "2", "--restricted")
    assert code == 0
    assert "(0, ebar^1)" in out
    assert "(0, ebar^2)" in out
    assert "(0, ebar^3)" in out


def test_basis_degree1(capsys):
    code, out, _ = run(capsys, "basis", "--prime", "5", "--degree", "1")
    assert code == 0
    assert "e^1" in out and "e^2" in out
    assert "(dim 2)" in out


def test_basis_json_lists_representatives(capsys):
    code, out, _ = run(capsys, "basis", "--prime", "5", "--degree", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "H2"
    assert doc["rows"][0]["representatives"] == ["e^{1,5}", "e^{2,3}", "e^{2,5} - e^{3,4}"]


# ---------------------------------------------------------------------------
# verify


def test_verify_small_prime_passes(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "3", "--lambda", "all")
    assert code == 0
    assert "verify result: pass" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
def test_verify_passes_on_a_random_lambda_up_to_31(capsys, p):
    code, out, _ = run(capsys, "verify", "--prime", str(p), "--lambda", "random:1")
    assert code == 0
    assert "verify result: pass" in out
    assert "FAIL" not in out


def test_verify_p2_all_prints_basis_table(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "2", "--lambda", "all")
    assert code == 0
    assert "basis table for p=2" in out
    assert "lambda=0,0: H1+ = [e^1, e^2]" in out
    assert "lambda=1,0: H1+ = [e^1]; H2+ = [(0, ebar^2)]" in out
    assert "lambda=1,1: H1+ = [e^1]; H2+ = [(0, ebar^1)]" in out


def test_verify_seeded_random_echoes_seed(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "7", "--lambda", "random:42")
    assert code == 0
    assert "seed 42" in out
    assert "verify result: pass" in out


def test_verify_reports_printed_form_deviation_as_info(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "5", "--lambda", "zero")
    assert code == 0
    line = next(l for l in out.splitlines() if "as printed" in l)
    assert line.strip().startswith("info")
    assert "3 of 10 dual pairs" in line


def test_verify_json_separates_informational(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "3", "--lambda", "zero",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    infos = [c for c in doc["checks"] if c["info"]]
    assert len(infos) == 2
    hard = [c for c in doc["checks"] if not c["info"]]
    assert all(c["ok"] for c in hard)


def test_verify_marks_the_diagonal_search_not_run_above_the_search_limit(monkeypatch, capsys):
    # above isoclass.SEARCH_LIMIT no search runs, so the check is no pass
    monkeypatch.setattr(isoclass, "SEARCH_LIMIT", 5)
    code, out, _ = run(capsys, "verify", "--prime", "7", "--lambda", "random:1")
    assert code == 0
    assert "  info diagonal search confirms transformed vectors (not run: p > 5)\n" in out
    assert "closed condition set" not in out
    assert "verify result: pass (12 checks, 2 informational)" in out


# tracemalloc peak of a repeated `verify --prime 13 --lambda all`, whose
# memos and caches the first run filled: 544 KB before the lambda stacks,
# 716 KB with them, cut to parts of restricted.BATCH_CELLS cells.  Without
# the cut the stacks over the 201 lambdas alone would take several MB.
VERIFY_P13_PEAK_BOUND = 800_000


def test_verify_stacks_stay_within_their_cell_budget(capsys):
    argv = ["verify", "--prime", "13", "--lambda", "all"]
    want = run(capsys, *argv)
    tracemalloc.start()
    try:
        got = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and got[0] == 0
    assert peak < VERIFY_P13_PEAK_BOUND, peak


def verify_tags(capsys, *argv):
    """Exit code and {check name: ok/FAIL/info} of a verify table report."""
    code, out, _ = run(capsys, "verify", *argv)
    tags = {}
    for line in out.splitlines():
        tag, _, rest = line.strip().partition(" ")
        if tag in ("ok", "FAIL", "info"):
            # every check with a parenthesised name also prints a detail
            tags[rest.strip().rsplit(" (", 1)[0]] = tag
    return code, tags


def test_verify_fails_on_nonzero_induced_beta(monkeypatch, capsys):
    real = rcoch.ind2_matrix

    def corrupted(R, phi):
        out = real(R, phi)
        out[0, 0] = (out[0, 0] + 1) % R.prime
        return out

    # H2+ builds its induced-beta rows without ind2_matrix, so the
    # dimension table still passes and only the oracle check fails
    monkeypatch.setattr(rcoch, "ind2_matrix", corrupted)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "zero")
    assert code == 1
    assert tags["restricted complex identity"] == "FAIL"
    assert tags["complex identity d2(d1(psi)) = 0"] == "ok"
    assert tags["dimension table"] == "ok"


def test_verify_fails_on_corrupted_d2(monkeypatch, capsys):
    real = cochains.d2

    def corrupted(A, c2):
        return real(A, c2) + cochains.dual_cochain(A.prime, A.dim, (1, 2, 3))

    monkeypatch.setattr(cochains, "d2", corrupted)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "zero")
    assert code == 1
    assert tags["complex identity d2(d1(psi)) = 0"] == "FAIL"
    assert tags["restricted complex identity"] == "FAIL"


# Each fault below sits in one sample of one lambda, so a check that
# batches its samples, or stacks its lambdas, must still count it and
# print FAIL.
TARGET_LAMBDA = (1, 2, 0)


def member_rows(family, lam):
    """The members of a restricted.Family stack whose lambda is lam."""
    return np.flatnonzero((family.lam == lam).all(axis=-1))


def plant_wrong_closed_p_power(monkeypatch, lam):
    """Make p_power_closed wrong on the first sample of lam, the first time
    it gets lam.  Returns the stack sizes it got, and at which call it
    planted the fault."""
    real = restricted.p_power_closed
    sizes, planted = [], []

    def wrong(R, g):
        out = real(R, g)
        rows = member_rows(R, lam)
        if rows.size and not planted:
            planted.append(len(sizes))
            first = out[rows[0]].reshape(-1, R.dim)[0]  # the first sample only
            first[-1] = (first[-1] + 1) % R.prime
        sizes.append(len(R))
        return out

    monkeypatch.setattr(restricted, "p_power_closed", wrong)
    return sizes, planted


def test_verify_fails_on_one_wrong_closed_p_power(monkeypatch, capsys):
    _, planted = plant_wrong_closed_p_power(monkeypatch, TARGET_LAMBDA)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert planted
    assert code == 1
    assert tags["p-power recursion vs closed form"] == "FAIL"
    assert tags["induced omega matches psi of the p-power"] == "ok"


def test_verify_fails_on_a_wrong_p_power_in_the_last_part(monkeypatch, capsys):
    # a budget of 4 lambdas' samples cuts the 27 lambdas at p = 3 into 7
    # parts; the fault sits in the last lambda, alone in the last part
    monkeypatch.setattr(restricted, "BATCH_CELLS", 4 * 3 * 3 * 3)
    sizes, planted = plant_wrong_closed_p_power(monkeypatch, (2, 2, 2))
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert sizes[:7] == [4] * 6 + [3]
    assert planted == [6]
    assert code == 1
    assert tags["p-power recursion vs closed form"] == "FAIL"
    assert tags["restricted complex identity"] == "ok"
    assert tags["induced omega matches psi of the p-power"] == "ok"


def test_verify_fails_on_one_wrong_induced_omega(monkeypatch, capsys):
    real = rcoch.ind1_values
    planted = []

    def off(R, psi):
        values = real(R, psi)
        rows = member_rows(R, TARGET_LAMBDA)
        if rows.size and psi.coeffs == {(3,): 1}:
            planted.append(True)
            values[rows] = (values[rows] + 1) % R.prime
        return values

    monkeypatch.setattr(rcoch, "ind1_values", off)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert planted
    assert code == 1
    assert tags["induced omega matches psi of the p-power"] == "FAIL"
    # omega's basis values never decide the sum rule
    assert tags["omega sum rule on induced and cocycle pairs"] == "ok"
    assert tags["p-power recursion vs closed form"] == "ok"


def test_verify_fails_on_one_corrupted_correction_row(monkeypatch, capsys):
    real = rcoch.star_correction
    planted = []

    def shifted(algebra, phi, h1, h2):
        out = np.array(real(algebra, phi, h1, h2))
        if not planted:
            # a constant added to one split: not bilinear, so no rule absorbs it
            planted.append(True)
            out.reshape(-1)[0] = (out.reshape(-1)[0] + 1) % algebra.prime
        return out[()]

    monkeypatch.setattr(rcoch, "star_correction", shifted)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert planted
    assert code == 1
    assert tags["omega sum rule on induced and cocycle pairs"] == "FAIL"
    assert tags["beta sum rule on induced triples"] == "ok"


def module_with(module, **replaced):
    """A stand-in for `module` with some attributes replaced, to hand to
    one importing module only."""
    return types.SimpleNamespace(**{**vars(module), **replaced})


def test_verify_fails_on_one_extension_breaking_jacobi(monkeypatch, capsys):
    # each Frobenius dual extends the whole sample in one build, so the
    # extensions build three algebras at p = 3, and the first is faulty
    real = extensions.liealg.LieAlgebra
    builds = []

    def faulty(prime, dim, brackets, weights, labels=None):
        if not builds:
            # [e_2, e_3] gains e_2: the Jacobiator of (e_1, e_2, e_3) is -e_3
            brackets = dict(brackets)
            vec = brackets.get((2, 3), [0] * dim)
            brackets[(2, 3)] = [c + (k == 1) for k, c in enumerate(vec)]
        builds.append(dim)
        return real(prime, dim, brackets, weights, labels)

    monkeypatch.setattr(
        extensions, "liealg", module_with(extensions.liealg, LieAlgebra=faulty)
    )
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert builds == [4, 4, 4]
    assert code == 1
    assert tags["central extensions verify and stay trivial"] == "FAIL"
    assert tags["jacobi identity"] == "ok"


def plant_p_map_fault(monkeypatch, member):
    """Make e_2^[p] gain e_1 in one member of the first extension's stack
    of p-maps.  Returns the stack size of each extension built."""
    real = restricted.RestrictedAlgebra
    sizes = []

    def faulty(algebra, powers):
        powers = np.array(powers)
        if not sizes:
            # ad(e_1) is not the p-th power of ad(e_2), which is zero
            powers[member, 1, 0] += 1
        sizes.append(len(powers))
        return real(algebra, powers)

    monkeypatch.setattr(
        extensions, "restricted", module_with(restricted, RestrictedAlgebra=faulty)
    )
    return sizes


def test_verify_fails_on_one_extension_breaking_the_p_map(monkeypatch, capsys):
    # the fault sits in the first of the 20 sampled lambdas at p = 3; each
    # Frobenius dual extends the whole sample at once
    sizes = plant_p_map_fault(monkeypatch, 0)
    code, tags = verify_tags(capsys, "--prime", "3", "--lambda", "all")
    assert sizes == [checks.VERIFY_SAMPLE_CAP] * 3
    assert code == 1
    assert tags["central extensions verify and stay trivial"] == "FAIL"
    assert tags["p-power recursion vs closed form"] == "ok"


def test_verify_fails_on_a_p_map_fault_in_the_last_sampled_member(monkeypatch, capsys):
    plant_p_map_fault(monkeypatch, checks.VERIFY_SAMPLE_CAP - 1)
    code, out, _ = run(capsys, "verify", "--prime", "3", "--lambda", "all")
    assert code == 1
    assert "  FAIL central extensions verify and stay trivial (20 of 27 lambda vector(s))\n" in out
    assert "verify result: FAIL" in out


def test_verify_fails_on_wrong_corrected_closed_form(monkeypatch, capsys):
    real = cochains.d2_closed_m0_corrected

    def wrong(p, i, j):
        return real(p, i, j) + cochains.dual_cochain(p, p, (1, 2, 3))

    monkeypatch.setattr(cochains, "d2_closed_m0_corrected", wrong)
    code, tags = verify_tags(capsys, "--prime", "5", "--lambda", "zero")
    assert code == 1
    assert tags["degree-2 differential closed form (corrected)"] == "FAIL"
    assert tags["complex identity d2(d1(psi)) = 0"] == "ok"


# ---------------------------------------------------------------------------
# iso


def test_iso_identity_pair(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "3", "--lambda", "0,0,1",
                       "--lambda-prime", "0,0,1")
    assert code == 0
    assert "isomorphic, mu1=1, mu2=1" in out


def test_iso_negative_verdict(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "3", "--lambda", "0,0,1",
                       "--lambda-prime", "0,0,2")
    assert code == 1
    assert "not isomorphic" in out


def test_pairwise_iso_runs_one_diagonal_search(capsys, monkeypatch):
    calls, search = [], isoclass.iso_bruteforce

    def counting_search(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(isoclass, "iso_bruteforce", counting_search)
    for lam2, want_code in (("2,0,0,0,0", 0), ("0,0,0,0,1", 1)):
        calls.clear()
        code, _, _ = run(capsys, "iso", "--prime", "5", "--lambda", "1,0,0,0,0",
                         "--lambda-prime", lam2)
        assert code == want_code
        assert len(calls) == 1


def test_iso_json_carries_comparison_report(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "5", "--lambda", "1,2,1,0,0",
                       "--lambda-prime", "1,1,1,0,0", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["bruteforce_isomorphic"] is False
    assert doc["statement_isomorphic"] is True
    assert doc["agree"] is False


def test_iso_rejects_all_spec(capsys):
    code, _, err = run(capsys, "iso", "--prime", "3", "--lambda", "all",
                       "--lambda-prime", "zero")
    assert code == 2
    assert "single lambda" in err


def test_iso_pairwise_rejects_prime_above_search_limit(capsys):
    code, out, err = run(capsys, "iso", "--prime", "37", "--lambda", "zero",
                         "--lambda-prime", "zero")
    assert code == 2
    assert out == ""
    assert "diagonal search is limited to p <= 31" in err
    # the same refusal classify mode gives, for every lambda set, even a
    # single vector that needs no search
    for spec in ("all", "zero", "random:3"):
        assert run(capsys, "iso", "--prime", "37", "--lambda", spec) == (2, "", err)


def test_iso_pairwise_refuses_before_the_printed_conditions(capsys, monkeypatch):
    # the refusal comes before the (p-1)^2 x p loop over the printed
    # condition set, which would otherwise run through for this pair
    def no_conditions(*args):
        raise AssertionError("printed conditions evaluated above the search limit")

    monkeypatch.setattr(isoclass, "_statement_conditions", no_conditions)
    p = 37
    lam, lam2 = (",".join(["0"] * (p - 1) + [x]) for x in "12")
    code, out, err = run(capsys, "iso", "--prime", str(p), "--lambda", lam, "--lambda-prime", lam2)
    assert (code, out) == (2, "")
    assert err == "error: diagonal search is limited to p <= 31\n"


# ---------------------------------------------------------------------------
# extend


def test_extend_frobenius_dual(capsys):
    code, out, _ = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "ebar:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 6
    assert doc["labels"][-1] == "c"
    assert doc["extension_of"] == {"base_dim": 5, "cocycle": "(0, ebar^3)",
                                   "restricted": True}
    # e_3^[p] picks up the central coordinate; everything else is untouched
    assert doc["p_powers"][2] == [0, 0, 0, 0, 0, 1]
    assert doc["p_powers"][0] == [0, 0, 0, 0, 0, 0]


def test_extend_format_json_prints_what_no_flag_prints(capsys):
    argv = ("extend", "--prime", "5", "--lambda", "zero", "--cocycle", "ebar:3")
    assert run(capsys, *argv, "--format", "json") == run(capsys, *argv)


def test_extend_rejects_the_table_format(capsys):
    code, out, err = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                         "--cocycle", "ebar:3", "--format", "table")
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'table'" in err


def test_extend_pair_cochain_and_phi(capsys):
    code, out, _ = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "e:1,5")
    assert code == 0
    doc = json.loads(out)
    assert {"i": 1, "j": 5, "coeffs": [0, 0, 0, 0, 0, 1]} in doc["brackets"]

    code, out, _ = run(capsys, "extend", "--prime", "7", "--lambda", "zero",
                       "--cocycle", "phi:5")
    assert code == 0
    assert json.loads(out)["extension_of"]["cocycle"] == "(e^{2,3}, 0)"


def test_extend_rejects_noncocycle(capsys):
    code, _, err = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "e:4,5")
    assert code == 1
    assert "not a restricted cocycle" in err

    code, _, err = run(capsys, "extend", "--prime", "5", "--lambda", "1,0,0,0,0",
                       "--cocycle", "e:1,5")
    assert code == 1
    assert "induced beta" in err


def test_extend_names_the_first_pair_with_nonzero_induced_beta(capsys):
    code, out, err = run(capsys, "extend", "--prime", "5", "--lambda", "1,0,0,0,0",
                         "--cocycle", "e:1,5")
    assert (code, out) == (1, "")
    assert err == "error: not a restricted cocycle: induced beta is nonzero on basis pair (1, 1)\n"


def test_extend_rejects_bad_specs(capsys):
    code, _, err = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "bogus")
    assert code == 2
    assert "unknown cocycle kind" in err

    code, _, err = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "ebar:9")
    assert code == 2
    assert "ebar index" in err

    code, _, err = run(capsys, "extend", "--prime", "5", "--lambda", "zero",
                       "--cocycle", "phi:4")
    assert code == 2
    assert "odd" in err


@pytest.mark.parametrize("spec", ["e:2,2", "e:5,5", "e:1,1"])
def test_extend_rejects_a_repeated_pair_index(spec, capsys):
    # e^{I,I} is the zero form: extending by it would silently build the
    # split extension of a cochain nobody asked for
    code, out, err = run(capsys, "extend", "--prime", "5", "--cocycle", spec)
    assert (code, out) == (2, "")
    assert err == f"error: e:I,J needs two different indices, got {spec!r}\n"


def clear_memos():
    for memo in (cohomology._reduced, cohomology._group, cohomology._candidates):
        memo.cache_clear()


@pytest.mark.parametrize("argv", [
    ["dims", "--prime", "7", "--lambda", "all"],
    ["dims", "--prime", "2", "--lambda", "all", "--format", "json"],
    ["basis", "--restricted", "--prime", "5", "--lambda", "all"],
    ["basis", "--restricted", "--prime", "3", "--lambda", "all", "--degree", "1"],
    ["basis", "--prime", "7", "--lambda", "zero"],
    ["extend", "--prime", "7", "--cocycle", "phi:7"],
    ["extend", "--prime", "7", "--lambda", "random:2", "--cocycle", "ebar:3"],
    ["extend", "--prime", "5", "--cocycle", "e:4,5"],
], ids=" ".join)
def test_reports_run_no_evaluate_based_differential(argv, monkeypatch, capsys):
    # the evaluate-based d1/d2 are oracles only: with Cochain.evaluate
    # broken and every memo cold, the reports come out unchanged
    clear_memos()
    want = run(capsys, *argv)

    def refuse(self, *vectors):
        raise AssertionError("Cochain.evaluate called")

    monkeypatch.setattr(cochains.Cochain, "evaluate", refuse)
    clear_memos()
    try:
        assert run(capsys, *argv) == want
    finally:
        clear_memos()
    assert want[0] in (0, 1)


def test_extend_refuses_a_cocycle_with_a_spurious_differential_term(monkeypatch, capsys):
    real = cochains.differential

    def one_term_too_many(algebra, cochain):
        out = real(algebra, cochain)
        if cochain.degree == 2:
            out = out + cochains.dual_cochain(algebra.prime, algebra.dim, (1, 2, 4))
        return out

    monkeypatch.setattr(cochains, "differential", one_term_too_many)
    code, out, err = run(capsys, "extend", "--prime", "5", "--cocycle", "phi:5")
    assert (code, out) == (1, "")
    assert err == "error: not a restricted cocycle: d2 is nonzero on (1, 2, 4)\n"


# ---------------------------------------------------------------------------
# sweep


def test_pair_tables_hold_one_prime_across_primes():
    # the index tables behind Cochain.coordinates are those of the current
    # prime only: a sweep does not keep one pair table per prime it visited
    clear_memos()
    try:
        for p in (5, 7, 11):
            cli.dims_row(p, (1,) * p)
        assert cochains._positions.cache_info().currsize <= 2
    finally:
        clear_memos()


def test_sweep_six_primes_all_pass(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "2,3,5,7,11,13",
                       "--lambda", "zero")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("p=")]
    assert len(lines) == 6
    assert lines[0].startswith("p=2 ")
    assert lines[-1].startswith("p=13 ")
    assert "6 case(s): all pass" in out


def test_sweep_rows_sorted_by_prime_then_lambda(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "5,3,2", "--lambda", "zero",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "sweep"
    assert [r["prime"] for r in doc["rows"]] == [2, 3, 5]


def test_sweep_rejects_composite_in_grid(capsys):
    code, _, err = run(capsys, "sweep", "--primes", "2,3,9", "--lambda", "zero")
    assert code == 2
    assert "9 is not prime" in err


# ---------------------------------------------------------------------------
# plumbing


def test_identical_config_byte_identical_output(capsys):
    argv = ["verify", "--prime", "3", "--lambda", "random:7", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "dims", "--prime", "5", "--lambda", "zero",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
    json.loads(target.read_text(encoding="utf-8"))


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "dims", "--prime", "5", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output ")
    assert str(target) in err
    assert not target.parent.exists()


def test_ordinary_groups_computed_once_per_prime(monkeypatch):
    # every row asks for H1 and H2; only the first builds them
    built = []
    real = cohomology.CohomologySummary

    def counted(*args, **fields):
        built.append((fields["degree"], fields["restricted"]))
        return real(*args, **fields)

    monkeypatch.setattr(cohomology, "CohomologySummary", counted)
    cohomology._group.cache_clear()
    rows = [cli.dims_row(5, lam) for lam in ((0,) * 5, (1, 0, 2, 0, 0), (0,) * 5)]
    assert sorted(b for b in built if not b[1]) == [(1, False), (2, False)]
    assert all(r["ok"] for r in rows)
    assert rows[0] == rows[2]
    a, b = cli.group_summaries(5, (0,) * 5), cli.group_summaries(5, (1,) * 5)
    assert a["H1"] == b["H1"] and a["H2"] == b["H2"]


# ---------------------------------------------------------------------------
# spec fuzzing: primes stay at most 13, so no large case is allocated

JUNK = st.text(alphabet="0123456789,:- abelmoprxz", max_size=10)
PRIME = st.sampled_from(["2", "3", "5", "7", "11", "13", "0", "1", "4", "9", "-3", "2.0", ""]) | JUNK
INDEX = st.integers(-1, 15).map(str)
LAMBDA = st.one_of(
    st.sampled_from(["zero", "all", "random:0", "random:7", "random:-1", "random:", "random:x"]),
    st.lists(st.integers(-20, 20).map(str), max_size=14).map(",".join),
    JUNK,
)
COCYCLE = st.one_of(
    st.tuples(st.sampled_from(["ebar", "phi"]), INDEX).map(":".join),
    st.tuples(INDEX, INDEX).map(lambda ij: "e:" + ",".join(ij)),
    JUNK,
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["dims", "basis", "extend", "sweep"]))
    if command == "sweep":
        argv = ["sweep", "--primes", ",".join(draw(st.lists(PRIME, min_size=1, max_size=3)))]
    else:
        argv = [command, "--prime", draw(PRIME)]
    argv += ["--lambda", draw(LAMBDA)]
    if command == "extend":
        argv += ["--cocycle", draw(COCYCLE)]
    if command == "basis" and draw(st.booleans()):
        argv += ["--restricted"]
    return argv


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_fuzzed_specs_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("error: ", "usage: ")), argv


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code = main(["dims"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    ("sweep --primes 9,4 --lambda ones", "9 is not prime"),
    ("dims --prime 4 --lambda ones", "4 is not prime"),
    ("basis --prime 6 --lambda random:-1", "6 is not prime"),
    ("iso --prime 5 --lambda all --lambda-prime 1,2",
     "this command needs a single lambda vector, not 'all'"),
    ("extend --prime 7 --lambda 1,2 --cocycle ebar:9",
     "lambda must have 7 entries for p=7, got 2"),
    ("dims --prime 5 --lambda ones --output {missing}", "bad lambda spec 'ones'"),
])
def test_first_failing_check_decides_the_message(argv, message, tmp_path, capsys):
    # every prime is checked before any lambda spec, and the lambda specs
    # before the cocycle and the output path
    argv = argv.format(missing=tmp_path / "missing" / "x").split()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_iso_classify_partitions_p3(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "3", "--lambda", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12 class(es) over 27 lambda vector(s)"
    assert lines[1] == "[[0,0,0]]"
    assert len(lines) == 13


def test_iso_classify_json_class_sizes(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "3", "--lambda", "all",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "classify"
    assert data["class_count"] == 12
    sizes = sorted(len(c) for c in data["classes"])
    assert sizes == [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4]
    assert [[0, 0, 0]] in data["classes"]


def test_iso_without_lambda_prime_classifies_single_vector(capsys):
    code, out, _ = run(capsys, "iso", "--prime", "5", "--lambda", "1,0,2,0,0")
    assert code == 0
    assert "1 class(es) over 1 lambda vector(s)" in out
    assert "[[1,0,2,0,0]]" in out


STARTUP_PROBE = (
    "import os, filicoh.cli\n"
    "threads = [l for l in open('/proc/self/status') if l.startswith('Threads:')]\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], threads[0], sep='\\n', end='')\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_cli_starts_numpy_with_one_blas_thread():
    # filicoh makes no BLAS call, so a fresh process runs one thread; a
    # user's own OPENBLAS_NUM_THREADS is left as it is
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def probe():
        return subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout.splitlines()

    assert probe() == ["1", "Threads:\t1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert probe()[0] == "2"


LOADED_PROBE = (
    "import contextlib, io, sys\n"
    "from filicoh import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, out.getvalue().splitlines()[-1])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('filicoh.')))\n"
)


def loaded_modules(*argv):
    """Exit code, last report line and the filicoh modules a fresh process
    holds after running the command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.splitlines()
    code, _, last = out[0].partition(" ")
    return int(code), last, {m.removeprefix("filicoh.") for m in out[1].split()}


def test_each_command_loads_only_the_modules_it_runs():
    code, last, loaded = loaded_modules("iso", "--prime", "7", "--lambda", "all")
    assert code == 0 and last.startswith("[[")
    assert not loaded & {"cohomology", "cochains", "restricted", "checks", "extensions"}
    assert loaded == {"cli", "gf", "isoclass"}
    # the random specs' notes print their vectors without the restricted module
    code, last, loaded = loaded_modules(
        "iso", "--prime", "7", "--lambda", "random:3", "--lambda-prime", "random:4"
    )
    assert (code, last) == (1, "not isomorphic")
    assert loaded == {"cli", "gf", "isoclass"}
    for argv in (["dims", "--prime", "5", "--lambda", "random:1"],
                 ["sweep", "--primes", "2,3", "--lambda", "all"]):
        code, last, loaded = loaded_modules(*argv)
        assert code == 0 and last.endswith("all pass")
        assert not loaded & {"checks", "extensions", "isoclass"}


# ---------------------------------------------------------------------------
# the seeded stream: numpy's generator is its oracle

STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200] + [
    [cli.CAP_SEED, p, lam_count] for p, lam_count in ((5, 201), (7, 201), (13, 1), (31, 1))
]
STREAM_PRIMES = (2, 3, 5, 7, 13, 31, 101)
# a span near 3 * 2^30: Lemire's rejection throws away about a quarter of
# the draws, so its loop runs
REJECTING_SPAN = 3 * 2**30 + 7


def assert_same_draws(ours, theirs, calls):
    for low, high, size in calls:
        got, want = ours.integers(low, high, size), theirs.integers(low, high, size)
        if size is None:
            assert type(got) is int and got == want
        else:
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
def test_seeded_stream_matches_numpy_draw_for_draw(seed):
    calls = [(0, REJECTING_SPAN, 64), (5, REJECTING_SPAN + 5, None), (0, 2**32, 3)]
    for p in STREAM_PRIMES:
        for low in (0, 1):
            # scalars between the arrays leave the buffered half of a 64-bit
            # output to the next call; (1, 2) draws nothing at all
            calls += [(low, p, None), (low, p, p), (low, p, None), (low, p, (3, p))]
    assert_same_draws(cli.SeededStream(seed), np.random.default_rng(seed), calls)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**256) | st.lists(st.integers(0, 2**70), min_size=1, max_size=7),
    calls=st.lists(
        st.tuples(
            st.integers(0, 2**31),
            st.integers(1, 200) | st.integers(1, 2**31),
            st.sampled_from([None, 1, 7, (2, 5), (0,)]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_seeded_stream_matches_numpy_on_any_seed_and_bounds(seed, calls):
    calls = [(low, low + span, size) for low, span, size in calls]
    assert_same_draws(cli.SeededStream(seed), np.random.default_rng(seed), calls)


@pytest.mark.parametrize("low, high", [(-1, 5), (3, 3), (5, 2), (0, 2**32 + 1), (2**32, 2**33)])
def test_seeded_stream_refuses_bounds_numpy_draws_otherwise(low, high):
    with pytest.raises(ValueError, match="0 <= low < high <= 2"):
        cli.SeededStream(0).integers(low, high)


def test_seeded_stream_refuses_a_negative_seed():
    for seed in (-1, [0, -1]):
        with pytest.raises(ValueError, match="non-negative"):
            cli.SeededStream(seed)


NUMPY_RANDOM_PROBE = (
    "import contextlib, io, sys\n"
    "from filicoh import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, 'numpy.random' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        ("dims --lambda random:1 --prime 7", 0),
        ("dims --prime 5 --lambda all", 0),
        ("sweep --primes 2,3,5,7 --lambda random:5", 0),
        ("verify --prime 5 --lambda all", 0),
        ("iso --prime 5 --lambda all", 0),
        ("iso --prime 7 --lambda random:3 --lambda-prime random:4", 1),
        ("basis --prime 7 --lambda random:2", 0),
        ("extend --prime 7 --lambda random:2 --cocycle ebar:3", 0),
    ],
)
def test_no_command_loads_numpy_random(argv, code):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE, *argv.split()], env=env,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == f"{code} False\n"


def test_no_source_file_names_numpy_random():
    src = Path(cli.__file__).resolve().parent
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "numpy.random" not in text and "np.random" not in text, path.name
        assert "default_rng" not in text, path.name
