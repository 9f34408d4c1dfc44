"""End-to-end CLI behavior: flags, reports, exit codes, determinism."""

import json

import pytest

from filicoh import cli
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
    # the same refusal classify mode gives
    assert run(capsys, "iso", "--prime", "37", "--lambda", "all") == (2, "", err)


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


# ---------------------------------------------------------------------------
# sweep


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


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code = main(["dims"])
    capsys.readouterr()
    assert code == 2


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
