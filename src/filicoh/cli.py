"""Command-line front end: dims, basis, verify, iso, extend, sweep.

Every command resolves a (prime, lambda) grid from its flags, runs the
requested computation, and emits one report to stdout (and to --output
when given).  Identical flags, including any random seed, produce
byte-identical output; exit codes are 0 for success, 1 for a
verification mismatch, and 2 for a usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import cochains, cohomology, extensions, gf, isoclass, liealg, restricted
from . import restricted_cochains as rcoch

# master seed for the capped "all" enumeration; echoed in every report
# that uses it so runs are replayable
CAP_SEED = 0
CAP_SAMPLES = 200
# expensive per-lambda checks run on at most this many vectors
VERIFY_SAMPLE_CAP = 20

# Grids run in one thread and nothing here uses an executor.  The name is
# kept because bench/spans.py rebinds cli.ThreadPoolExecutor when it
# installs its tracer; drop it together with that line.
ThreadPoolExecutor = object


class UsageError(Exception):
    """Bad flag value or malformed spec; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    primes: tuple[int, ...]
    lambda_spec: str = "zero"
    fmt: str = "table"
    output: str | None = None
    degree: int = 2
    restricted: bool = False
    lambda_prime_spec: str | None = None
    cocycle: str | None = None
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# lambda spec resolution


def _parse_prime(text) -> int:
    try:
        p = int(text)
    except (TypeError, ValueError):
        raise UsageError(f"{text!r} is not an integer prime")
    if not gf.is_prime(p):
        raise UsageError(f"{p} is not prime")
    return p


def _random_lambda(rng, p) -> tuple[int, ...]:
    # nonzero by rejection; deterministic given the generator state
    while True:
        lam = tuple(int(x) for x in rng.integers(0, p, size=p))
        if any(lam):
            return lam


def resolve_lambdas(p: int, spec: str) -> tuple[list[tuple[int, ...]], str | None]:
    """Expand a lambda spec into vectors, plus an echo note when seeded.

    "zero" is the null vector; "all" enumerates every vector for p <= 3
    and otherwise caps to the null vector, the one-hot vectors, and
    seeded random vectors (CAP_SAMPLES nonzero vectors in total);
    "random:SEED" draws one seeded nonzero vector; anything else must be
    a comma-separated residue list of length p.
    """
    if spec == "zero":
        return [(0,) * p], None
    if spec == "all":
        if p <= 3:
            return list(itertools.product(range(p), repeat=p)), None
        rng = np.random.default_rng(CAP_SEED)
        out = [(0,) * p]
        seen = set(out)
        for k in range(p):
            one_hot = tuple(int(i == k) for i in range(p))
            out.append(one_hot)
            seen.add(one_hot)
        while len(out) < CAP_SAMPLES + 1:
            lam = _random_lambda(rng, p)
            if lam not in seen:
                out.append(lam)
                seen.add(lam)
        note = (
            f"lambda=all capped for p={p}: zero + one-hot + seeded random, "
            f"{len(out) - 1} nonzero vectors, seed {CAP_SEED}"
        )
        return out, note
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad random seed in lambda spec {spec!r}")
        if seed < 0:
            raise UsageError(f"random seed must be non-negative in lambda spec {spec!r}")
        lam = _random_lambda(np.random.default_rng(seed), p)
        note = f"lambda=random seed {seed} -> {lam_str(lam)}"
        return [lam], note
    try:
        lam = tuple(int(x) % p for x in spec.split(","))
    except ValueError:
        raise UsageError(f"bad lambda spec {spec!r}")
    if len(lam) != p:
        raise UsageError(f"lambda must have {p} entries for p={p}, got {len(lam)}")
    return [lam], None


def lam_str(lam) -> str:
    return ",".join(str(int(x)) for x in lam)


# ---------------------------------------------------------------------------
# shared computation and emission helpers


GROUP_NAMES = ("H1", "H1+", "H2", "H2+")


def group_summaries(p, lam):
    """All four cohomology summaries for one family member."""
    A = liealg.make_m0(p)
    R = restricted.make_m0_lambda(p, lam)
    return {
        "H1": cohomology.h1(A),
        "H1+": cohomology.h1_star(R),
        "H2": cohomology.h2(A),
        "H2+": cohomology.h2_star(R),
    }


def dims_row(p, lam) -> dict:
    """Computed vs expected dimensions for one (p, lambda)."""
    summaries = group_summaries(p, lam)
    expected = cohomology.expected_summary(p, lam)
    groups = {}
    ok = True
    for name, s in summaries.items():
        entry = expected.entry(s.degree, s.restricted)
        report = cohomology.compare(s, expected)
        groups[name] = {
            "computed": s.dimension,
            "expected": entry.dimension,
            "ok": report["ok"],
        }
        ok = ok and report["ok"]
    return {"prime": p, "lambda": list(lam), "groups": groups, "ok": ok}


def _dims_table(rows, notes) -> str:
    lines = [f"# {n}" for n in notes]
    for row in rows:
        cells = []
        for name in GROUP_NAMES:
            g = row["groups"][name]
            shown = str(g["computed"]) if g["ok"] else f"{g['computed']}!={g['expected']}"
            cells.append(f"{name}={shown}")
        status = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"p={row['prime']} {' '.join(cells)} {status} lambda={lam_str(row['lambda'])}"
        )
    bad = sum(1 for r in rows if not r["ok"])
    lines.append(
        f"{len(rows)} case(s): all pass" if not bad else f"{len(rows)} case(s): {bad} FAILED"
    )
    return "\n".join(lines) + "\n"


def emit(cfg: RunConfig, text: str) -> None:
    sys.stdout.write(text)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(cfg, payload, table_text) -> None:
    if cfg.fmt == "json":
        emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        emit(cfg, table_text)


# ---------------------------------------------------------------------------
# dims and sweep


def _grid_rows(cfg) -> tuple[list[dict], list[str]]:
    cases = []
    notes = list(cfg.notes)
    for p in cfg.primes:
        lams, note = resolve_lambdas(p, cfg.lambda_spec)
        if note:
            notes.append(note)
        cases.extend((p, lam) for lam in lams)
    rows = [dims_row(p, lam) for p, lam in cases]
    rows.sort(key=lambda r: (r["prime"], tuple(r["lambda"])))
    return rows, notes


def run_dims(cfg: RunConfig) -> int:
    rows, notes = _grid_rows(cfg)
    ok = all(r["ok"] for r in rows)
    payload = {"command": cfg.command, "notes": notes, "rows": rows, "ok": ok}
    _emit_report(cfg, payload, _dims_table(rows, notes))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# basis


def run_basis(cfg: RunConfig) -> int:
    (p,) = cfg.primes
    lams, note = resolve_lambdas(p, cfg.lambda_spec)
    notes = list(cfg.notes)
    if note:
        notes.append(note)
    name = f"H{cfg.degree}{'+' if cfg.restricted else ''}"
    ok = True
    lines = [f"# {n}" for n in notes]
    rows = []
    for lam in lams:
        A = liealg.make_m0(p)
        if cfg.restricted:
            R = restricted.make_m0_lambda(p, lam)
            s = cohomology.h1_star(R) if cfg.degree == 1 else cohomology.h2_star(R)
        else:
            s = cohomology.h1(A) if cfg.degree == 1 else cohomology.h2(A)
        report = cohomology.compare(s, cohomology.expected_summary(p, lam))
        ok = ok and report["ok"]
        rows.append({**cohomology.summary_to_json(s), "ok": report["ok"]})
        lines.append(f"{name} basis, p={p}, lambda={lam_str(lam)} (dim {s.dimension})")
        for rep in s.representatives:
            lines.append(f"  {rep}")
    payload = {"command": "basis", "group": name, "notes": notes, "rows": rows, "ok": ok}
    _emit_report(cfg, payload, "\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def _random_cocycle(rng, p):
    """A degree-2 cocycle: span of the closed generators plus a coboundary."""
    A = liealg.make_m0(p)
    phi = int(rng.integers(0, p)) * cochains.dual_cochain(p, p, (1, p))
    for k in cochains.phi_weights(p):
        phi = phi + int(rng.integers(0, p)) * cochains.phi_k(p, k)
    psi = cochains.Cochain(
        p, p, 1, {(k,): int(rng.integers(0, p)) for k in range(1, p + 1)}
    )
    return phi + cochains.d1(A, psi)


def _check(checks, name, ok, detail="", info=False):
    checks.append({"name": name, "ok": bool(ok), "detail": detail, "info": info})


def _verify_prime_checks(p, checks, rng):
    A = liealg.make_m0(p)
    ok, _ = liealg.jacobi_check(A)
    _check(checks, "jacobi identity", ok)

    n = 20
    ok = True
    for _ in range(n):
        g = gf.normalize(rng.integers(0, p, size=p), p)
        h = gf.normalize(rng.integers(0, p, size=p), p)
        if (A.bracket(g, h) != liealg.bracket_closed_m0(p, g, h)).any():
            ok = False
    _check(checks, "bracket closed form", ok, f"{n} random pairs")

    ok = all(
        cochains.d1(A, cochains.dual_cochain(p, p, (k,))) == cochains.d1_closed_m0(p, k)
        for k in range(1, p + 1)
    )
    _check(checks, "degree-1 differential closed form", ok, "all duals")

    pairs = cochains.index_tuples(p, 2)
    ok = all(
        cochains.d2(A, cochains.dual_cochain(p, p, pair))
        == cochains.d2_closed_m0_corrected(p, *pair)
        for pair in pairs
    )
    _check(checks, "degree-2 differential closed form (corrected)", ok, "all dual pairs")

    deviant = [
        pair
        for pair in pairs
        if cochains.d2(A, cochains.dual_cochain(p, p, pair))
        != cochains.d2_closed_m0_printed(p, *pair)
    ]
    detail = (
        f"printed variant deviates from the generic differential on "
        f"{len(deviant)} of {len(pairs)} dual pairs"
    )
    if deviant:
        detail += f", first at e^{{{deviant[0][0]},{deviant[0][1]}}}"
    _check(checks, "degree-2 closed form as printed", True, detail, info=True)

    ok = all(
        cochains.d2(A, cochains.d1(A, cochains.dual_cochain(p, p, (k,)))).is_zero()
        for k in range(1, p + 1)
    )
    _check(checks, "complex identity d2(d1(psi)) = 0", ok, "all duals")


def _verify_lambda_cheap(p, lams, checks, rng):
    bad_power = bad_complex = bad_dims = 0
    for lam in lams:
        R = restricted.make_m0_lambda(p, lam)
        for _ in range(3):
            g = gf.normalize(rng.integers(0, p, size=p), p)
            if (restricted.p_power_jacobson(R, g) != restricted.p_power_closed(R, g)).any():
                bad_power += 1
        for k in range(1, p + 1):
            psi = cochains.dual_cochain(p, p, (k,))
            if not rcoch.d2_star(R, rcoch.d1_star(R, psi)).is_zero():
                bad_complex += 1
        if not dims_row(p, lam)["ok"]:
            bad_dims += 1
    cover = f"{len(lams)} lambda vector(s)"
    _check(checks, "p-power recursion vs closed form", bad_power == 0, f"{cover}, 3 samples each")
    _check(checks, "restricted complex identity", bad_complex == 0, f"{cover}, all duals")
    _check(checks, "dimension table", bad_dims == 0, cover)


def _verify_lambda_sampled(p, lams, checks, rng):
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
        phi = _random_cocycle(rng, p)
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
        if p <= 31:
            mu1 = int(rng.integers(1, p)) if p > 2 else 1
            mu2 = int(rng.integers(1, p)) if p > 2 else 1
            other = isoclass.proof_transform(p, lam, mu1, mu2)
            if isoclass.iso_bruteforce(p, other, lam) is None:
                bad_prop += 1
    _check(checks, "omega sum rule on induced and cocycle pairs", bad_star == 0, cover)
    _check(checks, "induced omega matches psi of the p-power", bad_ind1 == 0, cover)
    _check(checks, "beta sum rule on induced triples", bad_dstar == 0, f"{cover}, 3 triples each")
    _check(checks, "central extensions verify and stay trivial", bad_ext == 0, cover)
    _check(checks, "diagonal search confirms transformed vectors", bad_prop == 0, cover)
    return sample


def _verify_proposition_report(p, lams, checks, rng):
    if p > 31:
        return
    agree = total = 0
    first_disagreement = None
    for lam in lams[:VERIFY_SAMPLE_CAP]:
        lam2 = tuple(int(x) for x in rng.integers(0, p, size=p))
        rep = isoclass.proposition_formula_check(p, lam, lam2)
        total += 1
        if rep["agree"]:
            agree += 1
        elif first_disagreement is None:
            first_disagreement = (lam, lam2)
    detail = f"condition-set comparison: {agree}/{total} verdicts agree"
    if first_disagreement:
        a, b = first_disagreement
        detail += f", first disagreement at lambda={lam_str(a)} vs {lam_str(b)}"
    _check(checks, "closed condition set vs diagonal search", True, detail, info=True)


def _p2_basis_table(lams) -> list[str]:
    lines = ["basis table for p=2 (restricted groups depend on lambda):"]
    for lam in lams:
        summaries = group_summaries(2, lam)
        h1s = ", ".join(str(r) for r in summaries["H1+"].representatives)
        h2s = ", ".join(str(r) for r in summaries["H2+"].representatives)
        lines.append(f"  lambda={lam_str(lam)}: H1+ = [{h1s}]; H2+ = [{h2s}]")
    return lines


def run_verify(cfg: RunConfig) -> int:
    (p,) = cfg.primes
    lams, note = resolve_lambdas(p, cfg.lambda_spec)
    notes = list(cfg.notes)
    if note:
        notes.append(note)
    rng = np.random.default_rng([CAP_SEED, p, len(lams)])
    checks: list[dict] = []
    _verify_prime_checks(p, checks, rng)
    _verify_lambda_cheap(p, lams, checks, rng)
    _verify_lambda_sampled(p, lams, checks, rng)
    _verify_proposition_report(p, lams, checks, rng)

    hard = [c for c in checks if not c["info"]]
    ok = all(c["ok"] for c in hard)
    lines = [f"# {n}" for n in notes]
    lines.append(f"verify p={p}, {len(lams)} lambda vector(s)")
    for c in checks:
        tag = "info" if c["info"] else ("ok" if c["ok"] else "FAIL")
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"  {tag:4s} {c['name']}{detail}")
    if p == 2:
        lines.extend(_p2_basis_table(lams))
    informational = sum(1 for c in checks if c["info"])
    lines.append(
        f"verify result: {'pass' if ok else 'FAIL'} "
        f"({len(hard)} checks, {informational} informational)"
    )
    payload = {
        "command": "verify",
        "prime": p,
        "notes": notes,
        "lambda_count": len(lams),
        "checks": checks,
        "ok": ok,
    }
    _emit_report(cfg, payload, "\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# iso


def _single_lambda(p, spec, notes):
    lams, note = resolve_lambdas(p, spec)
    if note:
        notes.append(note)
    if len(lams) != 1:
        raise UsageError("this command needs a single lambda vector, not 'all'")
    return lams[0]


def _run_iso_classify(cfg: RunConfig, p: int, notes: list[str]) -> int:
    """Partition the selected lambda set into graded isomorphism classes."""
    lams, note = resolve_lambdas(p, cfg.lambda_spec)
    if note:
        notes.append(note)
    try:
        classes = isoclass.partition_classes(p, lams)
    except ValueError as exc:
        raise UsageError(str(exc))
    as_lists = [[list(lam) for lam in cls] for cls in classes]
    lines = [f"# {n}" for n in notes]
    lines.append(f"{len(classes)} class(es) over {len(lams)} lambda vector(s)")
    lines.extend(json.dumps(cls, separators=(",", ":")) for cls in as_lists)
    payload = {
        "command": "iso",
        "mode": "classify",
        "prime": p,
        "lambda_count": len(lams),
        "class_count": len(classes),
        "classes": as_lists,
        "notes": notes,
    }
    _emit_report(cfg, payload, "\n".join(lines) + "\n")
    return 0


def run_iso(cfg: RunConfig) -> int:
    (p,) = cfg.primes
    notes = list(cfg.notes)
    if cfg.lambda_prime_spec is None:
        return _run_iso_classify(cfg, p, notes)
    lam = _single_lambda(p, cfg.lambda_spec, notes)
    lam2 = _single_lambda(p, cfg.lambda_prime_spec, notes)
    try:
        report = isoclass.proposition_formula_check(p, lam, lam2)
        witness = isoclass.iso_bruteforce(p, lam, lam2)
    except ValueError as exc:
        raise UsageError(str(exc))
    lines = [f"# {n}" for n in notes]
    lines.append(f"isomorphic, {witness}" if witness else "not isomorphic")
    payload = {**report, "command": "iso", "notes": notes}
    _emit_report(cfg, payload, "\n".join(lines) + "\n")
    return 0 if witness else 1


# ---------------------------------------------------------------------------
# extend


def parse_cocycle_spec(p: int, spec: str) -> rcoch.RestrictedTwoCochain:
    """ebar:K -> (0, ebar^K); e:I,J -> (e^{I,J}, 0); phi:K -> (phi_K, 0)."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "ebar":
            k = int(rest)
            if not 1 <= k <= p:
                raise UsageError(f"ebar index must be in 1..{p}")
            return rcoch.frobenius_dual_cochain(p, p, k)
        if kind == "e":
            i, j = (int(x) for x in rest.split(","))
            return rcoch.basis_pair_cochain(p, p, i, j)
        if kind == "phi":
            return rcoch.RestrictedTwoCochain(cochains.phi_k(p, int(rest)), (0,) * p)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad cocycle spec {spec!r}: {exc}")
    raise UsageError(f"unknown cocycle kind {kind!r}; use ebar:K, e:I,J or phi:K")


def run_extend(cfg: RunConfig) -> int:
    (p,) = cfg.primes
    notes = list(cfg.notes)
    lam = _single_lambda(p, cfg.lambda_spec, notes)
    if not cfg.cocycle:
        raise UsageError("extend requires --cocycle")
    c2 = parse_cocycle_spec(p, cfg.cocycle)
    R = restricted.make_m0_lambda(p, lam)
    try:
        result = extensions.extend_restricted(R, c2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = extensions.extension_to_json(result)
    if notes:
        payload["notes"] = notes
    emit(cfg, json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep


def run_sweep(cfg: RunConfig) -> int:
    return run_dims(cfg)


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filicoh",
        description="Exact cohomology of the restricted maximal-class family over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, primes=False):
        if primes:
            sp.add_argument("--primes", required=True, help="comma-separated primes")
        else:
            sp.add_argument("--prime", required=True, help="prime p")
        sp.add_argument("--lambda", dest="lambda_spec", default="zero",
                        help="p residues, 'zero', 'all', or 'random:SEED'")
        sp.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
        sp.add_argument("--output", default=None, help="also write the report to this file")

    common(sub.add_parser("dims", help="computed vs expected dimensions"))
    sp = sub.add_parser("basis", help="representative cocycles")
    common(sp)
    sp.add_argument("--degree", type=int, choices=(1, 2), default=2)
    sp.add_argument("--restricted", action="store_true")
    common(sub.add_parser("verify", help="full invariant suite"))
    sp = sub.add_parser("iso", help="diagonal isomorphism test")
    common(sp)
    sp.add_argument(
        "--lambda-prime",
        dest="lambda_prime_spec",
        help="second vector for a pairwise test; omit to partition --lambda into classes",
    )
    sp = sub.add_parser("extend", help="one-dimensional central extension")
    common(sp)
    sp.add_argument("--cocycle", required=True, help="ebar:K, e:I,J or phi:K")
    common(sub.add_parser("sweep", help="dims over a prime grid"), primes=True)
    return parser


def config_from_args(ns) -> RunConfig:
    if ns.command == "sweep":
        primes = tuple(_parse_prime(x) for x in ns.primes.split(","))
        if not primes:
            raise UsageError("sweep needs at least one prime")
    else:
        primes = (_parse_prime(ns.prime),)
    return RunConfig(
        command=ns.command,
        primes=primes,
        lambda_spec=ns.lambda_spec,
        fmt=ns.fmt,
        output=ns.output,
        degree=getattr(ns, "degree", 2),
        restricted=getattr(ns, "restricted", False),
        lambda_prime_spec=getattr(ns, "lambda_prime_spec", None),
        cocycle=getattr(ns, "cocycle", None),
    )


COMMANDS = {
    "dims": run_dims,
    "basis": run_basis,
    "verify": run_verify,
    "iso": run_iso,
    "extend": run_extend,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(ns)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
