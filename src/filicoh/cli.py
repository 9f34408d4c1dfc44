"""Command-line front end: dims, basis, verify, iso, extend, sweep.

Every command resolves a (prime, lambda) grid from its flags, runs the
requested computation, and emits one report to stdout (and to --output
when given).  Identical flags, including any random seed, produce
byte-identical output; exit codes are 0 for success, 1 for a
verification mismatch, and 2 for a usage or input error.  Seeded draws
come from SeededStream, numpy's default generator stream computed in
plain Python: no command imports numpy's random module, and a test pins
the stream to numpy's generator draw for draw.

Only what every command needs is imported here.  Each run function
imports the modules it runs, so a fresh `iso` process loads `gf` and
`isoclass` alone, and `dims` and `sweep` load no `checks`, `extensions`
or `isoclass`.  A run function imports first, its helpers' modules too,
before it allocates anything: a module loaded in the middle of a run
raised the peak RSS of `verify` and `sweep` by up to 0.6 MB.  Functions
are looked up on their modules at each call, so a tracer that rebinds a
module attribute reaches every command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import gf

# master seed for the capped "all" enumeration; echoed in every report
# that uses it so runs are replayable
CAP_SEED = 0
CAP_SAMPLES = 200

# Grids run in one thread and nothing here uses an executor.  The name is
# kept because bench/spans.py rebinds cli.ThreadPoolExecutor when it
# installs its tracer; drop it together with that line.
ThreadPoolExecutor = object


class UsageError(Exception):
    """Bad flag value or malformed spec; maps to exit code 2."""


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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(seed) -> list[int]:
    """A non-negative int as little-endian 32-bit words, a list of them
    concatenated, as numpy's SeedSequence reads its entropy."""
    if not isinstance(seed, int):
        return [w for part in seed for w in _uint32_words(part)]
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _seed_state(seed) -> tuple[int, int]:
    """The PCG64 (state, increment) numpy's default generator starts from:
    SeedSequence hashes the seed's words into a 4-word pool and draws 8
    words from it, the first 128 bits seeding the state and the next the
    stream."""
    words = _uint32_words(seed)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    high, low, inc_high, inc_low = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    # PCG's srandom: one step from state 0, add the seed, one more step
    return ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128, inc


class SeededStream:
    """numpy's default generator stream, computed without numpy's random
    module.

    The seed, an int or a list of ints, goes through SeedSequence into a
    PCG64 generator (XSL-RR output over a 128-bit LCG, O'Neill 2014);
    each 64-bit output serves two 32-bit draws, low half first, the high
    half kept for the next draw even across calls; a bound is met by
    Lemire's rejection (ACM TOMACS 2019).  So integers(low, high, size)
    returns what numpy's Generator(PCG64(seed)).integers(low, high, size)
    would, draw for draw (tests/test_cli.py holds numpy's generator as the
    oracle), without the import of numpy's random module, which costs a
    fresh process about 10 ms and 5.6 MB of RSS.
    """

    def __init__(self, seed):
        self._state, self._inc = _seed_state(seed)
        self._half = None  # the buffered upper 32 bits, if any

    def integers(self, low: int, high: int, size=None):
        """Uniform ints in [low, high): one int when size is None, else an
        int64 array of that shape.  numpy draws 64-bit words for spans
        above 2^32, so those bounds are refused."""
        if not 0 <= low < high <= 1 << 32:
            raise ValueError(f"bounds must satisfy 0 <= low < high <= 2^32, got [{low}, {high})")
        count = 1 if size is None else int(np.prod(size))
        span = high - low
        if span == 1:  # numpy draws nothing for a single value
            out = [low] * count
        else:
            threshold = (1 << 32) % span
            state, inc, half = self._state, self._inc, self._half
            out = []
            for _ in range(count):
                while True:
                    if half is None:
                        state = (state * _PCG_MULT + inc) & _MASK128
                        word = (state >> 64 ^ state) & _MASK64
                        rot = state >> 122
                        word = (word >> rot | word << (64 - rot)) & _MASK64
                        word, half = word & _MASK32, word >> 32
                    else:
                        word, half = half, None
                    scaled = word * span
                    if scaled & _MASK32 >= threshold:
                        break
                out.append(low + (scaled >> 32))
            self._state, self._half = state, half
        if size is None:
            return out[0]
        return np.array(out, dtype=np.int64).reshape(size)


def _random_lambda(rng, p) -> tuple[int, ...]:
    """A nonzero vector of p residues from rng, a SeededStream: p draws
    per try, retried until nonzero, so the stream's state decides it."""
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
        rng = SeededStream(CAP_SEED)
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
        lam = _random_lambda(SeededStream(seed), p)
        note = f"lambda=random seed {seed} -> {gf.vector_str(lam)}"
        return [lam], note
    try:
        lam = tuple(int(x) % p for x in spec.split(","))
    except ValueError:
        raise UsageError(f"bad lambda spec {spec!r}")
    if len(lam) != p:
        raise UsageError(f"lambda must have {p} entries for p={p}, got {len(lam)}")
    return [lam], None


# ---------------------------------------------------------------------------
# shared computation and emission helpers


# the four groups by report name, each read from the cohomology module and
# a family member R; the module attributes are looked up per call, so a
# tracer's rebinding reaches them
GROUP_NAMES = {
    "H1": lambda cohomology, R: cohomology.h1(R.algebra),
    "H1+": lambda cohomology, R: cohomology.h1_star(R),
    "H2": lambda cohomology, R: cohomology.h2(R.algebra),
    "H2+": lambda cohomology, R: cohomology.h2_star(R),
}


def group_summaries(p, lam):
    """All four cohomology summaries for one family member."""
    from . import cohomology, restricted

    R = restricted.Family(p, lam)
    return {name: summary(cohomology, R) for name, summary in GROUP_NAMES.items()}


def dims_row(p, lam) -> dict:
    """Computed vs closed-form dimensions for one (p, lambda)."""
    from . import cohomology

    groups = {
        name: {
            "computed": s.dimension,
            "expected": cohomology.closed_form(p, lam, s.degree, s.restricted)[0],
            "ok": cohomology.compare(s, p, lam),
        }
        for name, s in group_summaries(p, lam).items()
    }
    ok = all(g["ok"] for g in groups.values())
    return {"prime": p, "lambda": list(lam), "groups": groups, "ok": ok}


def _lambdas(p, spec, notes) -> list[tuple[int, ...]]:
    """resolve_lambdas(p, spec), its note, if any, appended to notes."""
    lams, note = resolve_lambdas(p, spec)
    if note:
        notes.append(note)
    return lams


def _single_lambda(p, spec, notes):
    lams = _lambdas(p, spec, notes)
    if len(lams) != 1:
        raise UsageError("this command needs a single lambda vector, not 'all'")
    return lams[0]


def emit(ns, text: str) -> None:
    """Write the report to --output, if given, then to stdout, so that an
    unwritable path prints nothing."""
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {ns.output}: {exc.strerror or exc}")
    sys.stdout.write(text)


def _emit_report(ns, payload, lines) -> None:
    """The payload as JSON, or a table: one `# note` line per payload note,
    then the report lines."""
    if ns.fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join([f"# {n}" for n in payload["notes"]] + lines)
    emit(ns, text + "\n")


# ---------------------------------------------------------------------------
# dims and sweep


def _dims_table(rows) -> list[str]:
    lines = []
    for row in rows:
        cells = []
        for name in GROUP_NAMES:
            g = row["groups"][name]
            shown = str(g["computed"]) if g["ok"] else f"{g['computed']}!={g['expected']}"
            cells.append(f"{name}={shown}")
        status = "ok" if row["ok"] else "FAIL"
        lam = gf.vector_str(row["lambda"])
        lines.append(f"p={row['prime']} {' '.join(cells)} {status} lambda={lam}")
    bad = sum(1 for r in rows if not r["ok"])
    lines.append(
        f"{len(rows)} case(s): all pass" if not bad else f"{len(rows)} case(s): {bad} FAILED"
    )
    return lines


def run_dims(ns) -> int:
    """dims at --prime, or sweep over --primes; every prime is parsed
    before any lambda spec is resolved."""
    from . import cohomology  # noqa: F401  dims_row's, loaded before the run allocates

    texts = ns.primes.split(",") if ns.command == "sweep" else [ns.prime]
    primes = [_parse_prime(x) for x in texts]
    notes = []
    cases = [(p, lam) for p in primes for lam in _lambdas(p, ns.lambda_spec, notes)]
    rows = sorted(
        (dims_row(p, lam) for p, lam in cases), key=lambda r: (r["prime"], tuple(r["lambda"]))
    )
    ok = all(r["ok"] for r in rows)
    payload = {"command": ns.command, "notes": notes, "rows": rows, "ok": ok}
    _emit_report(ns, payload, _dims_table(rows))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# basis


def run_basis(ns) -> int:
    from . import cohomology, restricted

    p = _parse_prime(ns.prime)
    notes = []
    lams = _lambdas(p, ns.lambda_spec, notes)
    name = f"H{ns.degree}{'+' if ns.restricted else ''}"
    lines = []
    rows = []
    for lam in lams:
        s = GROUP_NAMES[name](cohomology, restricted.Family(p, lam))
        rows.append({**cohomology.summary_to_json(s), "ok": cohomology.compare(s, p, lam)})
        lines.append(f"{name} basis, p={p}, lambda={gf.vector_str(lam)} (dim {s.dimension})")
        lines += [f"  {rep}" for rep in rows[-1]["representatives"]]
    ok = all(row["ok"] for row in rows)
    payload = {"command": "basis", "group": name, "notes": notes, "rows": rows, "ok": ok}
    _emit_report(ns, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def _p2_basis_table(lams) -> list[str]:
    lines = ["basis table for p=2 (restricted groups depend on lambda):"]
    for lam in lams:
        summaries = group_summaries(2, lam)
        h1s = ", ".join(str(r) for r in summaries["H1+"].representatives)
        h2s = ", ".join(str(r) for r in summaries["H2+"].representatives)
        lines.append(f"  lambda={gf.vector_str(lam)}: H1+ = [{h1s}]; H2+ = [{h2s}]")
    return lines


def run_verify(ns) -> int:
    from . import checks, cohomology  # noqa: F401  cohomology is dims_row's

    p = _parse_prime(ns.prime)
    notes = []
    lams = _lambdas(p, ns.lambda_spec, notes)
    rng = SeededStream([CAP_SEED, p, len(lams)])
    records: list[dict] = []
    identity = checks.prime_checks(p, records, rng)
    checks.lambda_checks(p, lams, identity, records, rng)
    bad_dims = sum(1 for lam in lams if not dims_row(p, lam)["ok"])
    checks.record(records, "dimension table", bad_dims == 0, f"{len(lams)} lambda vector(s)")
    checks.sampled_checks(p, lams, identity, records, rng)
    checks.proposition_report(p, lams, records, rng)

    hard = [c for c in records if not c["info"]]
    ok = all(c["ok"] for c in hard)
    lines = [f"verify p={p}, {len(lams)} lambda vector(s)"]
    for c in records:
        tag = "info" if c["info"] else ("ok" if c["ok"] else "FAIL")
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"  {tag:4s} {c['name']}{detail}")
    if p == 2:
        lines.extend(_p2_basis_table(lams))
    informational = sum(1 for c in records if c["info"])
    lines.append(
        f"verify result: {'pass' if ok else 'FAIL'} "
        f"({len(hard)} checks, {informational} informational)"
    )
    payload = {
        "command": "verify",
        "prime": p,
        "notes": notes,
        "lambda_count": len(lams),
        "checks": records,
        "ok": ok,
    }
    _emit_report(ns, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# iso


def _run_iso_classify(ns, p: int) -> int:
    """Partition the selected lambda set into graded isomorphism classes."""
    from . import isoclass

    notes = []
    lams = _lambdas(p, ns.lambda_spec, notes)
    try:
        classes = isoclass.partition_classes(p, lams)
    except ValueError as exc:
        raise UsageError(str(exc))
    as_lists = [[list(lam) for lam in cls] for cls in classes]
    lines = [f"{len(classes)} class(es) over {len(lams)} lambda vector(s)"]
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
    _emit_report(ns, payload, lines)
    return 0


def run_iso(ns) -> int:
    p = _parse_prime(ns.prime)
    if ns.lambda_prime_spec is None:
        return _run_iso_classify(ns, p)
    from . import isoclass

    notes = []
    lam = _single_lambda(p, ns.lambda_spec, notes)
    lam2 = _single_lambda(p, ns.lambda_prime_spec, notes)
    try:
        report = isoclass.proposition_formula_check(p, lam, lam2)
    except ValueError as exc:
        raise UsageError(str(exc))
    witness = report["bruteforce_witness"]
    line = "isomorphic, mu1={}, mu2={}".format(*witness) if witness else "not isomorphic"
    _emit_report(ns, {**report, "command": "iso", "notes": notes}, [line])
    return 0 if witness else 1


# ---------------------------------------------------------------------------
# extend


def parse_cocycle_spec(p: int, spec: str):
    """ebar:K -> (0, ebar^K); e:I,J -> (e^{I,J}, 0); phi:K -> (phi_K, 0),
    as a restricted_cochains.RestrictedTwoCochain."""
    from . import cochains
    from . import restricted_cochains as rcoch

    kind, _, rest = spec.partition(":")
    try:
        if kind == "ebar":
            k = int(rest)
            if not 1 <= k <= p:
                raise UsageError(f"ebar index must be in 1..{p}")
            return rcoch.frobenius_dual_cochain(p, p, k)
        if kind == "e":
            i, j = (int(x) for x in rest.split(","))
            if i == j:
                raise UsageError(f"e:I,J needs two different indices, got {spec!r}")
            return rcoch.basis_pair_cochain(p, p, i, j)
        if kind == "phi":
            return rcoch.RestrictedTwoCochain(cochains.phi_k(p, int(rest)), (0,) * p)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad cocycle spec {spec!r}: {exc}")
    raise UsageError(f"unknown cocycle kind {kind!r}; use ebar:K, e:I,J or phi:K")


def run_extend(ns) -> int:
    from . import extensions, restricted

    p = _parse_prime(ns.prime)
    notes = []
    lam = _single_lambda(p, ns.lambda_spec, notes)
    if not ns.cocycle:
        raise UsageError("extend requires --cocycle")
    c2 = parse_cocycle_spec(p, ns.cocycle)
    R = restricted.Family(p, lam)
    try:
        RE = extensions.extend_restricted(R, c2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = extensions.extension_to_json(RE, str(c2))
    if notes:
        payload["notes"] = notes
    _emit_report(ns, payload, [])
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filicoh",
        description="Exact cohomology of the restricted maximal-class family over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, primes=False, formats=("table", "json")):
        sp = sub.add_parser(name, help=help)
        if primes:
            sp.add_argument("--primes", required=True, help="comma-separated primes")
        else:
            sp.add_argument("--prime", required=True, help="prime p")
        sp.add_argument("--lambda", dest="lambda_spec", default="zero",
                        help="p residues, 'zero', 'all', or 'random:SEED'")
        sp.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        sp.add_argument("--output", default=None, help="also write the report to this file")
        sp.set_defaults(run=run)
        return sp

    command("dims", "computed vs expected dimensions", run_dims)
    sp = command("basis", "representative cocycles", run_basis)
    sp.add_argument("--degree", type=int, choices=(1, 2), default=2)
    sp.add_argument("--restricted", action="store_true")
    command("verify", "full invariant suite", run_verify)
    sp = command("iso", "diagonal isomorphism test", run_iso)
    sp.add_argument(
        "--lambda-prime",
        dest="lambda_prime_spec",
        help="second vector for a pairwise test; omit to partition --lambda into classes",
    )
    sp = command("extend", "one-dimensional central extension", run_extend, formats=("json",))
    sp.add_argument("--cocycle", required=True, help="ebar:K, e:I,J or phi:K")
    command("sweep", "dims over a prime grid", run_dims, primes=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
