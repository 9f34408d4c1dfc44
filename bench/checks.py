"""Checks of filicoh's reports, computed apart from the program.

Nothing here imports filicoh.  The dimensions are the source paper's closed
forms, written out again; the isomorphism classes are recomputed as orbits
of the (mu1, mu2) diagonal action.  No check compares against a stored
copy of an earlier report.

Each ``check_*`` function takes one parsed JSON report and returns
``(operations, problems)``: how many operations the report answers and a
list of what is wrong with it (empty when it is correct).
"""

from __future__ import annotations


def closed_form_dims(p: int, lam) -> dict[str, int]:
    """dim H1, H1+, H2, H2+ of m_0^lambda(p) by the paper's closed forms."""
    nonzero = any(x % p for x in lam)
    if p == 2:
        return {"H1": 2, "H1+": 1 if nonzero else 2, "H2": 1, "H2+": 1 if nonzero else 3}
    return {
        "H1": 2,
        "H1+": 2,
        "H2": (p + 1) // 2,
        "H2+": (3 * p - 3) // 2 if nonzero else (3 * p + 1) // 2,
    }


def _check_row(row, p, problems) -> None:
    lam = row.get("lambda")
    if row.get("prime") != p or not isinstance(lam, list) or len(lam) != p:
        problems.append(f"row has the wrong prime or lambda length: {row.get('prime')}, {lam}")
        return
    if any(not isinstance(x, int) or not 0 <= x < p for x in lam):
        problems.append(f"p={p}: lambda {lam} is not a residue vector")
        return
    want = closed_form_dims(p, lam)
    got = {name: g.get("computed") for name, g in row.get("groups", {}).items()}
    if got != want:
        problems.append(f"p={p} lambda={lam}: dims {got}, closed form {want}")
    if p >= 3 and got.get("H1") != got.get("H1+"):
        problems.append(f"p={p} lambda={lam}: H1 != H1+")
    if row.get("ok") is not True:
        problems.append(f"p={p} lambda={lam}: row not ok")


def _one_hots(p):
    return [tuple(int(i == k) for i in range(p)) for k in range(p)]


def check_grid(report, p: int, count: int):
    """``dims --lambda all`` at one prime: ``count`` distinct vectors that
    include zero and every one-hot vector, each row at the closed form."""
    problems: list[str] = []
    rows = report.get("rows", [])
    for row in rows:
        _check_row(row, p, problems)
    lams = [tuple(r.get("lambda") or ()) for r in rows]
    if len(lams) != count or len(set(lams)) != count:
        problems.append(f"{len(lams)} rows, {len(set(lams))} distinct; expected {count}")
    missing = [lam for lam in [(0,) * p, *_one_hots(p)] if lam not in set(lams)]
    if missing:
        problems.append(f"zero or one-hot vectors missing: {missing}")
    if report.get("ok") is not True:
        problems.append("report not ok")
    return len(rows), problems


def check_sweep(report, primes):
    """``sweep --lambda random:SEED``: one nonzero vector per prime, in
    order, each row at the closed form."""
    problems: list[str] = []
    rows = report.get("rows", [])
    if [r.get("prime") for r in rows] != list(primes):
        problems.append(f"rows cover primes {[r.get('prime') for r in rows]}, expected {list(primes)}")
    for row in rows:
        _check_row(row, row.get("prime"), problems)
        if not any(row.get("lambda") or ()):
            problems.append(f"p={row.get('prime')}: random lambda is zero")
    if report.get("ok") is not True:
        problems.append("report not ok")
    return len(rows), problems


def check_verify(report, p: int, lambda_count: int):
    """``verify``: every hard check is ok.  Informational checks are
    reported, never failed, by the program, so they are not operations."""
    problems: list[str] = []
    hard = [c for c in report.get("checks", []) if not c.get("info")]
    if not hard:
        problems.append("no hard checks reported")
    for c in hard:
        if c.get("ok") is not True:
            problems.append(f"verify check failed: {c.get('name')} ({c.get('detail')})")
    if report.get("prime") != p or report.get("lambda_count") != lambda_count:
        problems.append(f"verify ran p={report.get('prime')} over {report.get('lambda_count')} vectors")
    if report.get("ok") is not True:
        problems.append("report not ok")
    return len(hard), problems


def scale_factors(p: int, mu1: int, mu2: int) -> list[int]:
    """mu_1 = mu1 and mu_k = mu2 * mu1^(k-2) for k >= 2: the diagonal map
    that preserves [e_1, e_i] = e_{i+1}."""
    return [mu1 % p] + [mu2 * pow(mu1, k - 2, p) % p for k in range(2, p + 1)]


def act(p: int, lam, mu1: int, mu2: int) -> tuple[int, ...]:
    """The power vector carried onto lam by the (mu1, mu2) map:
    lam'_k = mu_k^p * mu_p^(-1) * lam_k."""
    mus = scale_factors(p, mu1, mu2)
    inv_mu_p = pow(mus[-1], p - 2, p)
    return tuple(pow(m, p, p) * inv_mu_p * x % p for m, x in zip(mus, lam))


def orbit_partition(p: int, lams) -> set[frozenset]:
    """Classes of ``lams`` under the diagonal action, as a set of sets."""
    classes: dict[tuple, set] = {}
    for lam in lams:
        lam = tuple(int(x) % p for x in lam)
        key = min(act(p, lam, a, b) for a in range(1, p) for b in range(1, p))
        classes.setdefault(key, set()).add(lam)
    return {frozenset(c) for c in classes.values()}


def check_iso(report, p: int, lambda_count: int):
    """``iso`` classify mode: every vector placed once, and the classes
    equal the orbit partition as set partitions."""
    problems: list[str] = []
    placed = [tuple(lam) for cls in report.get("classes", []) for lam in cls]
    if len(placed) != lambda_count or len(set(placed)) != lambda_count:
        problems.append(f"{len(placed)} vectors placed, {len(set(placed))} distinct; expected {lambda_count}")
    missing = [lam for lam in [(0,) * p, *_one_hots(p)] if lam not in set(placed)]
    if missing:
        problems.append(f"zero or one-hot vectors not placed: {missing}")
    got = {frozenset(tuple(lam) for lam in cls) for cls in report.get("classes", [])}
    want = orbit_partition(p, set(placed))
    if got != want:
        problems.append(f"{len(got)} classes reported, {len(want)} orbits under the diagonal action")
    if report.get("class_count") != len(report.get("classes", [])):
        problems.append("class_count disagrees with the classes listed")
    return len(placed), problems
