"""One-dimensional central extensions built from degree-2 cocycles.

An extension appends a central generator c: the bracket gains the cocycle
value [x, y] -> [x, y] + phi(x ^ y) c, and in the restricted case the
p-power map gains omega, x^[p] -> x^[p] + omega(x) c with c^[p] = 0.
`central_extension` builds the twisted brackets and re-verifies Jacobi.
`extend_restricted` rejects a non-cocycle with a witness, deciding it once
on the restricted differential: d2 phi from `cochains.differential`, then
the induced beta of `restricted_cochains.ind2_matrix`.  It then builds the
brackets without a second cocycle check, re-verifies the restricted axiom
on the result instead of trusting the cocycle condition, and returns the
extension as a RestrictedAlgebra.  Given a restricted.Family stack, it
extends every member by the one cochain: the brackets do not depend on
lambda, so d2 phi, the twisted brackets and their Jacobi check are made
once, and the result holds one p-map per member over the one extended
algebra, checked in one `restricted.verify_restricted_map` pass.  The
ordinary extension with its own cocycle witness is a test helper
(`tests/helpers.extend_ordinary`), since nothing in the package builds
one.
"""

from __future__ import annotations

import numpy as np

from . import cochains, gf, liealg, restricted
from . import restricted_cochains as rcoch

CENTER_LABEL = "c"


def central_extension(A: liealg.LieAlgebra, phi: cochains.Cochain) -> liealg.LieAlgebra:
    """A with a central c appended and brackets twisted by the 2-cochain
    phi over A, built from the stored pairs and phi's terms.  phi is not
    checked to be a cocycle: Jacobi is re-verified on the result."""
    n = A.dim
    brackets = {pair: np.append(vec, 0) for pair, vec in A.brackets.items()}
    for pair, value in phi.coeffs.items():
        brackets.setdefault(pair, gf.zeros(n + 1))[-1] = value
    # pairs (i, n+1) are absent: c is central
    E = liealg.LieAlgebra(
        A.prime,
        n + 1,
        brackets,
        weights=A.weights + (max(A.weights) + 1,),
        labels=A.labels + (CENTER_LABEL,),
    )
    ok, triple = liealg.jacobi_check(E)
    if not ok:
        raise RuntimeError(f"extension failed Jacobi at {triple}")
    return E


def extend_restricted(
    R: restricted.RestrictedAlgebra | restricted.Family, c2: rcoch.RestrictedTwoCochain
) -> restricted.RestrictedAlgebra:
    """Append a central c twisted by a restricted 2-cocycle (phi, omega):
    its restricted differential (d2 phi, induced beta) must vanish, d2 phi
    checked first.  Returns the extension with its p-powers, a stack of
    them when R is a Family stack; a failure on a stack names the first
    failing member."""
    alpha = cochains.differential(R.algebra, c2.phi)
    if not alpha.is_zero():
        raise ValueError(f"not a restricted cocycle: d2 is nonzero on {min(alpha.coeffs)}")
    stacked = R.power_matrix.ndim == 3
    beta = rcoch.ind2_matrix(R, c2.phi)
    if beta.any():
        *member, i, j = np.argwhere(beta)[0].tolist()
        raise ValueError(
            f"not a restricted cocycle: induced beta is nonzero on basis pair ({i + 1}, {j + 1})"
            + (f" of member {member[0]}" if stacked else "")
        )
    E = central_extension(R.algebra, c2.phi)
    # omega on a basis vector is its stored value: no split, no correction;
    # c^[p] = 0 is the last row
    n = R.dim
    powers = gf.zeros(R.power_matrix.shape[:-2] + (n + 1, n + 1))
    powers[..., :n, :n] = R.power_matrix
    powers[..., :n, n] = c2.omega_basis
    RE = restricted.RestrictedAlgebra(E, powers)
    verdicts = restricted.verify_restricted_map(RE)
    for m, (ok, k) in enumerate(verdicts if stacked else [verdicts]):
        if not ok:
            raise RuntimeError(
                f"extension failed the restricted axiom at basis index {k}"
                + (f" of member {m}" if stacked else "")
            )
    return RE


def is_trivial_ordinary_extension(A: liealg.LieAlgebra, phi: cochains.Cochain) -> bool:
    """Whether the extension by phi splits: phi lies in the image of d1."""
    if not cochains.differential(A, phi).is_zero():
        raise ValueError("triviality is decided for cocycles only")
    duals = (cochains.dual_cochain(A.prime, A.dim, (k,)) for k in range(1, A.dim + 1))
    image = (cochains.differential(A, psi).coordinates() for psi in duals)
    return gf.SpanTracker(A.prime, image).contains(phi.coordinates())


def extension_to_json(RE: restricted.RestrictedAlgebra, cocycle_text: str) -> dict:
    """The restricted extension's JSON plus a provenance block naming the
    cocycle it came from, printed as cocycle_text."""
    data = restricted.to_json(RE)
    data["extension_of"] = {
        "base_dim": RE.dim - 1,
        "cocycle": cocycle_text,
        "restricted": True,
    }
    return data
