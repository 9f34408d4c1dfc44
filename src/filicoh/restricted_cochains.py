"""Restricted cochains in degrees 2 and 3 and the maps induced by p-powers.

A restricted 2-cochain is a pair (phi, omega): an alternating 2-form plus
a companion function omega determined by its values on the basis.  Off the
basis, omega is p-homogeneous and obeys a sum rule that corrects plain
additivity by bracket terms weighted with phi:

    omega(g + h) = omega(g) + omega(h)
                 + sum over sequences (g_1, ..., g_p) in {g, h}^p with
                   g_1 = g, g_2 = h of
                   (1 / #g) phi([g_1, ..., g_{p-1}] ^ g_p)

where #g counts the slots assigned g and [..] is the left-normed bracket.
A restricted 3-cochain is a pair (alpha, beta): an alternating 3-form plus
a bilinear-in-the-first-argument companion beta determined by its values
on basis pairs, with the analogous correction rule in its second argument
(subtracted, and weighted by alpha(g ^ [..] ^ last)).

Both omega and beta (in h) are evaluated by `restricted.split_sum`, the
loop the Jacobson p-power shares: split the argument into basis terms
lowest index first and add the correction sum at each split.  The
correction sum has 2^(p-2) terms; a dynamic program over (prefix length,
number of slots assigned the first argument) evaluates it in O(p^2)
bracket operations.  The literal enumeration is a test oracle
(`tests/helpers.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cochains, gf, restricted


@dataclass(frozen=True)
class RestrictedTwoCochain:
    """(phi, omega) with omega stored by its basis values."""

    phi: cochains.Cochain
    omega_basis: tuple[int, ...]

    def __post_init__(self):
        if self.phi.degree != 2:
            raise ValueError("phi must have degree 2")
        object.__setattr__(
            self,
            "omega_basis",
            tuple(int(x) % self.phi.prime for x in self.omega_basis),
        )
        if len(self.omega_basis) != self.phi.dim:
            raise ValueError("omega_basis length must equal dim")

    @property
    def prime(self):
        return self.phi.prime

    @property
    def dim(self):
        return self.phi.dim

    def to_vector(self):
        """Coordinates: phi over pairs, then the omega basis values."""
        return np.concatenate(
            [self.phi.to_vector(), np.array(self.omega_basis, dtype=np.int64)]
        )

    @classmethod
    def from_vector(cls, prime, dim, vec):
        vec = gf.normalize(vec, prime)
        npairs = dim * (dim - 1) // 2
        if len(vec) != npairs + dim:
            raise ValueError("coordinate vector has wrong length")
        phi = cochains.Cochain.from_vector(prime, dim, 2, vec[:npairs])
        return cls(phi, tuple(int(x) for x in vec[npairs:]))

    def to_json(self) -> dict:
        return {
            "phi": self.phi.to_json(),
            "omega": [int(x) for x in self.omega_basis],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RestrictedTwoCochain":
        phi = cochains.Cochain.from_json(data["phi"])
        return cls(phi, tuple(int(x) for x in data["omega"]))

    def __str__(self):
        omega = omega_basis_str(self)
        return f"({self.phi}, {omega})"


def omega_basis_str(c: RestrictedTwoCochain) -> str:
    """Render omega by its basis expansion over the Frobenius duals ebar^k."""
    return cochains.signed_sum(
        ((value, f"ebar^{k}") for k, value in enumerate(c.omega_basis, start=1)), c.prime
    )


@dataclass(frozen=True)
class RestrictedThreeCochain:
    """(alpha, beta) with beta stored by its values on basis pairs."""

    alpha: cochains.Cochain
    beta_pairs: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.alpha.degree != 3:
            raise ValueError("alpha must have degree 3")
        arr = gf.normalize(self.beta_pairs, self.alpha.prime)
        if arr.shape != (self.alpha.dim, self.alpha.dim):
            raise ValueError("beta_pairs must be dim x dim")
        object.__setattr__(self, "beta_pairs", arr)

    @property
    def prime(self):
        return self.alpha.prime

    @property
    def dim(self):
        return self.alpha.dim

    def is_zero(self):
        return self.alpha.is_zero() and not self.beta_pairs.any()

    def __eq__(self, other):
        if not isinstance(other, RestrictedThreeCochain):
            return NotImplemented
        return self.alpha == other.alpha and (self.beta_pairs == other.beta_pairs).all()


def _correction_sum(algebra, form_eval, h1, h2):
    """The 2^(p-2)-term correction sum, grouped by how many slots carry h1.

    form_eval(bracket_vector, last_vector) supplies the phi or alpha part.
    Left-normed brackets are linear in every slot, so prefixes with equal
    h1-multiplicity can be summed before bracketing continues.  state[m]
    is the sum of [g_1, ..., g_j] over all prefixes of length j with m
    slots assigned h1.
    """
    p = algebra.prime
    if p == 2:
        return form_eval(h1, h2)
    base = algebra.bracket(h1, h2)
    if not base.any():
        return 0
    state = {1: base}
    for _ in range(p - 3):
        nxt: dict[int, np.ndarray] = {}
        for m, vec in state.items():
            for dm, x in ((1, h1), (0, h2)):
                b = algebra.bracket(vec, x)
                if b.any():
                    prev = nxt.get(m + dm)
                    nxt[m + dm] = b if prev is None else (prev + b) % p
        state = nxt
    total = 0
    for m, vec in state.items():
        total = (total + gf.inv_mod(m + 1, p) * form_eval(vec, h1)) % p
        total = (total + gf.inv_mod(m, p) * form_eval(vec, h2)) % p
    return total


def star_correction(algebra, phi: cochains.Cochain, h1, h2):
    """The omega correction sum attached to phi at the split g = h1 + h2."""
    form = lambda bracket, last: phi.evaluate(bracket, last)
    return _correction_sum(algebra, form, h1, h2)


def doublestar_correction(algebra, alpha: cochains.Cochain, g, h1, h2):
    """The beta correction sum attached to alpha at the split h = h1 + h2."""
    form = lambda bracket, last: alpha.evaluate(g, bracket, last)
    return _correction_sum(algebra, form, h1, h2)


def star_eval(algebra, c: RestrictedTwoCochain, g):
    """Evaluate omega at g: omega(a e_k) = a^p omega_k on scaled basis
    vectors, and the correction sum at each split of `restricted.split_sum`.
    The result does not depend on the split order.
    """
    return restricted.split_sum(
        algebra.prime, g,
        lambda k, scale: scale * c.omega_basis[k],
        lambda x, y: star_correction(algebra, c.phi, x, y),
    )


def doublestar_eval(algebra, rc3: RestrictedThreeCochain, g, h):
    """Evaluate beta at (g, h): linear in g, and split in h like omega,
    with the correction subtracted."""
    p = algebra.prime
    g = gf.normalize(g, p)
    return restricted.split_sum(
        p, h,
        lambda k, scale: scale * int((g @ rc3.beta_pairs[:, k]) % p),
        lambda x, y: -doublestar_correction(algebra, rc3.alpha, g, x, y),
    )


def star_property_holds(algebra, c: RestrictedTwoCochain, g, h) -> bool:
    """Check the omega sum rule at one pair (g, h)."""
    rhs = (
        star_eval(algebra, c, g)
        + star_eval(algebra, c, h)
        + star_correction(algebra, c.phi, g, h)
    )
    return star_eval(algebra, c, np.add(g, h)) == rhs % algebra.prime


def doublestar_property_holds(algebra, rc3: RestrictedThreeCochain, g, h1, h2) -> bool:
    """Check the beta sum rule at one triple (g, h1, h2)."""
    rhs = (
        doublestar_eval(algebra, rc3, g, h1)
        + doublestar_eval(algebra, rc3, g, h2)
        - doublestar_correction(algebra, rc3.alpha, g, h1, h2)
    )
    return doublestar_eval(algebra, rc3, g, np.add(h1, h2)) == rhs % algebra.prime


def ind1_values(R: restricted.RestrictedAlgebra, psi: cochains.Cochain) -> tuple[int, ...]:
    """omega basis values induced by a 1-cochain: omega_k = psi(e_k^[p])."""
    if psi.degree != 1:
        raise ValueError("ind1 needs a degree-1 cochain")
    return tuple(psi.evaluate(v) for v in R.basis_p_powers)


def ind2_matrix(R: restricted.RestrictedAlgebra, phi: cochains.Cochain):
    """beta values on basis pairs induced by a 2-cochain: phi(e_i ^ e_j^[p]).

    Entry (i, j) is linear in the stored coefficients, so the matrix is
    assembled per coefficient instead of evaluating n^2 pairings.
    """
    if phi.degree != 2:
        raise ValueError("ind2 needs a degree-2 cochain")
    n = R.dim
    p = R.prime
    powers = np.stack(R.basis_p_powers)  # row j-1 holds e_j^[p]
    out = gf.zeros((n, n))
    for (a, b), c in phi.coeffs.items():
        out[a - 1, :] = (out[a - 1, :] + c * powers[:, b - 1]) % p
        out[b - 1, :] = (out[b - 1, :] - c * powers[:, a - 1]) % p
    return out


def d1_star(R: restricted.RestrictedAlgebra, psi: cochains.Cochain) -> RestrictedTwoCochain:
    """Restricted degree-1 differential: (d1 psi, omega induced by p-powers)."""
    return RestrictedTwoCochain(cochains.d1(R.algebra, psi), ind1_values(R, psi))


def d2_star(R: restricted.RestrictedAlgebra, c: RestrictedTwoCochain) -> RestrictedThreeCochain:
    """Restricted degree-2 differential: (d2 phi, beta induced by p-powers).

    The beta part depends only on phi, not on the omega companion.
    """
    return RestrictedThreeCochain(cochains.d2(R.algebra, c.phi), ind2_matrix(R, c.phi))


def basis_pair_cochain(prime, dim, i, j) -> RestrictedTwoCochain:
    """(e^{i,j}, tilde-e^{i,j}): the dual pair with vanishing omega basis values."""
    return RestrictedTwoCochain(cochains.dual_cochain(prime, dim, (i, j)), (0,) * dim)


def frobenius_dual_cochain(prime, dim, k) -> RestrictedTwoCochain:
    """(0, ebar^k): zero 2-form with omega the k-th Frobenius coordinate."""
    omega = [0] * dim
    omega[k - 1] = 1
    return RestrictedTwoCochain(cochains.Cochain(prime, dim, 2), tuple(omega))
