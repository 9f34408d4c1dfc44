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
A restricted 3-cochain is a pair (alpha, beta), passed as a degree-3
Cochain and the dim x dim array of beta's values on basis pairs: beta is
linear in its first argument, with the analogous correction rule in its
second (subtracted, and weighted by alpha(g ^ [..] ^ last)).  So
beta(g, -) is the omega of a restricted 2-cochain: basis values
beta(g, e_k) and the 2-form -alpha(g, -, -) (`beta_at`).  star_eval and
star_rule serve both, and take an omega only as the arrays (basis values,
form matrices), of one cochain or stacked over cochains; star_correction
takes the form matrices alone.  The restricted differential of
(phi, omega) is (d2 phi, `ind2_matrix` of phi).

omega is evaluated by `restricted.split_sum`, the routine the Jacobson
p-power shares: split each argument row into basis terms lowest index
first and add the correction sum at each split, the splits of every row at
a run of positions at once, as (heads, tails) with a leading axis over the
positions; the forms of each row reach them by broadcasting.  The
correction sum has 2^(p-2) terms; grouped by the number of slots that
carry h1, it is the recursion of the Jacobson corrections,
w -> [h2, w] + t [h1, w] from w = [h1, h2], one row of w per power of t,
each step two `LieAlgebra.bracket` calls on the band of powers that is
nonzero in some row (`restricted.ad_recursion`).  The rows are weighted by
inverses and summed first, and the form, a dim x dim matrix
(`form_matrix`), is applied twice per split.  The literal enumeration is a
test oracle (`tests/helpers.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def coordinates(self) -> dict[int, int]:
        """Sparse coordinates: phi over pairs, then the omega basis values."""
        npairs = self.dim * (self.dim - 1) // 2
        return self.phi.coordinates() | {npairs + k: x for k, x in enumerate(self.omega_basis) if x}

    def __str__(self):
        omega = omega_basis_str(self)
        return f"({self.phi}, {omega})"


def omega_basis_str(c: RestrictedTwoCochain) -> str:
    """Render omega by its basis expansion over the Frobenius duals ebar^k."""
    return cochains.signed_sum(
        ((value, f"ebar^{k}") for k, value in enumerate(c.omega_basis, start=1) if value), c.prime
    )


# the orderings of a 3-form's slots, with their signs
_SIGNED_PERMUTATIONS = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
)


def form_matrix(form: cochains.Cochain, g=None):
    """The matrix F of a 2-form, value(x, y) = x F y^T, built from its
    stored coefficients; for a 3-form, the matrix of alpha(g, x, y) with g
    fixed, one matrix per row when g is a stack: each signed ordering
    (a, b, d) of a stored triple adds g_a sign c at flat position b n + d,
    so no n x n x n array is built."""
    p, n, degree = form.prime, form.dim, form.degree
    if degree != (2 if g is None else 3):
        raise ValueError("form_matrix takes a 2-form, or a 3-form with g")
    if g is None:
        out = gf.zeros((n, n))
        for (i, j), c in form.coeffs.items():
            out[i - 1, j - 1] = c
            out[j - 1, i - 1] = -c % p
        return out
    keys = np.array(list(form.coeffs), dtype=np.int64).reshape(-1, 3) - 1
    values = np.fromiter(form.coeffs.values(), dtype=np.int64, count=len(form.coeffs))
    g = gf.normalize(g, p)
    out = gf.zeros(g.shape[:-1] + (n * n,))
    for perm, sign in _SIGNED_PERMUTATIONS:
        a, b, d = keys[:, perm].T
        np.add.at(out, (..., b * n + d), g[..., a] * (sign * values % p))
    return (out % p).reshape(g.shape[:-1] + (n, n))


def form_matrices(forms):
    """The form matrices of a sequence of 2-forms, stacked."""
    out = gf.zeros((len(forms), forms[0].dim, forms[0].dim))
    for matrix, form in zip(out, forms):
        matrix[:] = form_matrix(form)
    return out


def _pair(forms, x, y, p):
    """x F y^T mod p, row by row."""
    return np.einsum("...i,...ij,...j->...", x, forms, y) % p


def star_correction(algebra, forms, h1, h2):
    """The omega correction sum attached to a 2-form at the split
    g = h1 + h2, for a pair of vectors or each pair of rows.  forms are
    its form matrices F (`form_matrix`): one for all rows, or one per row.

    Left-normed brackets are linear in every slot, so prefixes with equal
    h1-multiplicity are summed before bracketing continues: row d of w is
    the sum of [g_1, ..., g_j] over the prefixes with d + 1 slots of h1.
    That is `restricted.ad_recursion` with g = h1 and h = h2, started at
    [h1, h2]; it brackets from the left, and its p-3 sign flips cancel for
    odd p.  It returns the band of rows nonzero in some row of the stack,
    so the weights 1/#h1 are read at the band's powers; the rows are
    summed before F is applied.
    """
    p = algebra.prime
    h1 = gf.normalize(h1, p)
    h2 = gf.normalize(h2, p)
    if p == 2:
        return _pair(forms, h1, h2, p)
    # #h1 is d + 1 in the prefix, d + 2 when h1 also fills the last slot
    last_h1 = np.array([gf.inv_mod(d + 2, p) for d in range(p - 2)], dtype=np.int64)
    last_h2 = np.array([gf.inv_mod(d + 1, p) for d in range(p - 2)], dtype=np.int64)
    low, w = restricted.ad_recursion(algebra, h1, h2, algebra.bracket(h1, h2)[..., None, :], p - 3)
    band = slice(low, low + w.shape[-2])
    return (
        _pair(forms, last_h1[band] @ w % p, h1, p) + _pair(forms, last_h2[band] @ w % p, h2, p)
    ) % p


def doublestar_correction(algebra, alpha, g, h1, h2):
    """The beta correction sum attached to the 3-form alpha at the split
    h = h1 + h2, for one g or one g per row: omega's correction sum of the
    2-forms alpha(g, -, -)."""
    return star_correction(algebra, form_matrix(alpha, g), h1, h2)


def beta_at(alpha, beta, g):
    """beta(g, -) of (alpha, beta), for one g or one g per row, as the
    (omega basis values, form matrices) arrays that star_eval and
    star_rule take: in h, beta(g, -) obeys omega's sum rule with basis
    values beta(g, e_k) and the 2-form -alpha(g, -, -), since beta's
    correction is subtracted.  alpha is a degree-3 Cochain and beta the
    dim x dim array of its values on basis pairs."""
    p = alpha.prime
    g = gf.normalize(g, p)
    return g @ beta % p, -form_matrix(alpha, g) % p


def star_eval(algebra, c, g):
    """Evaluate omega at g, a vector or a stack of rows: omega(a e_k) =
    a^p omega_k on scaled basis vectors, and the correction sum at each
    split of `restricted.split_sum`.  c is the pair (omega basis values,
    form matrices) of arrays, of one cochain or stacked over cochains,
    which broadcast against the rows of g as one per row.  The result does
    not depend on the split order.
    """
    omega, forms = c
    return restricted.split_sum(
        algebra.prime, g,
        lambda scales: (scales * omega).sum(axis=-1),
        lambda x, y: star_correction(algebra, forms, x, y),
    )


def star_rule(algebra, c, g, h):
    """omega at g, and whether the omega sum rule holds, at one pair (g, h)
    or at each pair of rows; c as for star_eval.  One star_eval call
    evaluates omega at g, h and g + h."""
    _, forms = c
    at_g, at_h, at_sum = star_eval(algebra, c, np.stack([g, h, np.add(g, h)]))
    rhs = at_g + at_h + star_correction(algebra, forms, g, h)
    return at_g, at_sum == rhs % algebra.prime


def ind1_values(R: restricted.RestrictedAlgebra | restricted.Family, psi: cochains.Cochain):
    """omega basis values induced by a 1-cochain: omega_k = psi(e_k^[p]),
    the power matrix times psi's coefficient vector.  R is one restricted
    algebra or family member, or a restricted.Family stack, which gives a
    row per member."""
    if psi.degree != 1:
        raise ValueError("ind1 needs a degree-1 cochain")
    coefficients = gf.zeros(R.dim)
    for position, x in psi.coordinates().items():
        coefficients[position] = x
    return R.power_matrix @ coefficients % R.prime


def ind2_matrix(R: restricted.RestrictedAlgebra | restricted.Family, phi):
    """beta values on basis pairs induced by a 2-cochain: phi(e_i ^ e_j^[p]).

    Entry (i, j) is row i of phi's form matrix applied to e_j^[p], so the
    matrix is one product instead of n^2 pairings.  phi is a degree-2
    Cochain, or a stack of form matrices (`form_matrix`), giving a stack.
    R is one restricted algebra or family member, or a restricted.Family
    stack, whose power matrices broadcast against phi's stack axes as
    matmul does.
    """
    if isinstance(phi, cochains.Cochain):
        if phi.degree != 2:
            raise ValueError("ind2 needs a degree-2 cochain")
        phi = form_matrix(phi)
    out = phi @ R.power_matrix.swapaxes(-1, -2)
    out %= R.prime
    return out


def basis_pair_cochain(prime, dim, i, j) -> RestrictedTwoCochain:
    """(e^{i,j}, tilde-e^{i,j}): the dual pair with vanishing omega basis values."""
    return RestrictedTwoCochain(cochains.dual_cochain(prime, dim, (i, j)), (0,) * dim)


def frobenius_dual_cochain(prime, dim, k) -> RestrictedTwoCochain:
    """(0, ebar^k): zero 2-form with omega the k-th Frobenius coordinate."""
    omega = [0] * dim
    omega[k - 1] = 1
    return RestrictedTwoCochain(cochains.Cochain(prime, dim, 2), tuple(omega))
