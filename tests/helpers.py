"""Test-only helpers: a seeded element generator and oracles that nothing
in the package calls."""

import random

import numpy as np

from filicoh import cochains, extensions, gf
from filicoh import restricted_cochains as rcoch


def random_element(algebra, rng: random.Random):
    """Uniformly random coefficient vector drawn from a seeded generator."""
    return np.array([rng.randrange(algebra.prime) for _ in range(algebra.dim)], dtype=np.int64)


def left_normed_bracket(algebra, elements):
    """[x_1, x_2, ..., x_m] folded left: [[...[[x_1, x_2], x_3]...], x_m]."""
    if len(elements) < 2:
        raise ValueError("left-normed bracket needs at least two factors")
    acc = algebra.bracket(elements[0], elements[1])
    for x in elements[2:]:
        acc = algebra.bracket(acc, x)
    return acc


def coboundary_shift_is_isomorphism(A, phi, psi) -> bool:
    """Verify x -> x + psi(x) c carries the phi-extension onto the
    (phi + d1 psi)-extension bracket-for-bracket."""
    p = A.prime
    E1 = extensions.extend_ordinary(A, phi).algebra
    E2 = extensions.extend_ordinary(A, phi + cochains.d1(A, psi)).algebra
    n = A.dim

    def image(vec):
        out = gf.normalize(vec, p).copy()
        out[-1] = (out[-1] + psi.evaluate(vec[:-1])) % p
        return out

    for i, j in cochains.index_tuples(n + 1, 2):
        lhs = E2.bracket(image(E1.basis_vector(i)), image(E1.basis_vector(j)))
        rhs = image(E1.bracket_basis(i, j))
        if not ((lhs - rhs) % p == 0).all():
            return False
    return True


def bracket_ad_matrix(algebra, g):
    """ad(g) column by column: column j is the bracket [g, e_j]."""
    cols = [algebra.bracket(g, algebra.basis_vector(j)) for j in range(1, algebra.dim + 1)]
    return np.stack(cols, axis=1) % algebra.prime


def dense_d2_star(R):
    """Matrix of d2* over the (pair duals, Frobenius duals) coordinates,
    stacked densely: all d2 rows over the induced-beta rows, each column
    of the latter from one ind2_matrix call, then zero Frobenius columns."""
    A = R.algebra
    p = A.prime
    pairs = cochains.index_tuples(A.dim, 2)
    bottom = gf.zeros((A.dim * A.dim, len(pairs)))
    for col, key in enumerate(pairs):
        phi = cochains.dual_cochain(p, A.dim, key)
        bottom[:, col] = rcoch.ind2_matrix(R, phi).reshape(-1)
    left = np.vstack([cochains.d2_matrix(A), bottom])
    return np.hstack([left, gf.zeros((left.shape[0], A.dim))])
