"""Test-only helpers: a seeded element generator and oracles that nothing
in the package calls."""

import random

import numpy as np

from filicoh import cochains, extensions, gf, liealg
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


def jacobi_check_triples(algebra):
    """Jacobi identity basis triple by basis triple, three brackets of
    brackets each: (True, None) or (False, first failing (i, j, k))."""
    n = algebra.dim
    basis = [algebra.basis_vector(k) for k in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                x, y, z = basis[i - 1], basis[j - 1], basis[k - 1]
                s = (
                    algebra.bracket(algebra.bracket(x, y), z)
                    + algebra.bracket(algebra.bracket(y, z), x)
                    + algebra.bracket(algebra.bracket(z, x), y)
                ) % algebra.prime
                if s.any():
                    return False, (i, j, k)
    return True, None


def jacobson_corrections_matrix_poly(R, g, h):
    """Sum of the Jacobson corrections s_i(g, h) from the full matrix
    polynomial ad(t g + h)^(p-1), one n x n matrix per power of t, applied
    to g only at the end."""
    p = R.prime
    A = R.algebra
    g = gf.normalize(g, p)
    lin = [liealg.ad_matrix(A, h), liealg.ad_matrix(A, g)]  # ad(h) + t ad(g)
    power = [gf.identity(A.dim)]
    for _ in range(p - 1):
        out = [gf.zeros((A.dim, A.dim)) for _ in range(len(power) + 1)]
        for i, a in enumerate(power):
            for j, b in enumerate(lin):
                out[i + j] = (out[i + j] + a @ b) % p
        power = out
    total = gf.zeros(A.dim)
    for i in range(1, p):
        total = (total + gf.inv_mod(i, p) * (power[i - 1] @ g)) % p
    return total
