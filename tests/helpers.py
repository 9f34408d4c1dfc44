"""Test-only helpers: a seeded element generator and two oracles that
nothing in the package calls."""

import random

import numpy as np

from filicoh import cochains, extensions, gf


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
