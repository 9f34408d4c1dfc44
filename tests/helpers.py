"""Test-only helpers: a seeded element generator and oracles that nothing
in the package calls."""

import itertools
import math
import random

import numpy as np
from hypothesis import strategies as st

from filicoh import cochains, cohomology, extensions, gf, isoclass, liealg, restricted
from filicoh import restricted_cochains as rcoch


def mat_mul(a, b, p: int):
    """a @ b mod p, the dense product of the oracles; ValueError when a sum
    of n products mod p could overflow int64."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = a.shape[-1]
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"a sum of {n} products mod {p} overflows int64")
    return (a @ b) % p


def mat_pow(m, k: int, p: int):
    """m**k mod p by repeated squaring, for a square matrix or a stack of
    them in the last two axes.  k >= 0."""
    if k < 0:
        raise ValueError("negative matrix power")
    base = gf.normalize(m, p)
    result = np.broadcast_to(np.eye(base.shape[-1], dtype=np.int64), base.shape).copy()
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return result


def center(algebra):
    """Basis (rows) of the center {g : [g, x] = 0 for all x}: the kernel of
    the equations [g, e_j]_k = 0, one per (j, k) that a constant reaches."""
    i, j, k, c = algebra.constants.T
    _, equation = np.unique(j * algebra.dim + k, return_inverse=True)
    stacked = gf.zeros((equation.max(initial=-1) + 1, algebra.dim))
    np.add.at(stacked, (equation, i), c)
    return gf.kernel_basis(stacked % algebra.prime, algebra.prime)


def to_vector(c):
    """Dense coordinates of a Cochain over index_tuples(dim, degree),
    lexicographic, or of a RestrictedTwoCochain: phi over the pairs, then
    the omega basis values."""
    restricted_pair = isinstance(c, rcoch.RestrictedTwoCochain)
    coords = c.coordinates()
    out = gf.zeros(math.comb(c.dim + 1, 2) if restricted_pair else math.comb(c.dim, c.degree))
    out[list(coords)] = list(coords.values())
    return out


def cochain_from_vector(prime, dim, degree, vec):
    """The Cochain whose dense coordinates (to_vector) are vec."""
    order = cochains.index_tuples(dim, degree)
    vec = gf.normalize(vec, prime)
    if len(vec) != len(order):
        raise ValueError("coordinate vector has wrong length")
    return cochains.Cochain(prime, dim, degree, {key: int(v) for key, v in zip(order, vec) if v})


def restricted_from_vector(prime, dim, vec):
    """The RestrictedTwoCochain whose dense coordinates (to_vector) are vec."""
    vec = gf.normalize(vec, prime)
    npairs = math.comb(dim, 2)
    if len(vec) != npairs + dim:
        raise ValueError("coordinate vector has wrong length")
    phi = cochain_from_vector(prime, dim, 2, vec[:npairs])
    return rcoch.RestrictedTwoCochain(phi, tuple(int(x) for x in vec[npairs:]))


def coefficient(c, indices) -> int:
    """Signed coefficient of the Cochain c on any index tuple (0 on repeats)."""
    skey, sign = cochains._normalize_key(indices)
    if sign == 0:
        return 0
    return (sign * c.coeffs.get(skey, 0)) % c.prime


def homogeneous_weight(cochain):
    """The common index weight of a cochain, None for 0 or mixed ones."""
    weights = {sum(key) for key in cochain.coeffs}
    if len(weights) == 1:
        return weights.pop()
    return None


def d1_star(R, psi):
    """Restricted degree-1 differential: (d1 psi, omega induced by p-powers)."""
    return rcoch.RestrictedTwoCochain(cochains.d1(R.algebra, psi), rcoch.ind1_values(R, psi))


def d2_star(R, c):
    """Restricted degree-2 differential of (phi, omega) as the (alpha, beta)
    arrays of rcoch.beta_at: (d2 phi, beta induced by p-powers), where beta
    does not depend on omega."""
    return cochains.differential(R.algebra, c.phi), rcoch.ind2_matrix(R, c.phi)


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


def extend_ordinary(A, phi):
    """The LieAlgebra of the ordinary central extension by the 2-cocycle
    phi; a non-cocycle is refused with the first triple where d2 phi is
    nonzero."""
    if phi.degree != 2 or (phi.prime, phi.dim) != (A.prime, A.dim):
        raise ValueError("cocycle must be a degree-2 cochain over the algebra")
    obstruction = cochains.differential(A, phi)
    if not obstruction.is_zero():
        raise ValueError(f"not a cocycle: d2 is nonzero on {min(obstruction.coeffs)}")
    return extensions.central_extension(A, phi)


def coboundary_shift_is_isomorphism(A, phi, psi) -> bool:
    """Verify x -> x + psi(x) c carries the phi-extension onto the
    (phi + d1 psi)-extension bracket-for-bracket."""
    p = A.prime
    E1 = extend_ordinary(A, phi)
    E2 = extend_ordinary(A, phi + cochains.d1(A, psi))
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


def dense_structure(algebra):
    """The structure constants as one dim x dim x dim array, pair by pair
    from `bracket_basis`: slice i - 1 is the matrix of ad(e_i), so its
    column j - 1 is [e_i, e_j], for every order of i and j."""
    n = algebra.dim
    out = gf.zeros((n, n, n))
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        out[i - 1, :, j - 1] = algebra.bracket_basis(i, j)
    return out


def dense_bracket(algebra, g, h):
    """[g, h] as g and h contracted with the dense structure constants; g
    and h are vectors or stacks of them, paired row by row."""
    g = gf.normalize(g, algebra.prime)
    h = gf.normalize(h, algebra.prime)
    return np.einsum("...i,ikj,...j->...k", g, dense_structure(algebra), h) % algebra.prime


def dense_ad_matrix(algebra, g):
    """ad(g) = sum_i g_i ad(e_i), for a vector g or each row of a stack, as
    one product with the dense structure constants."""
    g = gf.normalize(g, algebra.prime)
    n = algebra.dim
    flat = g @ dense_structure(algebra).reshape(n, n * n)
    return flat.reshape(g.shape[:-1] + (n, n)) % algebra.prime


def omega_arrays(c):
    """A RestrictedTwoCochain as the (omega basis values, form matrix)
    arrays that rcoch.star_eval and rcoch.star_rule take."""
    return np.array(c.omega_basis, dtype=np.int64), rcoch.form_matrix(c.phi)


def pair_arrays(pairs):
    """A sequence of RestrictedTwoCochains as omega_arrays stacked over
    the cochains."""
    return tuple(np.stack(arrays) for arrays in zip(*map(omega_arrays, pairs)))


def omega_rows(R):
    """W of any restricted algebra over make_m0(p): a basis of omega on
    ker d1, the nonzero rref rows of K @ power_matrix^T as int tuples, with
    K the degree-1 duals that d1 kills (they span ker d1, since H1 has no
    image).  Row e^k of that product is omega of e^k, j -> e^k(e_j^[p]),
    column k of power_matrix; the oracle of cohomology._omega_rows, which
    reads W off lambda on the family."""
    p = R.prime
    omega = R.power_matrix[:, cohomology._kernel(p, 1, False)[1]].T
    r, pivots = gf.rref(omega, p)
    return tuple(map(tuple, r[: len(pivots)].tolist()))


def p_power(R, g):
    """p-th power of g: closed route on the family, Jacobson route otherwise."""
    if isinstance(R, restricted.Family):
        return restricted.p_power_closed(R, g)
    return restricted.p_power_jacobson(R, g)


def ind1_at(R, psi, g) -> int:
    """The induced omega as a function: psi(g^[p])."""
    return psi.evaluate(p_power(R, g))


def ind2_at(R, phi, g, h) -> int:
    """The induced beta as a function: phi(g ^ h^[p])."""
    return phi.evaluate(gf.normalize(g, R.prime), p_power(R, h))


def algebra_from_json(data: dict) -> liealg.LieAlgebra:
    """The LieAlgebra of liealg.to_json's plain-dict form."""
    brackets = {(b["i"], b["j"]): b["coeffs"] for b in data["brackets"]}
    return liealg.LieAlgebra(
        data["prime"],
        data["dim"],
        brackets,
        weights=data["weights"],
        labels=data.get("labels"),
    )


def restricted_from_json(data: dict) -> restricted.RestrictedAlgebra:
    """The RestrictedAlgebra of restricted.to_json's form, or of an
    extension report: the algebra and its p_powers."""
    return restricted.RestrictedAlgebra(algebra_from_json(data), data["p_powers"])


def ind2_family_closed(R, phi, g, h) -> int:
    """The induced beta on the maximal-class family in closed form:

    phi(g ^ h^[p]) = (sum_i h_i^p lam_i) * (sum_{j<p} g_j sigma_{j,p}).
    """
    if not isinstance(R, restricted.Family):
        raise ValueError("closed induced-beta formula requires a family member")
    p = R.prime
    g = gf.normalize(g, p)
    h = gf.normalize(h, p)
    power_part = 0
    for i in range(p):
        power_part = (power_part + pow(int(h[i]), p, p) * R.lam[i]) % p
    pairing_part = 0
    for j in range(1, p):
        pairing_part = (pairing_part + int(g[j - 1]) * coefficient(phi, (j, p))) % p
    return (power_part * pairing_part) % p


@st.composite
def matrices_mod_p(draw):
    """A random matrix over GF(p), possibly empty, with some rows and
    columns forced to zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries, dtype=np.int64).reshape(rows, cols)
    zeroed = st.sampled_from([False, False, False, True])
    m[draw(st.lists(zeroed, min_size=rows, max_size=rows))] = 0
    m[:, draw(st.lists(zeroed, min_size=cols, max_size=cols))] = 0
    return m, p


def sparse(v) -> dict[int, int]:
    """A dense row as the sparse {index: value} row gf.SpanTracker takes."""
    return {i: int(x) for i, x in enumerate(np.asarray(v).tolist()) if x}


def dense_rows(rows, ncols):
    """Sparse {index: value} rows stacked as a dense matrix with ncols
    columns."""
    out = gf.zeros((len(rows), ncols))
    for out_row, row in zip(out, rows):
        out_row[list(row)] = list(row.values())
    return out


def d1_star_matrix(R):
    """Matrix of d1* over the degree-1 duals: d1 rows over the induced
    omega rows, whose row k is e_k^[p].  Column k is the coordinate vector
    of d1*(e^k)."""
    return np.vstack([cochains.d1_matrix(R.algebra), R.power_matrix])


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
    """Jacobi identity on every basis triple i < j < k, three brackets of
    brackets each through the dense structure constants: (True, None) or
    (False, first failing (i, j, k))."""
    n = algebra.dim
    structure = dense_structure(algebra)

    def bracket(g, h):
        return np.einsum("i,ikj,j->k", g, structure, h) % algebra.prime

    basis = np.eye(n, dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                x, y, z = basis[i - 1], basis[j - 1], basis[k - 1]
                s = (
                    bracket(bracket(x, y), z)
                    + bracket(bracket(y, z), x)
                    + bracket(bracket(z, x), y)
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
    power = [np.eye(A.dim, dtype=np.int64)]
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


def correction_sum_naive(algebra, form_eval, h1, h2):
    """The literal 2^(p-2)-term correction sum, oracle for the dynamic
    program behind rcoch.star_correction and rcoch.doublestar_correction;
    affordable for p <= 13.

    form_eval(bracket_vector, last_vector) supplies the phi or alpha part.
    Slot counts are counts of assigned labels, so the divisor stays in
    1..p-1 even when h1 == h2 as vectors.
    """
    p = algebra.prime
    total = 0
    for bits in itertools.product((0, 1), repeat=p - 2):
        labels = (0, 1) + bits
        vecs = [h1 if b == 0 else h2 for b in labels]
        bracket = vecs[0]
        for x in vecs[1 : p - 1]:
            bracket = algebra.bracket(bracket, x)
        value = form_eval(bracket, vecs[p - 1])
        if value:
            count = labels.count(0)
            total = (total + gf.inv_mod(count, p) * value) % p
    return total


def star_correction_naive(algebra, phi, h1, h2):
    form = lambda bracket, last: phi.evaluate(bracket, last)
    return correction_sum_naive(algebra, form, h1, h2)


def doublestar_correction_naive(algebra, alpha, g, h1, h2):
    form = lambda bracket, last: alpha.evaluate(g, bracket, last)
    return correction_sum_naive(algebra, form, h1, h2)


def each_split(fn, heads, tails, *per_row):
    """fn(head, tail, *rows) split by split over a batch of
    restricted.split_sum, with per-row arrays broadcast against the heads:
    the batch reshaped to rows, and the values back to its shape."""
    n = heads.shape[-1]
    rows = [np.broadcast_to(a, heads.shape).reshape(-1, n) for a in (heads, tails, *per_row)]
    return np.array([fn(*row) for row in zip(*rows)], dtype=np.int64).reshape(heads.shape[:-1])


def star_eval_naive(algebra, c, g):
    """omega at g as rcoch.star_eval splits it, with the naive correction
    sum taken split by split."""
    omega = np.array(c.omega_basis, dtype=np.int64)
    return restricted.split_sum(
        algebra.prime, g,
        lambda scales: scales @ omega,
        lambda heads, tails: each_split(
            lambda x, y: star_correction_naive(algebra, c.phi, x, y), heads, tails
        ),
    )


def doublestar_eval_naive(algebra, alpha, beta, g, h):
    """beta at (g, h), for the 3-form alpha and beta's values on basis
    pairs, as rcoch.star_eval splits beta_at(alpha, beta, g), with the
    naive correction sum taken split by split."""
    p = algebra.prime
    g = gf.normalize(g, p)
    return restricted.split_sum(
        p, h,
        lambda scales: scales @ ((g @ beta) % p),
        lambda heads, tails: each_split(
            lambda x, y, row: -doublestar_correction_naive(algebra, alpha, row, x, y),
            heads, tails, g,
        ),
    )


def few_positions_per_batch(monkeypatch, v):
    """Patch restricted.BATCH_CELLS, for split_sum on v, to one cell (one
    split position per batch) and then to half the positions and one more
    (positions 0-2, then 3, at dim 5), so every batched path splits and a
    short last batch is met; yields after each."""
    n = np.shape(v)[-1]
    for cells in (1, ((n - 1) // 2 + 1) * np.size(v) * n):
        monkeypatch.setattr(restricted, "BATCH_CELLS", cells)
        yield


def make_m2(p):
    """The filiform algebra m_2 on p basis vectors: [e_1, e_i] = e_(i+1)
    for 1 < i < p and [e_2, e_j] = e_(j+2) for 2 < j < p - 1, graded by
    index.  Unlike make_m0(p), ad(e_2) is not zero from p = 5 on.  Every
    bracket raises the weight, so ad(e_k)^p = 0 and the zero p-map makes
    it restricted."""
    basis = np.eye(p, dtype=np.int64)
    brackets = {(1, i): basis[i] for i in range(2, p)}  # e_(i+1)
    brackets.update({(2, j): basis[j + 1] for j in range(3, p - 1)})  # e_(j+2)
    return liealg.LieAlgebra(p, p, brackets, weights=range(1, p + 1))


def orbit_min_partition(p, lams):
    """Classes keyed by the lexicographic minimum of each vector's orbit
    under the (p-1)^2 diagonal maps, in order of first appearance: the
    O(p^3)-per-vector oracle of isoclass.partition_classes' key."""
    factors = [
        isoclass.proof_transform(p, (1,) * p, mu1, mu2)
        for mu1 in range(1, p)
        for mu2 in range(1, p)
    ]
    classes = {}
    for lam in lams:
        lam = tuple(int(x) % p for x in lam)
        key = min(tuple(f * x % p for f, x in zip(fs, lam)) for fs in factors)
        classes.setdefault(key, []).append(lam)
    return list(classes.values())
