"""Exact character tables by the Burnside-Dixon-Schneider method.

Class-multiplication matrices are counted only for the classes the split
needs (Schneider's refinement): the smallest classes first, with more
added while the split shows characters still unseparated.  Each is
counted over the elements of its class with one right multiplication per
class representative, composed from the generators' index permutations
along the representative's word (see perm.py).  Their simultaneous
eigenvectors are found over GF(l) for a prime l = 1 (mod exp(G)) large
enough to make integer lifting unique (l > 2*sqrt(|G|)) and to make a
random split likely (l >= k^2, k the number of classes), and the
character values are lifted to cyclotomic integers through a discrete
Fourier inversion over power classes.  The class matrices never counted
are never checked, so the lifted table must pass row and column
orthogonality (`chartab.validate`) before it is returned.

The GF(l) stage follows Dixon (Numer. Math. 10, 1967) with integer
numpy products on k x k matrices and no polynomial arithmetic.  A random
combination M of the class matrices is diagonalizable with the central
characters as eigenvectors, and a random vector is split into its
eigen-components by power-character projectors built from
(M + aI)^((l-1)/r), r | l - 1.  The lift makes per element order one
product with the DFT matrix and one with the matrix of the powers of
zeta_o on the power basis.  Arrays are int64 when
k * (l-1)^2 (o * (l-1)^2 for a DFT of size o) is below 2^63, and Python
ints otherwise, with the same code.  Each distinct lifted value is built
as one Cyc, so it is canonicalized once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import numpy as np

from .chartab import CharTable, ClassData, int_dtype, validate
from .cyclo import Cyc, power_matrix
from .numutil import is_prime, primitive_root
from .perm import PermGroup


class DixonFailure(RuntimeError):
    """Eigenvalue splitting failed for every attempted field, or the lifted
    table failed validation."""


def class_matrices(g: PermGroup, rows=None) -> np.ndarray:
    """Class-algebra structure constants A[i] for the distinct class
    indices i in rows (all classes by default), as one (len(rows), k, k)
    int64 array: A[r, j, m] = a_{ijm} for i = rows[r], where
    class_sum(i) * class_sum(j) = sum_m a_{ijm} * class_sum(m).

    a_{ijm} is the number of x in C_i with x^-1 * z_m in C_j, z_m the
    representative of class m, so only the elements of the classes in
    rows are counted.  The indices of x^-1 * z_m for those x are the
    right multiplication by z_m applied to their inverse indices, which
    ``right_mults`` composes from the generators' along the word of z_m:
    one gather per distinct word prefix and no element lookups.
    """
    cd = g.conjugacy_data()
    k = len(cd.reps)
    rows = range(k) if rows is None else rows
    slot = np.full(k, -1)
    slot[list(rows)] = np.arange(len(rows))
    xs = np.flatnonzero(slot[cd.class_of] >= 0)
    row = slot[cd.class_of[xs]] * k
    A = np.empty((len(rows), k, k), dtype=np.int64)
    for rep, y in g.right_mults(g.inverse_indices()[xs], cd.reps):
        A[:, :, cd.class_of[rep]] = np.bincount(row + cd.class_of[y],
                                                minlength=len(rows) * k).reshape(-1, k)
    return A


# -- GF(l) helpers ----------------------------------------------------


def _matrix_power(B, e, l):
    """B^e mod l for e >= 1, by repeated squaring."""
    acc = None
    while True:
        if e & 1:
            acc = B if acc is None else acc @ B % l
        e >>= 1
        if not e:
            return acc
        B = B @ B % l


def _choose_ell(exponent: int, order: int, k: int, skip: int = 0) -> int:
    """The (skip+1)-th prime l = 1 (mod exponent) above max(2*sqrt(order)+2, k^2).

    l > 2*sqrt(|G|) makes the lift of every value unique.  l >= k^2 makes a
    split attempt fail with probability at most 1/2: the eigenvalues of two
    characters under random coefficients collide with probability 1/l, and
    there are fewer than k^2 / 2 pairs.
    """
    bound = max(2 * isqrt(order) + 2, k * k)
    l = exponent + 1
    found = 0
    while True:
        if l > bound and is_prime(l):
            if found == skip:
                return l
            found += 1
        l += exponent


# -- the main engine --------------------------------------------------


#: elements counted for the first split's class matrices: a group this
#: small counts every class matrix
SCAN_BUDGET = 2048

#: rounds of the eigenvector split before it gives up
SPLIT_ROUNDS = 32

#: split attempts at each of the four primes l before dixon_table gives up
MAX_ATTEMPTS = 8


class _Unseparated(Exception):
    """The class matrices in use split a random vector into only args[0] < k
    eigenvectors: they may not separate the characters."""


def dixon_table(g: PermGroup, seed: int = 1) -> CharTable:
    """The exact character table of an enumerated permutation group.

    The split starts from the class matrices of the smallest classes, by
    size then index, whose sizes sum to at most SCAN_BUDGET.  A split into
    r < k eigenvectors shows only r distinct eigenvalues among k
    characters; then the next 2 * (k - r) classes are added.  Any split
    into k distinct eigenvalues gives the true central characters, so the
    table does not depend on the classes used; a table that fails
    `validate` raises DixonFailure.
    """
    cd = g.conjugacy_data()
    k = len(cd.reps)
    n = g.order
    classes = tuple(ClassData(size=int(s), element_order=o)
                    for s, o in zip(cd.sizes, cd.orders))
    power_maps = {p: tuple(m) for p, m in cd.power_maps.items()}
    if k == 1:
        return CharTable(1, classes, power_maps, ((Cyc.one(),),), name=g.name)
    e = g.exponent()
    by_size = sorted(range(k), key=lambda c: (cd.sizes[c], c))
    mats = {}  # class index -> its class matrix

    def counted(count):
        """The class matrices of the `count` smallest classes, by class index."""
        new = by_size[len(mats):count]
        mats.update(zip(new, class_matrices(g, new)))
        return np.stack([mats[c] for c in sorted(mats)])

    A = counted(int(np.searchsorted(np.cumsum(cd.sizes[by_size]), SCAN_BUDGET, "right")))
    inv_class = cd.class_of[g.inverse_indices()[cd.reps]].tolist()
    rng = random.Random(seed)
    for ell_round in range(4):
        l = _choose_ell(e, n, k, skip=ell_round)
        attempts = 0
        while attempts < MAX_ATTEMPTS:
            try:
                V = _common_eigenvectors(A, k, l, rng)
            except _Unseparated as exc:
                A = counted(len(mats) + 2 * (k - exc.args[0]))
                continue
            attempts += 1
            if V is None:
                continue
            chars = _lift_characters(g, cd, V, inv_class, l)
            if chars is not None:
                table = CharTable(n, classes, power_maps, chars, name=g.name)
                bad = validate(table)
                if bad:
                    raise DixonFailure(f"{g.name or 'group'}: lifted table fails: {bad[0]}")
                return table
    raise DixonFailure(f"no split found for {g.name or 'group'} after all retries")


def _common_eigenvectors(A, k, l, rng):
    """The k common eigenvectors of the class matrices A (r, k, k) mod l,
    as the columns of a k x k array normalized to 1 in row 0, or None.
    With fewer than k class matrices, a split into fewer than k
    eigenvectors raises _Unseparated.

    M = sum_i c_i A[i] for random c is diagonalizable, since the class
    algebra over GF(l) is split semisimple.  A random v0 is split into its
    components in the eigenspaces of M by power-character projectors: for
    random a and r | l - 1, B = (M + aI)^((l-1)/r) acts as the r-th root
    of unity (lam + a)^((l-1)/r) on the eigenspace of lam, and as 0 on
    that of lam = -a.  So for i < r, sum_{j=1..r} zeta_r^(-ij) B^j w is r
    times the part of w in the eigenspaces where B is zeta_r^i, and
    w - B^r w is the part in the eigenspace of -a (the powers start at B^1
    so that this part stays out of the others).  Each round replaces
    every column w by its nonzero parts and moves the columns that M maps
    to a multiple of themselves to the result: one per distinct
    eigenvalue of M met by v0.  When there are k of them, every
    eigenspace of M is a line, and so also one of each class matrix.
    """
    dt = int_dtype(k * (l - 1) ** 2)
    A = A.astype(dt) % l
    coeffs = np.array([rng.randrange(l) for _ in range(len(A))], dtype=dt)
    M = np.tensordot(coeffs, A, axes=1) % l
    root = primitive_root(l)
    W = np.array([[rng.randrange(l)] for _ in range(k)], dtype=dt)
    found = []
    for _ in range(SPLIT_ROUNDS):
        MW = M @ W % l
        piv = (W != 0).argmax(axis=0), np.arange(W.shape[1])
        eig = (MW * W[piv] % l == W * MW[piv] % l).all(axis=0)
        found.append(W[:, eig])
        W = W[:, ~eig]
        if not W.shape[1]:
            break
        # r | l - 1 with r * w <= 2k (or r = 2): the r products B^j W of
        # the w columns then cost at most two k x k products, against about
        # 2 log2(l) for B itself
        r = max(d for d in range(2, max(2, 2 * k // W.shape[1]) + 1) if (l - 1) % d == 0)
        zinv = pow(root, (l - 1) // r * (r - 1), l)  # zeta_r^-1
        Z = np.array([pow(zinv, e, l) for e in range(r)], dtype=dt)[
            np.outer(np.arange(r), np.arange(1, r + 1)) % r]  # Z[i, j-1] = zeta_r^(-ij)
        B = _matrix_power((M + rng.randrange(l) * np.eye(k, dtype=dt)) % l, (l - 1) // r, l)
        Y = [W]
        for _ in range(r):
            Y.append(B @ Y[-1] % l)
        parts = np.tensordot(Z, np.stack(Y[1:]), axes=1) % l
        W = np.concatenate([*parts, (W - Y[-1]) % l], axis=1)
        W = W[:, (W != 0).any(axis=0)]
    else:
        return None
    V = np.concatenate(found, axis=1)
    if V.shape[1] < k:
        if len(A) < k:
            raise _Unseparated(V.shape[1])
        return None
    if (V[0] == 0).any():
        return None
    return V * np.array([pow(int(x), -1, l) for x in V[0]], dtype=dt) % l


def _lift_characters(g, cd, V, inv_class, l):
    """The sorted character rows from the eigenvectors V, or None when a
    degree, a coefficient bound or a coefficient sum rules the split out.

    The values at class m of order o are the discrete Fourier transform
    over GF(l) of the characters at the powers of its representative (the
    classes ``cd.power_classes[m]``, found by the oracle in one lookup for
    all classes).  All classes of one order o are stacked: one product
    with the o x o DFT matrix for all of them and all characters, then one
    product with the o x phi(o) matrix of zeta_o^j on the power basis, so
    equal values give equal rows and each distinct row is one Cyc of
    conductor o.
    """
    k = V.shape[1]
    n = g.order
    orders = [int(o) for o in cd.orders]
    dt = int_dtype(max(k, *orders) * (l - 1) ** 2)
    V = V.astype(dt)
    X = V * np.array([pow(int(s), -1, l) for s in cd.sizes], dtype=dt)[:, None] % l
    # a degree d has d^2 <= n and l > 2 sqrt(n), so d is the only root of
    # d^2 = n / s (mod l) in 1 .. isqrt(n)
    roots = {d * d % l: d for d in range(1, isqrt(n) + 1)}
    degrees = []
    for s in ((X * V[inv_class] % l).sum(axis=0) % l).tolist():
        d = roots.get(n * pow(s, -1, l) % l)
        if d is None:
            return None
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        return None
    D = np.array(degrees, dtype=dt)
    chis = X * D % l  # chis[m, i] = chi_i(class m) mod l
    root = primitive_root(l)
    by_order = {}
    for m, o in enumerate(orders):
        by_order.setdefault(o, []).append(m)
    cols = [None] * len(orders)
    memo = {}
    for o, ms in by_order.items():
        zinv = pow(root, (l - 1) // o * (o - 1), l)  # zeta_o^-1 in GF(l)
        zpow = np.array([pow(zinv, e, l) for e in range(o)], dtype=dt)
        F = zpow[np.outer(np.arange(o), np.arange(o)) % o]  # F[s, j] = zeta_o^(-js)
        P = np.array([cd.power_classes[m] for m in ms])
        # C[c, i, j]: coefficient of zeta_o^j in chi_i at class ms[c]
        C = chis[P].transpose(0, 2, 1) @ F % l * pow(o, -1, l) % l
        if (C > D[:, None]).any() or (C.sum(axis=2) != D).any():
            return None
        # rows of sum_j C[i, j] zeta_o^j on the power basis; each row of C
        # sums to a degree, so entries stay below max(D) * max|R|
        R = power_matrix(o)
        rt = int_dtype(max(degrees) * int(np.abs(R).max()))
        values = []
        for row in (C.reshape(-1, o).astype(rt) @ R.astype(rt)).tolist():
            key = (o, tuple(row))
            if key not in memo:
                memo[key] = Cyc(o, {j: Fraction(x) for j, x in enumerate(row) if x})
            values.append(memo[key])
        for c, m in enumerate(ms):
            cols[m] = values[c * k:(c + 1) * k]
    rows = sorted(zip(*cols), key=_char_sort_key)
    if any(v != Cyc.one() for v in rows[0]):
        # the trivial character must sort first (degree 1, all values 1)
        trivial = next(i for i, r in enumerate(rows) if all(v == Cyc.one() for v in r))
        rows.insert(0, rows.pop(trivial))
    return tuple(rows)


def _char_sort_key(row):
    def cyc_key(a):
        return (a.n, tuple(sorted((e, c.numerator, c.denominator)
                                  for e, c in a.coeffs.items())))

    deg = row[0]
    return (cyc_key(deg), tuple(cyc_key(v) for v in row))
