"""Exact character tables by the Burnside-Dixon-Schneider method.

Class-multiplication matrices are counted only for the classes the split
needs (Schneider's refinement): the smallest classes first, then more,
each batch splitting only the parts the split already holds.  Each is
counted over its class with one right multiplication per representative,
composed from the generators' index permutations along the
representative's word (see perm.py).  Their simultaneous eigenvectors are
found over GF(l) for one prime l = 1 (mod exp(G)) large enough to make
integer lifting unique (l > 2*sqrt(|G|)) and to make a random split
likely (l >= k^2, k the number of classes), and the character values are
lifted to cyclotomic integers through a discrete Fourier inversion over
power classes.  The class matrices never counted are never checked, so
the lifted table must pass row and column orthogonality
(`chartab.validate`) before it is returned.

The GF(l) stage follows Dixon (Numer. Math. 10, 1967) with integer
numpy products on k x k matrices and no polynomial arithmetic.  A random
combination M of the class matrices is diagonalizable with the central
characters as eigenvectors, and a random vector is split into its
eigen-components by power-character projectors built from
(M + aI)^((l-1)/r), r | l - 1.  The lift makes per element order one
product with the DFT matrix and one with the matrix of the powers of
zeta_o on the tensor basis of `cyclo`.  Arrays are int64 when
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
from .cyclo import Cyc, power_terms, tensor_basis
from .numutil import is_prime, primitive_root
from .perm import PermGroup


class DixonFailure(RuntimeError):
    """No split attempt found k central characters, or the lift or `validate` failed."""


def class_matrices(g: PermGroup, rows) -> np.ndarray:
    """Class-algebra structure constants A[i] for the distinct class indices
    i in rows, as one (len(rows), k, k) int64 array: A[r, j, m] = a_{ijm}
    for i = rows[r], where class_sum(i) * class_sum(j) = sum_m a_{ijm} *
    class_sum(m).

    a_{ijm} is the number of x in C_i with x^-1 * z_m in C_j, z_m the
    representative of class m, so only the elements of the classes in
    rows are counted.  The indices of x^-1 * z_m for those x are the
    right multiplication by z_m applied to their inverse indices, which
    ``right_mults`` composes from the generators' along the word of z_m:
    one gather per distinct word prefix and no element lookups.
    """
    cd = g.conjugacy_data()
    k = len(cd.reps)
    slot = np.full(k, -1)
    slot[list(rows)] = np.arange(len(rows))
    xs = np.flatnonzero(slot.take(cd.class_of) >= 0)
    row = slot.take(cd.class_of[xs]) * k
    A = np.empty((len(rows), k, k), dtype=np.int64)
    for rep, y in g.right_mults(g.inverse_indices()[xs], cd.reps):
        A[:, :, cd.class_of[rep]] = np.bincount(row + cd.class_of.take(y),
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


def _choose_ell(exponent: int, order: int, k: int) -> int:
    """The first prime l = 1 (mod exponent) above max(2*sqrt(order)+2, k^2).

    l > 2*sqrt(|G|) makes the lift of every value unique.  l >= k^2 makes a
    split attempt fail with probability at most 1/2: the eigenvalues of two
    characters under random coefficients collide with probability 1/l, and
    there are fewer than k^2 / 2 pairs.
    """
    bound = max(2 * isqrt(order) + 2, k * k)
    l = exponent + 1
    while l <= bound or not is_prime(l):
        l += exponent
    return l


# -- the main engine --------------------------------------------------


#: elements counted for the first split's class matrices: a group this
#: small counts every class matrix
SCAN_BUDGET = 2048

#: rounds of the eigenvector split before it returns the parts it has
SPLIT_ROUNDS = 32

#: split attempts, each from a new random vector, before dixon_table gives up
MAX_ATTEMPTS = 32


def dixon_table(g: PermGroup) -> CharTable:
    """The exact character table of an enumerated permutation group.

    Each attempt splits one random vector, first with the class matrices
    of the smallest classes, by size then index, whose sizes sum to at most
    SCAN_BUDGET.  While it has r < k parts, the next 2 * (k - r) classes
    split those parts further.  k parts are the central characters, so the
    table does not depend on the classes used; an attempt that runs out of
    classes is followed by a new one.  A failed lift or `validate` raises
    DixonFailure.
    """
    cd = g.conjugacy_data()
    k = len(cd.reps)
    classes = tuple(ClassData(size=int(s), element_order=o)
                    for s, o in zip(cd.sizes, cd.orders))
    power_maps = {p: tuple(m) for p, m in cd.power_maps.items()}
    if k == 1:
        return CharTable(1, classes, power_maps, ((Cyc.one(),),), name=g.name)
    by_size = sorted(range(k), key=lambda c: (cd.sizes[c], c))
    first = int(np.searchsorted(np.cumsum(cd.sizes[by_size]), SCAN_BUDGET, "right"))
    mats = {}  # class index -> its class matrix

    def counted(batch):  # the class matrices of batch, by class index
        new = [c for c in batch if c not in mats]
        if new:
            mats.update(zip(new, class_matrices(g, new)))
        return np.stack([mats[c] for c in sorted(batch)])

    l = _choose_ell(g.exponent(), g.order, k)
    dt = int_dtype(k * (l - 1) ** 2)
    rng = random.Random(1)
    for _ in range(MAX_ATTEMPTS):
        V = _common_eigenvectors(counted(by_size[:first]), None, l, dt, rng)
        used = first
        while V.shape[1] < k and used < k:
            batch = by_size[used:used + 2 * (k - V.shape[1])]
            used += len(batch)
            V = _common_eigenvectors(counted(batch), V, l, dt, rng)
        if V.shape[1] == k:
            break
    else:
        raise DixonFailure(f"{g.name or 'group'}: no split in {MAX_ATTEMPTS} attempts")
    inv_class = cd.class_of[g.inverse_indices()[cd.reps]].tolist()
    chars = _lift_characters(g, cd, V, inv_class, l)
    table = CharTable(g.order, classes, power_maps, chars, name=g.name)
    bad = validate(table)
    if bad:
        raise DixonFailure(f"{g.name or 'group'}: lifted table fails: {bad[0]}")
    return table


def _common_eigenvectors(A, W, l, dt, rng):
    """The parts of the columns of W (k, r), or of a random vector when W
    is None, in the eigenspaces of a random combination M of the class
    matrices A (s, k, k) mod l: one column of dtype dt per distinct
    eigenvalue of M met by each column.

    M = sum_i c_i A[i] for random c is diagonalizable, since the class
    algebra over GF(l) is split semisimple.  A column w is split into its
    components in the eigenspaces of M by power-character projectors: for
    random a and r | l - 1, B = (M + aI)^((l-1)/r) acts as the r-th root
    of unity (lam + a)^((l-1)/r) on the eigenspace of lam, and as 0 on
    that of lam = -a.  So for i < r, sum_{j=1..r} zeta_r^(-ij) B^j w is r
    times the part of w in the eigenspaces where B is zeta_r^i, and
    w - B^r w is the part in the eigenspace of -a (the powers start at B^1
    so that this part stays out of the others).  Each round replaces
    every column by its nonzero parts and moves those that M maps to a
    multiple of themselves to the result; columns still joined after
    SPLIT_ROUNDS rounds are dropped.  M commutes with the earlier class
    matrices, so parts of their common eigenvectors W are common
    eigenvectors too, and k parts span k lines: the central characters.
    """
    A = A.astype(dt) % l
    k = A.shape[1]
    coeffs = np.array([rng.randrange(l) for _ in range(len(A))], dtype=dt)
    M = np.tensordot(coeffs, A, axes=1) % l
    if W is None:
        W = np.array([[rng.randrange(l)] for _ in range(k)], dtype=dt)
    root = primitive_root(l)
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
    return np.concatenate(found, axis=1)


def _lift_characters(g, cd, V, inv_class, l):
    """The sorted character rows from the central characters V (k, k) mod l,
    one per column in any scale; a check that rules V out raises DixonFailure.

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
    if (V[0] == 0).any():
        raise DixonFailure("a central character is 0 at the identity")
    V = V.astype(dt) * np.array([pow(int(x), -1, l) for x in V[0]], dtype=dt) % l
    X = V * np.array([pow(int(s), -1, l) for s in cd.sizes], dtype=dt)[:, None] % l
    # a degree d has d^2 <= n and l > 2 sqrt(n), so d is the only root of
    # d^2 = n / s (mod l) in 1 .. isqrt(n)
    roots = {d * d % l: d for d in range(1, isqrt(n) + 1)}
    degrees = []
    for s in ((X * V[inv_class] % l).sum(axis=0) % l).tolist():
        d = roots.get(n * pow(s, -1, l) % l)
        if d is None:
            raise DixonFailure("a central character has no degree")
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        raise DixonFailure("the squared degrees do not sum to the group order")
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
        if (C > D[:, None]).any():
            raise DixonFailure(f"a coefficient at order {o} exceeds its degree")
        if (C.sum(axis=2) != D).any():
            raise DixonFailure(f"coefficients at order {o} do not sum to the degree")
        # rows of sum_j C[i, j] zeta_o^j on the tensor basis; each row of C
        # is nonnegative and sums to a degree, and T is 0/+-1, so entries
        # stay within max(D)
        exponents, T = tensor_basis(o)
        rt = int_dtype(max(degrees))
        values = []
        for row in (C.reshape(-1, o).astype(rt) @ T.astype(rt)).tolist():
            key = (o, tuple(row))
            if key not in memo:
                memo[key] = Cyc(o, {b: Fraction(x) for b, x in zip(exponents, row) if x})
            values.append(memo[key])
        for c, m in enumerate(ms):
            cols[m] = values[c * k:(c + 1) * k]
    terms = {v: (v.n, [(e, c.numerator, c.denominator) for e, c in power_terms(v)])
             for v in memo.values()}
    return tuple(sorted(zip(*cols), key=lambda row: _char_sort_key(row, terms)))


def _char_sort_key(row, terms):
    """The trivial character first (degree 1, all values 1), then by the
    conductor and power-basis coefficients of each value in turn, read
    from terms."""
    return (any(v != Cyc.one() for v in row), tuple(terms[v] for v in row))
