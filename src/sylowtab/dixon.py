"""Exact character tables by the Burnside-Dixon-Schneider method.

Class-multiplication matrices are counted only for the classes the split
needs (Schneider's refinement): the smallest classes first, with more
added while the Krylov matrix shows characters still unseparated.  Each
is counted over the elements of its class with one right multiplication
per class representative, composed from the generators' index
permutations along the representative's word (see perm.py).  Their
simultaneous eigenvectors are found over GF(l) for a prime
l = 1 (mod exp(G)) large enough to make integer lifting unique
(l > 2*sqrt(|G|)) and to make a random split likely (l >= k^2, k the
number of classes), and the character values are lifted to cyclotomic
integers through a discrete Fourier inversion over power classes.  The
class matrices never counted are never checked, so the lifted table must
pass row and column orthogonality (`chartab.validate`) before it is
returned.

The GF(l) work is integer numpy products on k x k matrices: one Krylov
matrix of a random combination of the class matrices, one elimination
for its minimal polynomial, all eigenvectors in one product, and per
class one product with the DFT matrix and one with the matrix of the
powers of zeta_o on the power basis.  Arrays are int64 when
k * (l-1)^2 (o * (l-1)^2 for a DFT of size o) is below 2^63, and
Python ints otherwise, with the same code.  Each distinct lifted value
is built as one Cyc, so it is canonicalized once.
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


# -- GF(l) polynomial and matrix helpers ------------------------------


def _solve_mod(K, l):
    """Gauss-Jordan elimination of the k x (k+1) matrix K mod the prime l:
    (c, r) with c the solution of K[:, :k] c = K[:, k], or None when
    K[:, :k] is singular, and r its first column with no pivot (k if
    none).  For a Krylov matrix r is its rank.  Each step is one
    outer-product update of the whole matrix."""
    K = K.copy()
    k = K.shape[0]
    for c in range(k):
        nz = np.flatnonzero(K[c:, c])
        if not nz.size:
            return None, c
        r = c + int(nz[0])
        if r != c:
            K[[c, r]] = K[[r, c]]
        K[c] = K[c] * pow(int(K[c, c]), -1, l) % l
        col = K[:, c].copy()
        col[c] = 0
        K = (K - col[:, None] * K[c]) % l
    return K[:, k], k


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_divmod(a, b, l):
    a = list(a)
    db, lead_inv = len(b) - 1, pow(b[-1], -1, l)
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * lead_inv % l
        if c:
            q[i - db] = c
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * bj) % l
    return _poly_trim(q), _poly_trim(a[:db])

def _poly_gcd(a, b, l):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, l)[1]
    if a:
        inv = pow(a[-1], -1, l)
        a = [c * inv % l for c in a]
    return a


def _poly_mulmod(a, b, f, l):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % l
    return _poly_divmod(out, f, l)[1]


def _poly_powmod(base, e, f, l):
    acc = [1]
    base = _poly_divmod(list(base), f, l)[1]
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, base, f, l)
        base = _poly_mulmod(base, base, f, l)
        e >>= 1
    return acc


def _roots_of_split_poly(f, l, rng):
    """All roots of the monic f, or None if f does not split into distinct
    linear factors over GF(l): exactly when x^l = x mod f, since x^l - x is
    the product of all x - a."""
    f = _poly_trim(list(f))
    if _poly_powmod([0, 1], l, f, l) != _poly_divmod([0, 1], f, l)[1]:
        return None
    roots = []

    def split(poly):
        if len(poly) <= 1:
            return
        if len(poly) == 2:
            roots.append((-poly[0]) * pow(poly[1], -1, l) % l)
            return
        while True:
            a = rng.randrange(l)
            h = _poly_powmod([a, 1], (l - 1) // 2, poly, l)
            h = _poly_trim([(c - (1 if i == 0 else 0)) % l for i, c in enumerate(h)] or [l - 1])
            gcd = _poly_gcd(h, poly, l)
            if 0 < len(gcd) - 1 < len(poly) - 1:
                split(gcd)
                split(_poly_divmod(poly, gcd, l)[0])
                return

    split(f)
    return roots


def _sqrt_mod(a, l):
    """A square root of a modulo the odd prime l (Tonelli-Shanks)."""
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        raise ValueError("not a quadratic residue")
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    q, s = l - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (l - 1) // 2, l) != l - 1:
        z += 1
    m, c, t, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, b * b % l
        t, r = t * c % l, r * b % l
    return r


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


class _Unseparated(Exception):
    """The class matrices in use leave the Krylov matrix singular, of rank
    args[0]: they may not separate the characters."""


def dixon_table(g: PermGroup, seed: int = 1, max_attempts: int = 8) -> CharTable:
    """The exact character table of an enumerated permutation group.

    The split starts from the class matrices of the smallest classes, by
    size then index, whose sizes sum to at most SCAN_BUDGET.  A Krylov
    matrix of rank r < k shows only r distinct eigenvalues among k
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
        while attempts < max_attempts:
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
    With r < k class matrices a singular Krylov matrix raises _Unseparated.

    M = sum_i c_i A[i] for random c; the Krylov matrix [v0, M v0, ..,
    M^k v0] of a random v0 has rank k exactly when the minimal polynomial
    h of v0 has degree k, and then one elimination gives h.  If h splits
    into k distinct roots, every eigenspace of M is one-dimensional and
    q_lam(M) v0 with q_lam = h / (x - lam) spans the lam-eigenspace, so
    all eigenvectors are one product of the Krylov basis with the
    quotients' coefficients.
    """
    dt = int_dtype(k * (l - 1) ** 2)
    A = A.astype(dt) % l
    coeffs = np.array([rng.randrange(l) for _ in range(len(A))], dtype=dt)
    M = np.tensordot(coeffs, A, axes=1) % l
    K = np.empty((k, k + 1), dtype=dt)
    K[:, 0] = [rng.randrange(l) for _ in range(k)]
    for j in range(k):
        K[:, j + 1] = M @ K[:, j] % l
    c, rank = _solve_mod(K, l)
    if c is None:
        if len(A) < k:
            raise _Unseparated(rank)
        return None
    h = [(-int(x)) % l for x in c] + [1]
    roots = _roots_of_split_poly(h, l, rng)
    if roots is None or len(roots) != k:
        return None
    lam = np.array(sorted(roots), dtype=dt)
    Q = np.empty((k, k), dtype=dt)  # column j: coefficients of h / (x - lam_j)
    Q[k - 1] = 1
    for i in range(k - 1, 0, -1):
        Q[i - 1] = (h[i] + lam * Q[i]) % l
    V = K[:, :k] @ Q % l
    if (V[0] == 0).any():
        return None
    V = V * np.array([pow(int(x), -1, l) for x in V[0]], dtype=dt) % l
    for Ai in A:  # V[m, j] = omega_j(class m): an eigenvector of every A[i]
        W = Ai @ V % l
        if (W != W[0] * V % l).any():
            return None
    return V


def _lift_characters(g, cd, V, inv_class, l):
    """The sorted character rows from the eigenvectors V, or None when a
    degree, a coefficient bound or a coefficient sum rules the split out.

    The values at class m of order o are the discrete Fourier transform
    over GF(l) of the characters at the powers of its representative (the
    classes ``cd.power_classes[m]``, found by the oracle in one lookup for
    all classes): one product with the o x o DFT matrix for all
    characters, then one product with the o x phi(o) matrix of zeta_o^j on
    the power basis, so equal values give equal rows and each distinct row
    is one Cyc of conductor o.
    """
    k = V.shape[1]
    n = g.order
    orders = [int(o) for o in cd.orders]
    dt = int_dtype(max(k, *orders) * (l - 1) ** 2)
    V = V.astype(dt)
    X = V * np.array([pow(int(s), -1, l) for s in cd.sizes], dtype=dt)[:, None] % l
    degrees = []
    for s in ((X * V[inv_class] % l).sum(axis=0) % l).tolist():
        d2 = n * pow(s, -1, l) % l
        try:
            d = _sqrt_mod(d2, l)
        except ValueError:
            return None
        d = min(d, l - d)
        if d == 0 or d * d > n:
            return None
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        return None
    D = np.array(degrees, dtype=dt)
    chis = X * D % l  # chis[m, i] = chi_i(class m) mod l
    w = primitive_root(l)
    cols = []
    memo = {}
    for m, o in enumerate(orders):
        zinv = pow(w, (l - 1) // o * (o - 1), l)  # zeta_o^-1 in GF(l)
        zpow = np.array([pow(zinv, e, l) for e in range(o)], dtype=dt)
        F = zpow[np.outer(np.arange(o), np.arange(o)) % o]  # F[s, j] = zeta_o^(-js)
        C = chis[cd.power_classes[m]].T @ F % l * pow(o, -1, l) % l
        if (C > D[:, None]).any() or (C.sum(axis=1) != D).any():
            return None
        # rows of sum_j C[i, j] zeta_o^j on the power basis; each row of C
        # sums to a degree, so entries stay below max(D) * max|R|
        R = power_matrix(o)
        rt = int_dtype(max(degrees) * int(np.abs(R).max()))
        col = []
        for row in (C.astype(rt) @ R.astype(rt)).tolist():
            key = (o, tuple(row))
            if key not in memo:
                memo[key] = Cyc(o, {j: Fraction(c) for j, c in enumerate(row) if c})
            col.append(memo[key])
        cols.append(col)
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
