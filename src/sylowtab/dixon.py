"""Exact character tables by the Burnside-Dixon-Schneider method.

The class-multiplication matrices are counted with one right
multiplication per class, composed from the generators' index
permutations along the representative's word, so a group of order n
with g generators needs O(n * g) element lookups in all (see perm.py).
Their simultaneous eigenvectors are found over GF(l) for a prime
l = 1 (mod exp(G)) large enough to make integer lifting unique
(l > 2*sqrt(|G|)), and the character values are lifted to cyclotomic
integers through a discrete Fourier inversion over power classes.

All the finite-field work is plain Python integer arithmetic on k x k
matrices (k = number of classes), which is tiny next to the permutation
counting; the counting itself is vectorized in perm.py terms.
"""

from __future__ import annotations

import random
from math import isqrt

import numpy as np

from .chartab import CharTable, ClassData
from .cyclo import Cyc, cyc_root
from .numutil import is_prime
from .perm import PermGroup


class DixonFailure(RuntimeError):
    """Eigenvalue splitting failed for every attempted field."""


def class_matrices(g: PermGroup) -> list[np.ndarray]:
    """Class-algebra structure constants: mats[i][j, m] = a_{ijm} where
    class_sum(i) * class_sum(j) = sum_m a_{ijm} * class_sum(m).

    a_{ijm} is the number of x in C_i with x^-1 * z_m in C_j, z_m the
    representative of class m.  The indices of x^-1 * z_m for all x are
    the right multiplication by z_m applied to the inverse indices, which
    ``right_mults`` composes from the generators' along the word of z_m:
    O(|G|) gathers per distinct word prefix and no element lookups.
    """
    cd = g.conjugacy_data()
    k = len(cd.reps)
    row = cd.class_of * k
    A = np.empty((k, k, k), dtype=np.int64)
    for rep, y in g.right_mults(g.index_batch(g.inverses()), cd.reps):
        A[:, :, cd.class_of[rep]] = np.bincount(row + cd.class_of[y],
                                                minlength=k * k).reshape(k, k)
    return [A[i] for i in range(k)]


# -- GF(l) polynomial and matrix helpers (plain ints) ------------------


def _mat_vec(M, v, l):
    return [sum(int(M[j][m]) * v[m] for m in range(len(v))) % l for j in range(len(v))]


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
    """All roots of f, or None if f does not split into distinct linear factors."""
    f = _poly_trim(list(f))
    roots = []
    if f and f[0] == 0:
        roots.append(0)
        f = _poly_divmod(f, [0, 1], l)[0]
    deriv = _poly_trim([(i * c) % l for i, c in enumerate(f)][1:])
    if len(_poly_gcd(f, deriv, l)) != 1:
        return None
    xl = _poly_powmod([0, 1], l, f, l)
    width = max(len(xl), 2)
    diff = [((xl[i] if i < len(xl) else 0) - (1 if i == 1 else 0)) % l for i in range(width)]
    if _poly_trim(diff):
        return None  # x^l != x mod f: some factor is nonlinear

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


def _min_poly_of_vector(M, v, l):
    """Minimal monic polynomial h with h(M) v = 0, via a tracked Krylov basis."""
    k = len(v)
    ech = []  # (pivot, normalized reduced vector, its polynomial coefficients)
    cur = list(v)
    j = 0
    while True:
        w = list(cur)
        poly = [0] * j + [1]
        for pivot, vec, pc in ech:
            f = w[pivot]
            if f:
                w = [(a - f * b) % l for a, b in zip(w, vec)]
                poly = [(a - f * b) % l for a, b in
                        zip(poly + [0] * len(pc), pc + [0] * len(poly))][: max(len(poly), len(pc))]
        nz = next((i for i, a in enumerate(w) if a), None)
        if nz is None:
            return _poly_trim(poly)
        inv = pow(w[nz], -1, l)
        ech.append((nz, [a * inv % l for a in w], [a * inv % l for a in poly]))
        cur = _mat_vec(M, cur, l)
        j += 1
        if j > k:  # pragma: no cover
            raise AssertionError("Krylov loop exceeded the matrix dimension")


def _nullspace_vector(M, lam, l):
    """A nonzero kernel vector of (M - lam*I); None unless the kernel is 1-dim."""
    k = len(M)
    A = [[(int(M[i][j]) - (lam if i == j else 0)) % l for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, k) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, l)
        A[r] = [x * inv % l for x in A[r]]
        for i in range(k):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % l for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    v = [0] * k
    v[fc] = 1
    for row, c in zip(range(len(pivots)), pivots):
        v[c] = (-A[row][fc]) % l
    return v


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


def _primitive_root(l):
    phi = l - 1
    from .numutil import factorize

    primes = list(factorize(phi))
    for w in range(2, l):
        if all(pow(w, phi // r, l) != 1 for r in primes):
            return w
    raise AssertionError


def _choose_ell(exponent: int, order: int, skip: int = 0) -> int:
    bound = 2 * isqrt(order) + 2
    l = exponent + 1
    found = 0
    while True:
        if l > bound and is_prime(l):
            if found == skip:
                return l
            found += 1
        l += exponent


# -- the main engine --------------------------------------------------


def dixon_table(g: PermGroup, seed: int = 1, max_attempts: int = 8) -> CharTable:
    """The exact character table of an enumerated permutation group."""
    cd = g.conjugacy_data()
    k = len(cd.reps)
    n = g.order
    classes = tuple(ClassData(size=int(s), element_order=o)
                    for s, o in zip(cd.sizes, cd.orders))
    power_maps = {p: tuple(m) for p, m in cd.power_maps.items()}
    if k == 1:
        return CharTable(1, classes, power_maps, ((Cyc.one(),),), name=g.name)
    e = g.exponent()
    mats = class_matrices(g)
    inv_class = [int(cd.class_of[g.inv_index(r)]) for r in cd.reps]
    rng = random.Random(seed)
    for ell_round in range(4):
        l = _choose_ell(e, n, skip=ell_round)
        for _ in range(max_attempts):
            vecs = _common_eigenvectors(mats, k, l, rng)
            if vecs is None:
                continue
            table = _lift_characters(g, cd, vecs, inv_class, l)
            if table is not None:
                t = CharTable(n, classes, power_maps, table, name=g.name)
                return t
    raise DixonFailure(f"no split found for {g.name or 'group'} after all retries")


def _common_eigenvectors(mats, k, l, rng):
    """k one-dimensional common eigenspaces of the class matrices, or None."""
    coeffs = [rng.randrange(l) for _ in range(k)]
    M = [[sum(c * int(mat[i][j]) for c, mat in zip(coeffs, mats)) % l
          for j in range(k)] for i in range(k)]
    v0 = [rng.randrange(l) for _ in range(k)]
    h = _min_poly_of_vector(M, v0, l)
    if len(h) - 1 != k:
        return None
    roots = _roots_of_split_poly(h, l, rng)
    if roots is None or len(roots) != k:
        return None
    vecs = []
    for lam in sorted(roots):
        v = _nullspace_vector(M, lam, l)
        if v is None or v[0] == 0:
            return None
        inv0 = pow(v[0], -1, l)
        v = [a * inv0 % l for a in v]  # now v[m] = omega(class m)
        for mat in mats:
            mv = _mat_vec(mat, v, l)
            theta = mv[0]  # since v[0] = 1
            if any(x != theta * y % l for x, y in zip(mv, v)):
                return None
        vecs.append(v)
    return vecs


def _lift_characters(g, cd, vecs, inv_class, l):
    k = len(vecs)
    n = g.order
    sizes = [int(s) for s in cd.sizes]
    degrees = []
    chis_mod = []
    for v in vecs:
        s = sum(v[m] * v[inv_class[m]] * pow(sizes[m], -1, l) for m in range(k)) % l
        d2 = n * pow(s, -1, l) % l
        try:
            d = _sqrt_mod(d2, l)
        except ValueError:
            return None
        d = min(d, l - d)
        if d == 0 or d * d > n:
            return None
        degrees.append(d)
        chis_mod.append([d * v[m] * pow(sizes[m], -1, l) % l for m in range(k)])
    if sum(d * d for d in degrees) != n:
        return None
    w = _primitive_root(l)
    # power classes: class of rep^s for s < order
    power_class = []
    for m, rep in enumerate(cd.reps):
        o = cd.orders[m]
        row = [0]  # rep^0 is the identity, class 0
        idx = rep
        for s in range(1, o):
            row.append(int(cd.class_of[idx]))
            idx = g.mul_index(idx, rep)
        power_class.append(row)
    rows = []
    for d, chi in zip(degrees, chis_mod):
        values = []
        for m in range(k):
            o = cd.orders[m]
            z = pow(w, (l - 1) // o, l)
            zinv = pow(z, -1, l)
            oinv = pow(o, -1, l)
            coeffs = []
            for j in range(o):
                c = oinv * sum(chi[power_class[m][s]] * pow(zinv, j * s, l)
                               for s in range(o)) % l
                if c > d:
                    return None
                coeffs.append(c)
            if sum(coeffs) != d:
                return None
            val = Cyc.zero()
            for j, c in enumerate(coeffs):
                if c:
                    val = val + c * cyc_root(o, j)
            values.append(val)
        rows.append(tuple(values))
    rows.sort(key=_char_sort_key)
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
