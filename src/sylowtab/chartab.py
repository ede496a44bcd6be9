"""Character tables and everything the table alone determines.

A CharTable stores class sizes, element orders, power maps and the full
matrix of irreducible character values (exact cyclotomics).  From that we
derive centralizer orders, kernels, the normal subgroup lattice, quotient
tables, the standard p-cores, power classes and the cyclic-Sylow test.

Normal subgroups are unions of conjugacy classes and are represented by a
frozen set of class indices plus the subgroup order (NormalSet).

The exact table algebra (both orthogonality relations, centralizer and
quotient class orders, and the central characters of `blocks`) runs on
one integer encoding per table, `int_values`.  Columns are grouped by
their conductor N (the lcm of the value conductors down the column); with
D the lcm of the coefficient denominators, D * chi_i(c) is an integer
vector in Z[x]/(x^N - 1) for its column's N.  Sums of products within a
group are integer matrix products; one 0/+-1 matrix per N then maps them
to the tensor basis of Q(zeta_N), whose elements are shared by all N
(`_tensor_basis`), so the groups' parts add exactly.  Work grows with k^3
times the square of the largest column conductor, never with the lcm of
all of them.  The arrays are int64 when a bound computed from the table
proves that nothing overflows, and Python ints otherwise; the code is the
same for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import MAX_CONDUCTOR, Cyc, cyc_to_rat
from .numutil import divisors, factorize, lcm, p_part, prime_divisors, valuation

#: desk-scale guard
MAX_CLASSES = 512


@dataclass(frozen=True)
class ClassData:
    size: int
    element_order: int
    name: str | None = None


@dataclass(frozen=True)
class NormalSet:
    """A normal subgroup as the set of conjugacy classes it contains."""

    members: frozenset[int]
    order: int

    def __contains__(self, c: int) -> bool:
        return c in self.members

    def __le__(self, other: "NormalSet") -> bool:
        return self.members <= other.members


class CharTable:
    """An ordinary character table; immutable once built.

    Row 0 is the trivial character, column 0 the identity class.  Power
    maps are required for every prime dividing the group order.  Derived
    data is memoized in `_memo` on the instance, never process-wide:
    "lattice" (normal_lattice), "int_values", "column_sums",
    ("quotient", N) per normal subgroup N, and in `blocks`
    "central_characters" and ("blocks", p).
    """

    def __init__(self, group_order, classes, power_maps, chars, name=None):
        if len(classes) > MAX_CLASSES:
            raise ValueError(f"more than {MAX_CLASSES} classes")
        self.group_order = int(group_order)
        self.classes = tuple(classes)
        self.power_maps = {int(p): tuple(m) for p, m in power_maps.items()}
        self.chars = tuple(tuple(row) for row in chars)
        self.name = name
        self.k = len(self.classes)
        self._memo: dict = {}

    def __repr__(self):
        return f"CharTable({self.name or '?'}, |G|={self.group_order}, k={self.k})"

    def degree(self, i: int) -> int:
        d = cyc_to_rat(self.chars[i][0])
        if d is None or d.denominator != 1 or d <= 0:
            raise ValueError(f"character {i} has invalid degree {self.chars[i][0]!r}")
        return int(d)

    def subset_order(self, members) -> int:
        return sum(self.classes[c].size for c in members)


# -- the integer encoding ---------------------------------------------


@lru_cache(maxsize=None)
def _tensor_basis(n: int) -> tuple[tuple[Fraction, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The tensor basis of Q(zeta_n) and the coordinates of each zeta_n^a on it.

    With n the product of the prime powers q, the basis is the products of
    zeta_q^e over all q, 0 <= e < phi(q).  A basis element is named by its
    angle, sum e/q mod 1.  As zeta_q' = zeta_q^(q/q') for q' | q, the basis
    of Q(zeta_m) is a subset of that of Q(zeta_n) for every m | n, so the
    coordinates of elements of different subfields add angle by angle.

    Returns the angles (angle 0, the rational 1, first) and, for a = 0 ..
    n-1, the (basis index, +-1) terms of zeta_n^a.
    """
    factors = []
    for p, b in factorize(n).items():
        q = p**b
        step = q // p
        # zeta_q^r for r >= phi(q): the p-th roots of unity sum to 0, so it
        # is minus the sum of zeta_q^(r - j q/p), j = 1 .. p-1
        rows = [((r, 1),) if r < q - step else tuple((r - j * step, -1) for j in range(1, p))
                for r in range(q)]
        factors.append((q, pow(n // q, -1, q), rows))
    index = {Fraction(0): 0}
    coords = []
    for a in range(n):
        terms = [(0, 1)]  # (angle * n, sign); zeta_n^a = prod zeta_q^(a (n/q)^-1 mod q)
        for q, inv, rows in factors:
            terms = [(x + e * (n // q), s * u) for x, s in terms for e, u in rows[a * inv % q]]
        coords.append(tuple((index.setdefault(Fraction(x % n, n), len(index)), s)
                            for x, s in terms))
    return tuple(index), tuple(coords)


@dataclass(frozen=True)
class ColumnGroup:
    """The classes whose columns share one conductor N, encoded at N.

    `values[i, j, a]` is coefficient a of D * chi_i(columns[j]) in
    Z[x]/(x^N - 1), x standing for zeta_N: each Cyc's power-basis
    coefficients at its own conductor n are placed at exponents scaled by
    N/n, with no reduction.  Row a of `basis` holds the coordinates of
    zeta_N^a on the tensor basis of Q(zeta_N) and `keys` the table-wide
    index of each of its elements, so `vec @ basis` gives exact
    coordinates that add across groups.
    """

    conductor: int  # N: lcm of the value conductors of each of these columns
    columns: np.ndarray  # (kN,) class indices, ascending
    values: np.ndarray  # (k, kN, N)
    basis: np.ndarray  # (N, phi(N)), entries 0 and +-1
    keys: np.ndarray  # (phi(N),) table-wide basis index; 0 is the rational 1


@dataclass(frozen=True)
class IntValues:
    """The table's values as integer vectors, one ColumnGroup per conductor."""

    groups: tuple[ColumnGroup, ...]
    sizes: np.ndarray  # (k,) class sizes
    denominator: int  # D: lcm of the coefficient denominators
    width: int  # tensor-basis elements over all groups


def int_dtype(bound: int):
    """int64 when every value is provably below 2^63 in size, else Python ints."""
    return np.int64 if bound < 1 << 63 else object


def _column_conductors(t: CharTable) -> list[int]:
    """The lcm of the value conductors down each column."""
    out = [1] * t.k
    for row in t.chars:
        for c, v in enumerate(row):
            out[c] = lcm(out[c], v.n)
    return out


def _conductor_message(c: int, n: int) -> str:
    return f"class {c}: values need conductor {n}, over the cap {MAX_CONDUCTOR}"


def int_values(t: CharTable) -> IntValues:
    """The integer encoding of `t`, built once and memoized on the table.

    The dtype is int64 when a bound from |G|, the largest class size and
    the largest l1 norm of a value vector shows that no product or sum of
    the table algebra leaves int64 (the basis matrices have entries 0 and
    +-1 and so do not raise l1 norms); otherwise Python ints in object
    arrays.  Either way the arithmetic is exact.
    """
    iv = t._memo.get("int_values")
    if iv is not None:
        return iv
    k = t.k
    conds = _column_conductors(t)
    for c, n in enumerate(conds):
        if n > MAX_CONDUCTOR:
            raise ValueError(_conductor_message(c, n))
    den = 1
    for row in t.chars:
        for v in row:
            for q in v.coeffs.values():
                den = lcm(den, q.denominator)
    l1 = max(sum(abs(q.numerator) * (den // q.denominator) for q in v.coeffs.values())
             for row in t.chars for v in row)
    maxsize = max(abs(cls.size) for cls in t.classes)
    # a sum over k classes (or characters) of |C| * a * b, a and b value
    # vectors, has l1 norm <= k * maxsize * l1^2; targets are D^2 |G|
    dt = int_dtype(max(den * den * abs(t.group_order), k * l1 * l1 * maxsize))
    keys = {Fraction(0): 0}
    groups = []
    for n in sorted(set(conds)):
        cols = [c for c in range(k) if conds[c] == n]
        index, entries = [], []
        for i, row in enumerate(t.chars):
            for j, c in enumerate(cols):
                v = row[c]
                base, step = (i * len(cols) + j) * n, n // v.n
                for e, q in v.coeffs.items():
                    index.append(base + e * step)
                    entries.append(q.numerator * (den // q.denominator))
        values = np.zeros(k * len(cols) * n, dtype=dt)
        values[index] = entries
        angles, coords = _tensor_basis(n)
        basis = np.zeros((n, len(angles)), dtype=dt)
        for a, terms in enumerate(coords):
            for b, s in terms:
                basis[a, b] = s
        groups.append(ColumnGroup(
            conductor=n, columns=np.array(cols), values=values.reshape(k, len(cols), n),
            basis=basis, keys=np.array([keys.setdefault(x, len(keys)) for x in angles])))
    iv = IntValues(groups=tuple(groups),
                   sizes=np.array([cls.size for cls in t.classes], dtype=dt),
                   denominator=den, width=len(keys))
    t._memo["int_values"] = iv
    return iv


def _equals_rational(a: np.ndarray, q) -> np.ndarray:
    """Which coordinate vectors a[..., :] are the rational numbers q."""
    return (a[..., 0] == q) & ~(a[..., 1:] != 0).any(axis=-1)


def _positive_integer(val, irrational: bool, d2: int) -> int | None:
    """val / d2 when a rational sum val is a positive multiple of d2."""
    val = int(val)
    if irrational or val % d2 or val <= 0:
        return None
    return val // d2


def _row_sums(iv: IntValues) -> np.ndarray:
    """D^2 sum_c |C| chi_i(c) conj(chi_j(c)) for all i, j on the table-wide
    tensor basis: (k, k, width).

    In a group, coefficient s of the product in Z[x]/(x^N - 1) pairs
    coefficient a of chi_i with coefficient a - s of chi_j, i.e. with chi_j
    rolled by s.
    """
    k = iv.sizes.shape[0]
    out = np.zeros((k, k, iv.width), dtype=iv.sizes.dtype)
    for g in iv.groups:
        v, n = g.values, g.conductor
        flat = (k, v.shape[1] * n)
        left = (v * iv.sizes[g.columns][None, :, None]).reshape(flat)
        prod = np.empty((k, k, n), dtype=v.dtype)
        for s in range(n):
            prod[:, :, s] = left @ np.roll(v, s, axis=2).reshape(flat).T
        out[:, :, g.keys] += prod @ g.basis
    return out


def _norm_sums(iv: IntValues, rows) -> tuple[np.ndarray, np.ndarray]:
    """D^2 sum_{i in rows} |chi_i(c)|^2 for every class c: its rational
    part and whether it has any other part, two (k,) arrays."""
    k = iv.sizes.shape[0]
    rational = np.zeros(k, dtype=iv.sizes.dtype)
    irrational = np.zeros(k, dtype=bool)
    for g in iv.groups:
        v = g.values[rows]
        prod = np.empty((v.shape[1], g.conductor), dtype=v.dtype)
        for s in range(g.conductor):
            prod[:, s] = (v * np.roll(v, s, axis=2)).sum(axis=(0, 2))
        coords = prod @ g.basis
        rational[g.columns] = coords[:, 0]
        irrational[g.columns] = (coords[:, 1:] != 0).any(axis=1)
    return rational, irrational


def _column_sums(t: CharTable) -> tuple[np.ndarray, np.ndarray]:
    """_norm_sums over all characters (the second orthogonality relation),
    memoized on the table."""
    cols = t._memo.get("column_sums")
    if cols is None:
        cols = t._memo["column_sums"] = _norm_sums(int_values(t), slice(None))
    return cols


# -- validation -------------------------------------------------------


def validate(t: CharTable) -> list[str]:
    """All invariant violations of the table; empty list means valid."""
    bad: list[str] = []
    n = t.group_order
    if len(t.chars) != t.k:
        bad.append(f"character count {len(t.chars)} != class count {t.k}")
        return bad
    if any(len(row) != t.k for row in t.chars):
        bad.append("ragged character matrix")
        return bad
    if sum(c.size for c in t.classes) != n:
        bad.append("class sizes do not sum to the group order")
    if t.classes[0].size != 1 or t.classes[0].element_order != 1:
        bad.append("column 0 is not the identity class")
    if any(t.chars[0][c] != Cyc.one() for c in range(t.k)):
        bad.append("row 0 is not the trivial character")
    for c, cls in enumerate(t.classes):
        if cls.size <= 0 or n % cls.size:
            bad.append(f"class {c}: size {cls.size} does not divide |G|")
        if cls.element_order <= 0 or n % cls.element_order:
            bad.append(f"class {c}: element order {cls.element_order} does not divide |G|")
    for p in prime_divisors(n):
        pm = t.power_maps.get(p)
        if pm is None or len(pm) != t.k:
            bad.append(f"power map for prime {p} missing or wrong length")
            continue
        for c in range(t.k):
            o = t.classes[c].element_order
            expect = o // (p if o % p == 0 else 1)
            if t.classes[pm[c]].element_order != expect:
                bad.append(f"power map p={p} inconsistent at class {c}")
    if set(t.power_maps) != set(prime_divisors(n)):
        bad.append("power map primes do not match the prime divisors of |G|")
    # orthogonality (row, then column against class sizes), times D^2
    big = [(c, m) for c, m in enumerate(_column_conductors(t)) if m > MAX_CONDUCTOR]
    bad += [_conductor_message(c, m) for c, m in big]
    if not big:
        iv = int_values(t)
        want = iv.denominator**2 * n
        target = np.zeros((t.k, t.k), dtype=iv.sizes.dtype)
        np.fill_diagonal(target, want)
        row_ok = _equals_rational(_row_sums(iv), target)
        for i, j in zip(*np.nonzero(np.triu(~row_ok))):
            bad.append(f"row orthogonality fails for characters {i}, {j}")
        rational, irrational = _column_sums(t)
        for c in np.flatnonzero(irrational | (rational * iv.sizes != want)):
            bad.append(f"column orthogonality fails at class {c}")
    try:
        for i in range(t.k):
            t.degree(i)
    except ValueError as exc:
        bad.append(str(exc))
    return bad


# -- elementary invariants --------------------------------------------


def centralizer_order(t: CharTable, c: int) -> int:
    """|C_G(x)| for x in class c, via the second orthogonality relation."""
    rational, irrational = _column_sums(t)
    val = _positive_integer(rational[c], irrational[c], int_values(t).denominator**2)
    if val is None:
        raise ValueError(f"non-integral centralizer order at class {c}")
    return val


def kernel_of(t: CharTable, i: int) -> NormalSet:
    deg = t.chars[i][0]
    members = frozenset(c for c in range(t.k) if t.chars[i][c] == deg)
    return NormalSet(members, t.subset_order(members))


def normal_lattice(t: CharTable) -> frozenset[NormalSet]:
    """All normal subgroups: kernels closed under pairwise intersection."""
    if "lattice" in t._memo:
        return t._memo["lattice"]
    sets = {kernel_of(t, i).members for i in range(t.k)}
    frontier = set(sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in sets:
                c = a & b
                if c not in sets and c not in new:
                    new.add(c)
        sets |= new
        frontier = new
    out = frozenset(NormalSet(m, t.subset_order(m)) for m in sets)
    for ns in out:
        if t.group_order % ns.order:
            raise ValueError("normal-set order does not divide |G| (invalid table)")
    t._memo["lattice"] = out
    return out


def normal_join(t: CharTable, parts) -> NormalSet:
    """Smallest normal subgroup containing all the given NormalSets."""
    union = frozenset().union(*[p.members for p in parts]) if parts else frozenset([0])
    best = None
    for ns in normal_lattice(t):
        if union <= ns.members and (best is None or ns.order < best.order):
            best = ns
    assert best is not None
    return best


def minimal_normals(t: CharTable) -> list[NormalSet]:
    lat = [ns for ns in normal_lattice(t) if ns.order > 1]
    out = [ns for ns in lat if not any(o.order > 1 and o.members < ns.members for o in lat)]
    return sorted(out, key=lambda ns: (ns.order, sorted(ns.members)))


def power_class(t: CharTable, c: int, m: int) -> int:
    """Class of x^m for x in class c, composing the power maps of m's prime
    factors.  m is not reduced modulo the element order: 13 mod 8 = 5 need
    not divide |G|, so it may have no power map."""
    if m % t.classes[c].element_order == 0:
        return 0
    for p, e in factorize(m).items():
        for _ in range(e):
            c = t.power_maps[p][c]
    return c


def is_p_element(t: CharTable, c: int, p: int) -> bool:
    o = t.classes[c].element_order
    stored = len(factorize(o)) == 0 or factorize(o).keys() <= {p}
    if p in t.power_maps:
        cur, steps = c, 0
        while cur != 0 and steps <= valuation(t.group_order, p) + 1:
            cur = t.power_maps[p][cur]
            steps += 1
        via_maps = cur == 0
        if via_maps != stored:
            raise ValueError(f"element order and power maps disagree at class {c}")
    return stored


def core_subgroups(t: CharTable, p: int) -> tuple[NormalSet, NormalSet, NormalSet]:
    """(O_{p'}(G), O_p(G), O^{p'}(G)) from the normal lattice."""
    lat = normal_lattice(t)
    coprime = [ns for ns in lat if ns.order % p]
    o_pprime = max(coprime, key=lambda ns: ns.order)
    if not all(ns <= o_pprime for ns in coprime):
        raise ValueError("no unique largest normal p'-subgroup (invalid table)")
    ppower = [ns for ns in lat if ns.order == p_part(ns.order, p)]
    o_p = max(ppower, key=lambda ns: ns.order)
    if not all(ns <= o_p for ns in ppower):
        raise ValueError("no unique largest normal p-subgroup (invalid table)")
    coind = [ns for ns in lat if (t.group_order // ns.order) % p]
    o_upper = min(coind, key=lambda ns: ns.order)
    if not all(o_upper <= ns for ns in coind):
        raise ValueError("no unique smallest normal subgroup of p'-index (invalid table)")
    return o_pprime, o_p, o_upper


def has_cyclic_sylow(t: CharTable, p: int) -> bool:
    target = p_part(t.group_order, p)
    return any(cls.element_order == target for cls in t.classes) or target == 1


# -- quotient tables --------------------------------------------------


def quotient_table(t: CharTable, N: NormalSet) -> CharTable:
    """The character table of G/N, from the characters containing N;
    memoized on `t` per N, so the quotient keeps its own memos."""
    key = ("quotient", N)
    if key in t._memo:
        return t._memo[key]
    if N.members not in {ns.members for ns in normal_lattice(t)}:
        raise ValueError("not a normal subgroup of this table")
    rows = [i for i in range(t.k) if N.members <= kernel_of(t, i).members]
    # columns collapse when every surviving character agrees
    col_key = {}
    rep_cols: list[int] = []
    col_class: list[int] = []
    for c in range(t.k):
        key_c = tuple(t.chars[i][c] for i in rows)
        if key_c not in col_key:
            col_key[key_c] = len(rep_cols)
            rep_cols.append(c)
        col_class.append(col_key[key_c])
    q_order = t.group_order // N.order
    # class sizes via second orthogonality in the quotient
    iv = int_values(t)
    rational, irrational = _norm_sums(iv, rows)
    sizes = []
    for c in rep_cols:
        cent = _positive_integer(rational[c], irrational[c], iv.denominator**2)
        if cent is None or q_order % cent:
            raise ValueError("quotient centralizer order is not an integer divisor")
        sizes.append(q_order // cent)
    # element orders: least n with x^n inside N
    orders = []
    for c in rep_cols:
        o = t.classes[c].element_order
        for d in divisors(o):
            if power_class(t, c, d) in N.members:
                orders.append(d)
                break
    power_maps = {}
    for p in prime_divisors(q_order):
        power_maps[p] = tuple(col_class[power_class(t, c, p)] for c in rep_cols)
    classes = tuple(ClassData(size=s, element_order=o) for s, o in zip(sizes, orders))
    chars = tuple(tuple(t.chars[i][c] for c in rep_cols) for i in rows)
    name = f"{t.name}/N{N.order}" if t.name else None
    qt = CharTable(q_order, classes, power_maps, chars, name=name)
    if qt.classes[0].size != 1:
        raise ValueError("identity class lost in quotient (invalid input)")
    t._memo[key] = qt
    return qt
