"""Reference implementations of the exact table algebra, written directly
from the definitions with Cyc arithmetic and CycReducer, one value at a time.

The library computes the same things as integer matrix products on the
table's integer encoding (`chartab.int_values`); the tests compare the two,
on fresh copies of the tables so that no memo from another test is read.

`reference_canonicalize` is the cyclotomic canonicalization by full Galois
orbits and a Fraction solve per descent, which `cyclo._canonicalize`
replaces with a support check or one Galois generator per prime.
`reference_cyclotomic_poly` divides x^n - 1 by every Phi_d, d | n, d < n,
which `cyclo.cyclotomic_poly` replaces with Phi_n(x) = Phi_rad(n)(x^(n/rad n))
and Phi_mp(x) = Phi_m(x^p) / Phi_m(x).

`reference_normal_p_abelian` links characters by Cyc inner products of
their restrictions, one product at a time, where
`detectors.detect_normal_p_abelian` reads them off masked row sums.

`reference_simple_order_candidates` is the rank-by-q search of simple
orders, which `simplerec.simple_order_candidates` replaces with one q per
family, rank and prime, read off the prime's exponent in the order.

The last section holds table tests that only the tests use:
`derived_subgroup`, `is_nilpotent_normal`,
`has_small_centralizer_p_element` and `ideal_reduce`.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from sylowtab import simplerec
from sylowtab.chartab import (CharTable, NormalSet, centralizer_order, is_p_element,
                              kernel_of, normal_lattice)
from sylowtab.cyclo import Cyc, cyc_to_rat, cyclotomic_poly
from sylowtab.gfpm import CycReducer
from sylowtab.numutil import (euler_phi, factorize, is_prime, is_prime_power, lcm,
                              p_part, prime_divisors, valuation)
from sylowtab.simplerec import SimpleId


def fresh(t: CharTable, **changes) -> CharTable:
    """A copy of `t` with empty memos, optionally with fields replaced."""
    args = dict(group_order=t.group_order, classes=t.classes,
                power_maps=t.power_maps, chars=t.chars, name=t.name)
    args.update(changes)
    return CharTable(**args)


def reference_validate(t: CharTable) -> list[str]:
    """`chartab.validate` with both orthogonality relations as Cyc sums."""
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
    for i in range(t.k):
        for j in range(i, t.k):
            s = Cyc.zero()
            for c in range(t.k):
                s = s + t.classes[c].size * (t.chars[i][c] * t.chars[j][c].conjugate())
            want = Fraction(n) if i == j else Fraction(0)
            if cyc_to_rat(s) != want:
                bad.append(f"row orthogonality fails for characters {i}, {j}")
    for c in range(t.k):
        s = Cyc.zero()
        for i in range(t.k):
            s = s + t.chars[i][c] * t.chars[i][c].conjugate()
        val = cyc_to_rat(s)
        if val is None or val != Fraction(n, t.classes[c].size):
            bad.append(f"column orthogonality fails at class {c}")
    try:
        for i in range(t.k):
            t.degree(i)
    except ValueError as exc:
        bad.append(str(exc))
    return bad


def reference_centralizer_order(t: CharTable, c: int) -> int:
    """sum_i |chi_i(c)|^2 as a Cyc sum."""
    s = Cyc.zero()
    for i in range(t.k):
        s = s + t.chars[i][c] * t.chars[i][c].conjugate()
    val = cyc_to_rat(s)
    if val is None or val.denominator != 1 or val <= 0:
        raise ValueError(f"non-integral centralizer order at class {c}")
    return int(val)


def central_character(t: CharTable, i: int) -> list[Cyc]:
    """omega_chi over all classes; every value must be a cyclotomic integer."""
    deg = t.degree(i)
    out = []
    for c in range(t.k):
        w = (t.classes[c].size * t.chars[i][c]) / deg
        if not w.is_integral():
            raise ValueError(f"central character {i} is non-integral at class {c}")
        out.append(w)
    return out


def central_conductor(t: CharTable) -> int:
    """lcm of the conductors of all central character values."""
    conductor = 1
    for i in range(t.k):
        for w in central_character(t, i):
            conductor = lcm(conductor, w.n)
    return conductor


def reference_blocks(t: CharTable, p: int, modulus=None) -> tuple[tuple[int, ...], ...]:
    """p-blocks by reducing each central character value with one CycReducer,
    over GF(p^m) built on `modulus` (default: the smallest irreducible)."""
    omegas = [central_character(t, i) for i in range(t.k)]
    reducer = CycReducer(p, central_conductor(t), modulus=modulus)
    keyed: dict[tuple, list[int]] = {}
    for i, row in enumerate(omegas):
        key = tuple(reducer.reduce(w).coeffs for w in row)
        keyed.setdefault(key, []).append(i)
    return tuple(tuple(b) for b in sorted(keyed.values()))



# -- cyclotomic canonicalization ----------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_value(terms) -> Cyc:
    """sum num/den * zeta_n^e over (n, e, num, den) terms, canonicalized
    by `reference_canonicalize` at the lcm of the conductors."""
    m = 1
    for n, *_ in terms:
        m = lcm(m, n)
    dense = [_ZERO] * m
    for n, e, num, den in terms:
        dense[e % n * (m // n)] += Fraction(num, den)
    n, coeffs = reference_canonicalize(m, reference_reduce_mod_phi(m, dense))
    return Cyc(n, coeffs, _canonical=True)


@lru_cache(maxsize=None)
def reference_cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n by long division of x^n - 1 by Phi_d for every proper divisor d."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, reference_cyclotomic_poly(d))
    return tuple(num)


def _polydiv_exact(num: list[int], den) -> list[int]:
    """Exact division of integer polynomials (monic divisor)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c:
            k = i - (len(den) - 1)
            out[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def reference_reduce_mod_phi(n: int, dense: list[Fraction]) -> dict[int, Fraction]:
    """Reduce a dense coefficient list mod Phi_n; return sparse dict."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    dense = list(dense)
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = _ZERO
            for j in range(deg):
                if phi[j]:
                    dense[i - deg + j] -= c * phi[j]
    return {e: c for e, c in enumerate(dense[:deg]) if c}


def reference_canonicalize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Minimal conductor and power-basis coordinates of sum c zeta_n^e
    (0 <= e < n): descend one prime at a time while the element is fixed
    by every automorphism of Q(zeta_n) over Q(zeta_d)."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return 1, {}
    if max(coeffs) >= euler_phi(n):
        dense = [_ZERO] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            dense[e] = c
        coeffs = reference_reduce_mod_phi(n, dense)
        if not coeffs:
            return 1, {}
    # Conductor 2 mod 4 is never minimal: zeta_{2m} = -zeta_m^((m+1)/2).
    while n % 4 == 2:
        m = n // 2
        s = (m + 1) // 2
        out: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            k = (e * s) % m
            out[k] = out.get(k, _ZERO) + (c if e % 2 == 0 else -c)
        dense = [_ZERO] * (max(out) + 1 if out else 1)
        for e, c in out.items():
            dense[e] = c
        n = m
        coeffs = reference_reduce_mod_phi(n, dense)
        if not coeffs:
            return 1, {}
    changed = True
    while changed and n > 1:
        changed = False
        for q in prime_divisors(n):
            d = n // q
            if d % 4 == 2:
                d //= 2  # Q(zeta_d) = Q(zeta_{d/2}) for d = 2 mod 4
            if _fixed_over(n, d, coeffs):
                coeffs = _rewrite_at(n, d, coeffs)
                n = d
                changed = True
                break
    return n, coeffs


def _fixed_over(n: int, d: int, coeffs: dict[int, Fraction]) -> bool:
    """Is the element fixed by Gal(Q(zn)/Q(zd)), i.e. does it lie in Q(zd)?"""
    for j in range(1 + d, n, d):
        if gcd(j, n) != 1:
            continue
        mapped: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            k = (e * j) % n
            mapped[k] = mapped.get(k, _ZERO) + c
        dense = [_ZERO] * (max(mapped) + 1 if mapped else 1)
        for e, c in mapped.items():
            dense[e] = c
        if reference_reduce_mod_phi(n, dense) != coeffs:
            return False
    return True


@lru_cache(maxsize=None)
def _descent_matrix(n: int, d: int):
    """Conductor-n coordinates of zeta_d^i, i < phi(d), as columns."""
    phi_n = euler_phi(n)
    phi_d = euler_phi(d)
    k = n // d
    cols = []
    for i in range(phi_d):
        dense = [_ZERO] * (i * k + 1)
        dense[i * k] = _ONE
        cols.append(reference_reduce_mod_phi(n, dense))
    return [[cols[j].get(i, _ZERO) for j in range(phi_d)] for i in range(phi_n)]


def _rewrite_at(n: int, d: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    if d == 1:
        return {0: coeffs[0]} if 0 in coeffs else {}
    mat = _descent_matrix(n, d)
    rhs = [coeffs.get(i, _ZERO) for i in range(len(mat))]
    sol = _solve_fraction([row[:] for row in mat], rhs)
    return {e: c for e, c in enumerate(sol) if c}


def _solve_fraction(mat, rhs):
    """Gaussian elimination over Fraction for a consistent tall system."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[i]) + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(len(pivots), rows):
        if aug[i][-1]:
            raise ArithmeticError("inconsistent linear system in conductor descent")
    if len(pivots) != cols:
        raise ArithmeticError("underdetermined linear system")
    out = [_ZERO] * cols
    for i, c in enumerate(pivots):
        out[c] = aug[i][-1]
    return out


def reference_normal_p_abelian(t: CharTable, N: NormalSet) -> bool:
    """Whether N is abelian: characters joined (union-find) whenever the
    inner product of their restrictions to N is nonzero, then the minimal
    degrees of the groups summed and compared with |N|."""
    parent = list(range(t.k))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(t.k):
        for j in range(i + 1, t.k):
            s = Cyc.zero()
            for c in N.members:
                s = s + t.classes[c].size * (t.chars[i][c] * t.chars[j][c].conjugate())
            if not s.is_zero():
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(t.k):
        groups.setdefault(find(i), []).append(i)
    return sum(min(t.degree(i) for i in g) for g in groups.values()) == N.order


# -- simple orders ------------------------------------------------------


def _prime_powers_upto(bound: int):
    q = 2
    while q <= bound:
        if is_prime_power(q):
            yield q
        q += 1


def reference_simple_order_candidates(n: int) -> set[SimpleId]:
    """Simple groups of order n by walking q upward for each family and
    rank, stopping at the first q whose order exceeds n.  These orders do
    not grow monotonically in q, so the stop can skip a group (PSL(2,17))."""
    if n < 1:
        raise ValueError("order must be positive")
    out: set[SimpleId] = set()
    canonical = simplerec._canonical
    psl, psu, psp, dn = (simplerec._psl_order, simplerec._psu_order,
                         simplerec._psp_order, simplerec._dn_order)

    def take(family, params, order):
        if order == n:
            out.add(canonical(family, tuple(params), order))

    if is_prime(n):
        out.add(SimpleId("Cyclic", (n,), n))
    for name, order in simplerec._data()["sporadic_orders"].items():
        if order == n:
            out.add(SimpleId(name, (), order))
    if n == simplerec._TITS_ORDER:
        out.add(SimpleId("2F4'", (2,), simplerec._TITS_ORDER))

    fact, m = 60, 5
    while fact <= n:
        take("Alt", (m,), fact)
        m += 1
        fact *= m

    d = 2
    while psl(d, 2) <= n:
        for q in _prime_powers_upto(n):
            if psl(d, q) > n:
                break
            if d == 2 and q in (2, 3):
                continue
            take("PSL", (d, q), psl(d, q))
        d += 1
    d = 3
    while psu(d, 2) <= n:
        for q in _prime_powers_upto(n):
            if psu(d, q) > n:
                break
            if (d, q) == (3, 2):
                continue
            take("PSU", (d, q), psu(d, q))
        d += 1
    d = 2
    while psp(d, 2) <= n:
        for q in _prime_powers_upto(n):
            if psp(d, q) > n:
                break
            if (d, q) == (2, 2):
                continue
            take("PSp", (2 * d, q), psp(d, q))
            if d >= 3 and q % 2:
                take("B", (d, q), psp(d, q))
        d += 1
    d = 4
    while dn(d, 2, False) <= n:
        for q in _prime_powers_upto(n):
            if dn(d, q, False) > n:
                break
            take("D", (d, q), dn(d, q, False))
        d += 1
    d = 4
    while dn(d, 2, True) <= n:
        for q in _prime_powers_upto(n):
            if dn(d, q, True) > n:
                break
            take("2D", (d, q), dn(d, q, True))
        d += 1
    for fam, formula in REFERENCE_EXCEPTIONAL.items():
        for q in _prime_powers_upto(n):
            if formula(q) > n:
                break
            if fam == "G2" and q == 2:
                continue
            take(fam, (q,), formula(q))
    for q in _prime_powers_upto(n):  # Suzuki and Ree: odd powers of 2 resp. 3
        if q ** 2 * (q ** 2 + 1) * (q - 1) > n:
            break
        fq = factorize(q)
        if list(fq) == [2] and fq[2] % 2 == 1 and q >= 8:
            take("2B2", (q,), q ** 2 * (q ** 2 + 1) * (q - 1))
            o = q ** 12 * (q ** 6 + 1) * (q ** 4 - 1) * (q ** 3 + 1) * (q - 1)
            if o <= n:
                take("2F4", (q,), o)
        if list(fq) == [3] and fq[3] % 2 == 1 and q >= 27:
            take("2G2", (q,), q ** 3 * (q ** 3 + 1) * (q - 1))
    return out


#: the exceptional families the reference searches; it handles the Suzuki
#: and Ree families in a loop of their own
REFERENCE_EXCEPTIONAL = {name: order for name, order in simplerec._EXCEPTIONAL.items()
                         if name not in ("2B2", "2F4", "2G2")}


# -- table tests only the tests use ------------------------------------


def derived_subgroup(t: CharTable) -> NormalSet:
    """G' as the intersection of the kernels of the linear characters."""
    members = frozenset(range(t.k))
    for i in range(t.k):
        if t.degree(i) == 1:
            members &= kernel_of(t, i).members
    return NormalSet(members, t.subset_order(members))


def is_nilpotent_normal(t: CharTable, N: NormalSet) -> bool:
    """N nilpotent iff it is the direct product of its Sylow subgroups,
    i.e. its r-elements form a normal subgroup of full r-part order for
    every prime r | |N|."""
    lat_members = {ns.members for ns in normal_lattice(t)}
    for r in prime_divisors(N.order):
        relts = frozenset(c for c in N.members if is_p_element(t, c, r))
        if relts not in lat_members:
            return False
        if t.subset_order(relts) != p_part(N.order, r):
            return False
    return True


def has_small_centralizer_p_element(t: CharTable, p: int) -> bool:
    """Is there a p-element class whose centralizer order has p-part <= p^2?"""
    return any(is_p_element(t, c, p) and valuation(centralizer_order(t, c), p) <= 2
               for c in range(t.k))


def ideal_reduce(a: Cyc, p: int) -> tuple[int, ...]:
    """The GF(p^m)-coefficients of a cyclotomic integer reduced modulo the
    fixed prime ideal over p."""
    return CycReducer(p, a.n).reduce(a).coeffs
