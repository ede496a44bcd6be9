"""Reference implementations of the exact table algebra, written directly
from the definitions with Cyc and FFElem arithmetic, one value at a time.

The library computes the same things as integer matrix products on the
table's integer encoding (`chartab.int_values`); the tests compare the two,
on fresh copies of the tables so that no memo from another test is read.
"""

from fractions import Fraction

from sylowtab.chartab import CharTable
from sylowtab.cyclo import Cyc, cyc_to_rat
from sylowtab.gfpm import CycReducer
from sylowtab.numutil import lcm, prime_divisors


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
            s = s + t.chars[i][c].abs2()
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
        s = s + t.chars[i][c].abs2()
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


def reference_blocks(t: CharTable, p: int) -> tuple[tuple[int, ...], ...]:
    """p-blocks by reducing each central character value with one CycReducer."""
    omegas = [central_character(t, i) for i in range(t.k)]
    reducer = CycReducer(p, central_conductor(t))
    keyed: dict[tuple, list[int]] = {}
    for i, row in enumerate(omegas):
        key = tuple(reducer.reduce(w).coeffs for w in row)
        keyed.setdefault(key, []).append(i)
    return tuple(tuple(b) for b in sorted(keyed.values()))

