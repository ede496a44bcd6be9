import cmath
from fractions import Fraction

import numpy as np
import pytest

from sylowtab.chartab import (CharTable, ClassData, NormalSet,
                              centralizer_order, core_subgroups,
                              has_cyclic_sylow, int_values, is_p_element,
                              kernel_of, minimal_normals, normal_lattice,
                              power_class, quotient_table, validate)
from sylowtab.cyclo import Cyc, cyc_root, tensor_basis
from sylowtab.blocks import block_partition
from sylowtab.corpus import _direct_product, _psl2_perms, corpus_entry
from sylowtab.detectors import detect_center_index_p2, detect_commutator_index_p2
from sylowtab.dixon import dixon_table
from sylowtab.perm import PermGroup, perm_from_cycles
from sylowtab.numutil import divisors, euler_phi, prime_divisors
from table_reference import (derived_subgroup, fresh, is_nilpotent_normal,
                             reference_blocks, reference_centralizer_order,
                             reference_validate)


def test_s4_normal_lattice(corpus):
    t = corpus.table("S4")
    orders = sorted(ns.order for ns in normal_lattice(t))
    assert orders == [1, 4, 12, 24]
    assert [ns.order for ns in minimal_normals(t)] == [4]


def test_derived_subgroup_and_kernels(corpus):
    t = corpus.table("S4")
    assert derived_subgroup(t).order == 12
    t = corpus.table("SL(2,5)")
    assert derived_subgroup(t).order == 120  # perfect
    assert [ns.order for ns in minimal_normals(t)] == [2]


def test_quotient_s4_mod_v4_is_s3(corpus):
    t = corpus.table("S4")
    v4 = next(ns for ns in normal_lattice(t) if ns.order == 4)
    q = quotient_table(t, v4)
    assert q.group_order == 6 and q.k == 3
    assert validate(q) == []
    assert sorted(q.degree(i) for i in range(3)) == [1, 1, 2]


def test_quotient_chain_gl23(corpus):
    t = corpus.table("GL(2,3)")
    z = next(ns for ns in normal_lattice(t) if ns.order == 2)
    q = quotient_table(t, z)
    assert q.group_order == 24 and validate(q) == []
    assert sorted(ns.order for ns in normal_lattice(q)) == [1, 4, 12, 24]


def test_core_subgroups(corpus):
    t = corpus.table("C12")
    opp, op, oup = core_subgroups(t, 2)
    assert (opp.order, op.order, oup.order) == (3, 4, 4)
    t = corpus.table("S5")
    opp, op, oup = core_subgroups(t, 2)
    assert (opp.order, op.order, oup.order) == (1, 1, 120)
    t = corpus.table("A4xC3")
    opp, op, oup = core_subgroups(t, 3)
    assert (opp.order, op.order, oup.order) == (4, 3, 36)


def test_power_class_and_p_elements(corpus):
    t = corpus.table("S4")
    for c in range(t.k):
        o = t.classes[c].element_order
        assert power_class(t, c, o) == 0
        assert is_p_element(t, c, 2) == (o in (1, 2, 4))


def test_power_class_of_a_prime_outside_the_element_order():
    """On Q16 x C13, x^13 for x of order 8 is x^5, and 5 has no power map:
    the 13th power map itself must be applied."""
    q16 = corpus_entry("Q16")
    g = PermGroup(*_direct_product([(q16.degree, [list(x) for x in q16.generators]),
                                    (13, [perm_from_cycles(13, [tuple(range(13))])])]))
    t, cd = dixon_table(g), g.conjugacy_data()
    assert [c.element_order for c in t.classes] == cd.orders
    assert 8 in cd.orders
    for m in (13, 2, 26, 169):
        want = cd.class_of[g.pow_indices(cd.reps, m)].tolist()
        assert [power_class(t, c, m) for c in range(t.k)] == want


def test_nilpotent_normal(corpus):
    t = corpus.table("SL(2,3)")
    q8 = next(ns for ns in normal_lattice(t) if ns.order == 8)
    assert is_nilpotent_normal(t, q8)
    t = corpus.table("S5")
    a5 = next(ns for ns in normal_lattice(t) if ns.order == 60)
    assert not is_nilpotent_normal(t, a5)
    t = corpus.table("C12")
    assert is_nilpotent_normal(t, NormalSet(frozenset(range(t.k)), t.group_order))


def test_has_cyclic_sylow(corpus):
    assert has_cyclic_sylow(corpus.table("C12"), 2)
    assert has_cyclic_sylow(corpus.table("S5"), 5)
    assert not has_cyclic_sylow(corpus.table("S4"), 2)
    assert has_cyclic_sylow(corpus.table("Q16"), 2) is False


def test_validate_catches_corruption(corpus):
    t = corpus.table("S4")
    rows = [list(r) for r in t.chars]
    rows[1][2] = rows[1][2] + Cyc.one()
    bad = CharTable(t.group_order, t.classes, t.power_maps, rows)
    assert validate(bad)  # orthogonality must fail


def test_validate_catches_bad_power_map(corpus):
    t = corpus.table("S4")
    pm = {p: list(m) for p, m in t.power_maps.items()}
    pm[2][1] = 1  # involution class mapping to itself under squaring
    bad = CharTable(t.group_order, t.classes, pm, t.chars)
    assert any("power map" in msg for msg in validate(bad))


def test_centralizer_order_identity(corpus):
    t = corpus.table("M11")
    assert centralizer_order(t, 0) == 7920


# -- the integer encoding against the Cyc-loop definitions -------------


def _memo_quotients(t):
    """Every quotient table memoized on t or, recursively, on its quotients."""
    out = []
    for key, q in t._memo.items():
        if isinstance(key, tuple) and key[0] == "quotient":
            out += [q] + _memo_quotients(q)
    return out


def _centralizers(t):
    """centralizer_order at every class, or the first ValueError message."""
    try:
        return [centralizer_order(t, c) for c in range(t.k)]
    except ValueError as exc:
        return str(exc)


def _reference_centralizers(t):
    try:
        return [reference_centralizer_order(t, c) for c in range(t.k)]
    except ValueError as exc:
        return str(exc)


def test_integer_path_matches_reference_on_corpus(corpus):
    """validate and centralizer orders agree with the Cyc loops on all corpus
    tables and on every quotient table the detectors build from them."""
    checked = 0
    for name in corpus.names():
        t = fresh(corpus.table(name))
        for p in prime_divisors(t.group_order):
            detect_commutator_index_p2(t, p)
            detect_center_index_p2(t, p)
        for tab in [t] + _memo_quotients(t):
            assert validate(tab) == reference_validate(tab) == [], tab
            assert _centralizers(tab) == _reference_centralizers(tab), tab
            checked += 1
    assert checked > len(corpus.names())


def _corruptions(t):
    """Tables near `t` that break validation in different ways."""
    rows = [list(r) for r in t.chars]
    out = {}
    bumped = [list(r) for r in rows]
    bumped[1][2] = bumped[1][2] + Cyc.one()
    out["integer bump"] = fresh(t, chars=bumped)
    irrational = [list(r) for r in rows]
    irrational[2][1] = irrational[2][1] + cyc_root(3)
    out["irrational bump"] = fresh(t, chars=irrational)
    half = [list(r) for r in rows]
    half[1][3] = half[1][3] + Cyc.from_rational(Fraction(1, 2))
    out["half bump"] = fresh(t, chars=half)
    swapped = [list(r) for r in rows]
    swapped[1][0], swapped[1][1] = swapped[1][1], swapped[1][0]
    out["swapped values"] = fresh(t, chars=swapped)
    sizes = list(t.classes)
    sizes[1] = ClassData(sizes[1].size + 1, sizes[1].element_order)
    out["class size"] = fresh(t, classes=sizes)
    out["group order"] = fresh(t, group_order=2 * t.group_order)
    pm = {p: list(m) for p, m in t.power_maps.items()}
    even = next(c for c, cls in enumerate(t.classes) if cls.element_order % 2 == 0)
    pm[2][even] = even  # an element of even order squaring into its own class
    out["power map"] = fresh(t, power_maps=pm)
    return out


@pytest.mark.parametrize("kind", ["integer bump", "irrational bump", "half bump",
                                  "swapped values", "class size", "group order",
                                  "power map"])
@pytest.mark.parametrize("name", ["S4", "M11", "SL(2,7)"])
def test_validate_corrupted_matches_reference(corpus, name, kind):
    bad = _corruptions(corpus.table(name))[kind]
    assert validate(bad) == reference_validate(bad)
    assert validate(bad)
    assert _centralizers(bad) == _reference_centralizers(bad)


def _scaled_c2(e, bump=0):
    """C2 with |G| and both class sizes multiplied by 2^e; `bump` is added to
    the sign character's value on the involution class."""
    one = Cyc.one()
    return CharTable(2 ** (e + 1), [ClassData(2**e, 1), ClassData(2**e, 2)],
                     {2: (0, 0)}, [[one, one], [one, Cyc.from_rational(bump - 1)]])


@pytest.mark.parametrize("e,dtype", [(40, np.int64), (62, object)])
@pytest.mark.parametrize("bump", [0, 2])
def test_overflow_rule_picks_dtype(e, dtype, bump):
    """Entries past int64 switch the encoding to Python ints, with the same
    violation list and centralizer orders as the Cyc loops."""
    t = _scaled_c2(e, bump)
    assert int_values(t).sizes.dtype == dtype
    assert all(g.values.dtype == dtype for g in int_values(t).groups)
    assert validate(t) == reference_validate(t)
    assert "column 0 is not the identity class" in validate(t)
    assert _centralizers(t) == _reference_centralizers(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 12, 15, 20, 88, 105])
def test_tensor_basis(n):
    """Row a of the read-only matrix sums to zeta_n^a over the basis
    exponents (checked in complex floating point, apart from the exact
    arithmetic built on the rows), there are phi(n) basis elements (so
    they are a basis), and the basis of Q(zeta_m) is part of that of
    Q(zeta_n) for every m | n, compared as angles b/m."""
    exponents, T = tensor_basis(n)
    assert len(exponents) == euler_phi(n) and exponents[0] == 0
    assert T.shape == (n, euler_phi(n)) and not T.flags.writeable
    assert set(T.flatten().tolist()) <= {-1, 0, 1}
    for a, row in enumerate(T.tolist()):
        total = sum(s * cmath.exp(2j * cmath.pi * b / n) for b, s in zip(exponents, row))
        assert abs(total - cmath.exp(2j * cmath.pi * a / n)) < 1e-9, (n, a)
    for m in divisors(n):
        assert ({Fraction(b, m) for b in tensor_basis(m)[0]}
                <= {Fraction(b, n) for b in exponents})


def test_validate_makes_no_cyc_products(corpus, monkeypatch):
    calls = []
    mul = Cyc.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Cyc, "__mul__", counting)
    for name in ("S9", "A8"):
        t = fresh(corpus.table(name))
        assert validate(t) == []
    assert calls == []


def test_quotient_table_is_memoized(corpus):
    t = corpus.table("GL(2,3)")
    z = next(ns for ns in normal_lattice(t) if ns.order == 2)
    assert quotient_table(t, z) is quotient_table(t, z)


def test_columns_encoded_at_their_own_conductor():
    """PSL(2,29): the value conductors 5, 7, 15 and 29 have lcm 3045, but
    no array is built at that lcm (an encoding at it would hold k^2 * 3045
    entries and cost k^3 * 3045^2 in its products); the integer path still
    agrees with the Cyc loops."""
    t = dixon_table(PermGroup(30, _psl2_perms(29)))
    iv = int_values(t)
    assert max(g.conductor for g in iv.groups) == 29
    assert sum(g.values.size for g in iv.groups) <= t.k * t.k * 29
    assert sum(g.basis.size for g in iv.groups) <= sum(g.conductor**2 for g in iv.groups)
    assert iv.width <= sum(euler_phi(g.conductor) for g in iv.groups)
    assert validate(t) == reference_validate(t) == []
    assert _centralizers(t) == _reference_centralizers(t)
    assert block_partition(t, 29).blocks == reference_blocks(t, 29)


def test_column_conductor_over_cap_is_a_violation():
    """Each value is within MAX_CONDUCTOR but a column needs 1031 * 1033
    together: validate reports it instead of raising."""
    one = Cyc.one()
    t = CharTable(3, [ClassData(1, 1), ClassData(1, 3), ClassData(1, 3)], {3: (0, 0, 0)},
                  [[one] * 3, [one, cyc_root(1031), one], [one, cyc_root(1033), one]])
    msg = "class 1: values need conductor 1065023, over the cap 1048576"
    assert validate(t) == [msg]
    with pytest.raises(ValueError, match=msg):
        int_values(t)
