import time

import pytest

from sylowtab.chartab import minimal_normals
from sylowtab.numutil import is_prime_power
from sylowtab.simplerec import (_LIE_FAMILIES, SimpleId, _canonical, _data,
                                extension_sylow_lookup, is_almost_simple,
                                out_has_unique_order_p_subgroup,
                                recognize_minimal_normal,
                                simple_order_candidates, socle_sylow_lookup)
from table_reference import reference_simple_order_candidates


def _names(cands):
    return sorted(str(s) for s in cands)


def test_candidates_unique_small_orders():
    assert _names(simple_order_candidates(60)) == ["Alt(5)"]
    assert _names(simple_order_candidates(168)) == ["PSL(2,7)"]
    assert _names(simple_order_candidates(360)) == ["Alt(6)"]
    assert _names(simple_order_candidates(7920)) == ["M11"]
    assert _names(simple_order_candidates(17971200)) == ["2F4'(2)"]
    assert _names(simple_order_candidates(29120)) == ["2B2(8)"]
    assert simple_order_candidates(100) == set()


def _prime_powers_below(bound):
    return [q for q in range(2, bound) if is_prime_power(q)]


def _lie_type_groups(bound):
    """(row, rank, q, order) for every group of Lie type of order <= bound,
    read forward off the order formulas with q walked upward.  An order
    can fall below an earlier one only through its gcd divisor, which is
    at most max(d, 4), so a walk stops once the order passes that factor
    times the bound."""
    qs = _prime_powers_below(int((4 * bound) ** (1 / 3)) + 10)  # PSL(2,q) > q^3/4
    out = []
    for row in _LIE_FAMILIES:
        _, first, last, _, _, order, excluded = row
        d = first
        while (last is None or d <= last) and order(d, 2) <= bound * max(d, 4):
            for q in qs:
                o = order(d, q)
                if o > bound * max(d, 4):
                    break
                if o <= bound and not excluded(d, *is_prime_power(q)):
                    out.append((row, d, q, o))
            d += 1
    return out


def test_every_lie_type_group_up_to_1e12_is_recognized():
    groups = _lie_type_groups(10 ** 12)
    assert len(groups) > 1500
    for (name, _, _, _, params, _, _), d, q, order in groups:
        assert _canonical(name, params(d, q), order) in simple_order_candidates(order)


def _skipped_by_reference(sid):
    """Did the reference's walk over q stop before sid's q?  It stops at
    the first q whose order exceeds the target, so sid is skipped exactly
    when a smaller prime power q' of its family and rank has a larger
    order."""
    for name, first, _, _, params, order, _ in _LIE_FAMILIES:
        if name != sid.family:
            continue
        q = sid.params[-1]
        d = next(d for d in range(first, first + 64) if params(d, q) == sid.params)
        return any(order(d, q2) > sid.order for q2 in _prime_powers_below(q))
    return False


def test_inversion_matches_the_reference_search():
    orders = set(range(1, 3000)) | {o for *_, o in _lie_type_groups(10 ** 10)}
    orders |= {o for o in _data()["sporadic_orders"].values() if o <= 10 ** 10}
    orders |= {2 * o for o in list(orders) if o > 3000}  # not simple
    extra = {}
    for n in sorted(orders):
        new, ref = simple_order_candidates(n), reference_simple_order_candidates(n)
        assert ref <= new, n
        if new != ref:
            extra[n] = new - ref
    for n, sids in extra.items():
        assert all(_skipped_by_reference(sid) for sid in sids), (n, sids)
    names = {str(sid) for sids in extra.values() for sid in sids}
    assert {"PSL(2,17)", "PSL(2,19)", "PSL(2,37)", "PSU(3,8)", "PSL(3,19)"} <= names


def test_orders_the_reference_search_skipped():
    assert _names(simple_order_candidates(2448)) == ["PSL(2,17)"]
    assert _names(simple_order_candidates(3420)) == ["PSL(2,19)"]
    assert _names(simple_order_candidates(5515776)) == ["PSU(3,8)"]
    assert reference_simple_order_candidates(2448) == set()


def test_all_sporadic_orders_recognized_within_a_second():
    start = time.perf_counter()
    for name, order in _data()["sporadic_orders"].items():
        assert SimpleId(name, (), order) in simple_order_candidates(order), name
    assert time.perf_counter() - start < 1.0


def test_cyclic_prime():
    (s,) = simple_order_candidates(31)
    assert s.family == "Cyclic"


def test_documented_ambiguities():
    assert _names(simple_order_candidates(20160)) == ["Alt(8)", "PSL(3,4)"]
    assert _names(simple_order_candidates(4585351680)) == ["B(3,3)", "PSp(6,3)"]


def test_ambiguity_sets_never_exceed_two():
    for n in (60, 168, 360, 504, 660, 1092, 2448, 2520, 3420, 5616, 6048,
              6072, 7800, 7920, 9828, 12180, 14880, 20160, 25308, 25920,
              29120, 32736, 34440, 39732, 51888, 58800, 62400, 95040):
        assert len(simple_order_candidates(n)) <= 2


def test_canonicalization_absorbs_psl_coincidences():
    for n in (60, 360, 20160):
        fams = {(s.family, s.params) for s in simple_order_candidates(n)}
        assert ("PSL", (2, 4)) not in fams
        assert ("PSL", (2, 5)) not in fams
        assert ("PSL", (2, 9)) not in fams
        assert ("PSL", (4, 2)) not in fams


def test_recognition_on_corpus(corpus):
    cases = {"A5": ("Alt", (5,)), "A6": ("Alt", (6,)),
             "PSL(3,2)": ("PSL", (2, 7)), "M11": ("M11", ()),
             "PSL(2,11)": ("PSL", (2, 11))}
    for name, (family, params) in cases.items():
        t = corpus.table(name)
        (N,) = minimal_normals(t)
        rec = recognize_minimal_normal(t, N)
        assert rec.kind == "semisimple" and rec.copies == 1
        assert (rec.simple.family, rec.simple.params) == (family, params)


def test_class_size_probe_resolves_a8(corpus):
    t = corpus.table("A8")
    (N,) = minimal_normals(t)
    rec = recognize_minimal_normal(t, N)
    assert (rec.simple.family, rec.simple.params) == ("Alt", (8,))


def test_elementary_abelian_typing(corpus):
    t = corpus.table("S4")
    (N,) = minimal_normals(t)
    rec = recognize_minimal_normal(t, N)
    assert rec.kind == "elementary" and (rec.prime, rec.rank) == (2, 2)


def test_almost_simple(corpus):
    for name, expect in (("A5", True), ("S5", True), ("S4", False),
                        ("SL(2,9)", False), ("A5xQ8", False)):
        ok, sid, _ = is_almost_simple(corpus.table(name))
        assert ok == expect, name
    _, sid, _ = is_almost_simple(corpus.table("S5"))
    assert (sid.family, sid.params) == ("Alt", (5,))


# socle Sylow facts, cross-checked against oracle ground truth where possible


@pytest.mark.parametrize("name,p,comm", [
    ("A5", 2, True), ("A6", 2, True), ("A7", 2, True), ("A8", 2, False),
    ("A6", 3, True), ("A8", 3, True), ("PSL(2,7)", 2, True),
    ("PSL(2,11)", 2, True), ("M11", 2, True), ("M11", 3, True),
])
def test_lookup_matches_oracle(corpus, name, p, comm):
    ok, sid, _ = is_almost_simple(corpus.table(name))
    assert ok
    facts = socle_sylow_lookup(sid, p)
    assert facts.commutator_p2 == comm
    assert comm == (corpus.truth(name, p).commutator_index == p * p)


def test_alternating_wreath_rule():
    a9 = SimpleId("Alt", (9,), 181440)
    facts = socle_sylow_lookup(a9, 3)
    assert facts.commutator_p2 and not facts.sylow_abelian
    assert facts.tag == "iterated-wreath"
    # n = 15 = 30 base 5: Sylow 5 is elementary abelian of rank 3
    a15 = SimpleId("Alt", (15,), 5 ** 3 * 2)
    facts = socle_sylow_lookup(a15, 5)
    assert facts.sylow_abelian and not facts.commutator_p2


def test_unknown_outside_embedded_data():
    a20 = SimpleId("Alt", (20,), 2 ** 18 * 3)
    assert socle_sylow_lookup(a20, 2).commutator_p2 is None


def test_small_p_part_shortcut():
    j1 = SimpleId("J1", (), 175560)
    facts = socle_sylow_lookup(j1, 3)  # 3-part is 3: cyclic
    assert facts.sylow_abelian and facts.commutator_p2 is False
    facts = socle_sylow_lookup(j1, 2)  # 2-part is 8 but J1 not in the p^2 list
    assert facts.commutator_p2 is False


def test_extension_lookup_symmetric_groups():
    for n, comm in ((5, True), (6, None), (7, False), (8, False), (9, False)):
        alt = SimpleId("Alt", (n,), 2)
        facts = extension_sylow_lookup(alt, 2)
        assert facts.commutator_p2 == comm, n


def test_out_group_order_p_subgroups():
    assert out_has_unique_order_p_subgroup(SimpleId("Alt", (8,), 20160), 2)
    assert not out_has_unique_order_p_subgroup(SimpleId("Alt", (6,), 360), 2)
    assert out_has_unique_order_p_subgroup(SimpleId("PSL", (2, 7), 168), 2)
