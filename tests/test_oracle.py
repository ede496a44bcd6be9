import time
import tracemalloc

import numpy as np
import pytest

from sylowtab.corpus import _psl2_perms, _sym, build_group, corpus_entries, corpus_entry
from sylowtab.dixon import class_matrices, dixon_table
from sylowtab.serialize import emit_table
from sylowtab.perm import (DEFAULT_CAP, CapExceeded, PermGroup, index_dtype, perm_from_cycles,
                           subgroup_invariants)
from perm_reference import (conjugates, derived_indices, element_order,
                            index_p_normal_subgroups, relabelled, sorted_key_bfs, sylow_p)

# frozen brute-force ground truth: (sylow, |P:P'|, |P:Z|, maximal_class, abelian)
EXPECTED_TRUTH = {
    ("S4", 2): (8, 4, 4, True, False),
    ("S4", 3): (3, 3, 1, False, True),
    ("S7", 2): (16, 8, 4, False, False),
    ("S8", 2): (128, 8, 64, False, False),
    ("S9", 2): (128, 8, 64, False, False),
    ("S9", 3): (81, 9, 27, True, False),
    ("A5", 2): (4, 4, 1, False, True),
    ("A8", 2): (64, 8, 32, False, False),
    ("GL(2,3)", 2): (16, 4, 8, True, False),
    ("SL(2,9)", 2): (16, 4, 8, True, False),
    ("M11", 2): (16, 4, 8, True, False),
    ("Q16", 2): (16, 4, 8, True, False),
    ("SD16", 2): (16, 4, 8, True, False),
    ("C3wrC3", 3): (81, 9, 27, True, False),
    ("A5xQ8", 2): (32, 16, 4, False, False),
}


@pytest.mark.parametrize("name,p", sorted(EXPECTED_TRUTH), ids=str)
def test_ground_truth_pinned(corpus, name, p):
    gt = corpus.truth(name, p)
    assert (gt.sylow_order, gt.commutator_index, gt.center_index,
            gt.maximal_class, gt.abelian) == EXPECTED_TRUTH[name, p]


def test_enumeration_deterministic_and_identity_first():
    g = PermGroup(4, [perm_from_cycles(4, [(0, 1, 2, 3)]),
                     perm_from_cycles(4, [(0, 1)])])
    E = g.elements()
    assert g.order == 24
    assert list(E[0]) == [0, 1, 2, 3]
    g2 = PermGroup(4, [perm_from_cycles(4, [(0, 1, 2, 3)]),
                      perm_from_cycles(4, [(0, 1)])])
    assert np.array_equal(E, g2.elements())


def test_conjugacy_s3_s4(corpus):
    g = PermGroup(3, [perm_from_cycles(3, [(0, 1, 2)]),
                     perm_from_cycles(3, [(0, 1)])])
    cd = g.conjugacy_data()
    assert sorted(cd.sizes) == [1, 2, 3]
    cd4 = corpus.group("S4").conjugacy_data()
    assert sorted(cd4.sizes) == [1, 3, 6, 6, 8]
    assert sorted(cd4.orders) == [1, 2, 2, 3, 4]


def test_power_map_consistency(corpus):
    g = corpus.group("S4")
    cd = g.conjugacy_data()
    for p, pm in cd.power_maps.items():
        for c, rep in enumerate(cd.reps):
            assert cd.class_of[g.pow_indices([rep], p)[0]] == pm[c]


def test_sylow_2_of_sl29_is_generalized_quaternion(corpus):
    P = corpus.group("SL(2,9)").sylow_p(2)
    assert P.order == 16
    involutions = [i for i in range(P.order) if element_order(P, i) == 2]
    assert len(involutions) == 1


def test_sylow_2_of_s4_is_dihedral(corpus):
    P = corpus.group("S4").sylow_p(2)
    assert P.order == 8
    assert P.exponent() == 4
    gt = subgroup_invariants(P, 2)
    assert gt.center_index == 4 and gt.maximal_class


def test_cap_exceeded():
    g = PermGroup(7, [perm_from_cycles(7, [tuple(range(7))]),
                     perm_from_cycles(7, [(0, 1)])], cap=100)
    with pytest.raises(CapExceeded):
        g.elements()


def test_index_p_normal_subgroups_d8():
    P = PermGroup(4, [perm_from_cycles(4, [(0, 1, 2, 3)]),
                     perm_from_cycles(4, [(1, 3)])])
    subs = index_p_normal_subgroups(P, 2)
    assert len(subs) == 3  # D8 has three maximal subgroups
    assert all(len(s) == 4 for s in subs)


def test_index_p_normal_subgroups_q8(corpus):
    P = corpus.group("Q8")
    subs = index_p_normal_subgroups(P, 2)
    assert len(subs) == 3
    # each is cyclic of order 4
    for s in subs:
        assert sorted(element_order(P, int(i)) for i in s) == [1, 2, 4, 4]


def test_derived_and_center_of_sylows(corpus):
    P = corpus.group("C3wrC3")
    assert len(derived_indices(P)) == 9
    assert len(P.center_indices()) == 3


def test_cap_boundary_is_the_group_order(corpus):
    e = corpus.entry("S4")
    assert PermGroup(e.degree, e.generators, cap=24).order == 24
    with pytest.raises(CapExceeded):
        PermGroup(e.degree, e.generators, cap=23).elements()


@pytest.mark.parametrize("name,row", [
    ("S4", [0, 0, 1, 2]),                       # not a permutation
    ("A5", perm_from_cycles(5, [(0, 1)])),      # odd permutation
    ("SL(2,5)", perm_from_cycles(24, [(0, 1)])),  # degree 24: byte keys
    # entries out of range; + 256 wraps onto the identity in uint8
    ("S4", [4, 1, 2, 3]), ("S4", [-1, 1, 2, 3]), ("S4", [256, 1, 2, 3]),
    ("SL(2,5)", [24, *range(1, 24)]), ("SL(2,5)", [-1, *range(1, 24)]),
    ("SL(2,5)", [256, *range(1, 24)]),
], ids=["S4", "A5", "SL(2,5)", "S4-degree", "S4-minus-1", "S4-plus-256",
        "SL(2,5)-degree", "SL(2,5)-minus-1", "SL(2,5)-plus-256"])
def test_index_batch_rejects_non_members(corpus, name, row):
    g = corpus.group(name)
    E = g.elements()
    with pytest.raises(KeyError):
        g.index_batch(np.array(row)[None])
    with pytest.raises(KeyError):
        g.index_batch(np.vstack([E[:3], [row]]))
    assert g.index_batch(E[::-1]).tolist() == list(range(g.order))[::-1]


# -- the generator-orbit oracle against its definitions ------------------

SMALL = [e.name for e in corpus_entries() if e.expected_order <= 5040]


def _brute_class_of(g):
    """Class labels by conjugating each new representative by every element."""
    E = g.elements()
    Einv = np.argsort(E, axis=1)
    class_of = np.full(len(E), -1)
    for x in range(len(E)):
        if class_of[x] < 0:
            conj = np.take_along_axis(E, E[x][Einv], axis=1)
            class_of[g.index_batch(conj)] = class_of.max() + 1
    return class_of


@pytest.mark.parametrize("name", SMALL)
def test_classes_match_brute_force(corpus, name):
    g = corpus.group(name)
    cd = g.conjugacy_data()
    assert cd.class_of.tolist() == _brute_class_of(g).tolist()
    assert cd.reps == [int(np.flatnonzero(cd.class_of == c)[0]) for c in range(len(cd.reps))]
    assert cd.sizes.tolist() == np.bincount(cd.class_of).tolist()


@pytest.mark.parametrize("name", SMALL)
def test_class_matrices_count_pairs(corpus, name):
    g = corpus.group(name)
    cd = g.conjugacy_data()
    E = g.elements()
    k = len(cd.reps)
    direct = np.zeros((k, k, k), dtype=np.int64)
    for m, rep in enumerate(cd.reps):
        # the pairs (x, y) with x*y = z_m are the (x, x^-1 * z_m)
        y = g.index_batch(E[rep][np.argsort(E, axis=1)])
        assert (E[rep] == np.take_along_axis(E[y], E, axis=1)).all()
        np.add.at(direct[:, :, m], (cd.class_of, cd.class_of[y]), 1)
    A = class_matrices(g, range(k))
    assert A.dtype == np.int64 and (A == direct).all()


@pytest.mark.parametrize("name", ["S7", "SL(2,7)", "C3wrC3"])
def test_index_maps_match_lookups(corpus, name):
    g = corpus.group(name)
    E = g.elements()
    Einv = np.argsort(E, axis=1)
    sample = np.random.default_rng(0).choice(g.order, 12, replace=False).tolist()
    seen = []
    for i, ys in g.right_mults(np.arange(g.order), sample):
        assert ys.tolist() == g.index_batch(E[i][E]).tolist()
        seen.append(i)
    assert sorted(seen) == sorted(sample)
    for q in sample:
        conj = np.take_along_axis(E, E[q][Einv], axis=1)  # x^-1 q x, row x
        assert conjugates(g, q).tolist() == g.index_batch(conj).tolist()


def test_class_structure_lookups_scale_with_generators(corpus):
    e = corpus.entry("S7")
    g = PermGroup(e.degree, e.generators)
    assert len(g.generators) == 2
    g.elements()
    rows = []
    lookup = g.index_batch

    def counted(batch):
        rows.append(len(batch))
        return lookup(batch)

    g.index_batch = counted
    k = len(g.conjugacy_data().reps)  # the classes' lookups are counted too
    class_matrices(g, range(k))
    assert k == 15
    assert sum(rows) <= 8 * g.order


# -- index maps recorded by the BFS and the class matrices they feed -------

MAP_GROUPS = SMALL + ["S9"]


@pytest.mark.parametrize("name", MAP_GROUPS)
def test_bfs_index_maps_match_key_lookups(corpus, name):
    g = corpus.group(name)
    E = g.elements()
    g.conjugacy_data()
    assert g.index_batch(E).tolist() == list(range(g.order))  # BFS index per sorted key
    for gen, right, conj in zip(g.generators, g._right_gens, g._conj_gens):
        assert right.tolist() == g.index_batch(gen[E]).tolist()  # x -> x * g
        assert conj.tolist() == g.index_batch(gen[E[:, np.argsort(gen)]]).tolist()  # g^-1 x g
    assert g.inverse_indices().tolist() == g.index_batch(np.argsort(E, axis=1)).tolist()


@pytest.mark.parametrize("name", SMALL)
def test_class_matrix_rows_are_rows_of_the_full_array(corpus, name):
    g = corpus.group(name)
    k = len(g.conjugacy_data().reps)
    A = class_matrices(g, range(k))
    rng = np.random.default_rng(k)
    for rows in ([0], [k - 1, 0], rng.permutation(k)[: max(1, k // 2)].tolist()):
        sub = class_matrices(g, rows)
        assert sub.shape == (len(rows), k, k) and (sub == A[rows]).all()


def test_class_structure_sends_no_group_sized_batch(corpus):
    e = corpus.entry("S7")
    g = PermGroup(e.degree, e.generators)
    g.elements()
    sizes = []
    lookup = g.index_batch

    def counted(batch):
        sizes.append(len(batch))
        return lookup(batch)

    g.index_batch = counted
    g.conjugacy_data()
    t = dixon_table(g)
    assert t.chars == corpus.table("S7").chars
    assert sizes and max(sizes) < g.order


# -- narrow rows, the level-wise Sylow search and the powers lookup --------

ALL = [e.name for e in corpus_entries()]


@pytest.mark.parametrize("name", ALL)
def test_sylow_search_matches_the_full_scan(corpus, name):
    entry = corpus.entry(name)
    for g in (corpus.group(name), relabelled(entry, 1), relabelled(entry, 2)):
        for p in entry.primes():
            got, want = g.sylow_p(p), sylow_p(g, p)
            assert [r.tolist() for r in got.generators] == [r.tolist() for r in want.generators]


def _count_filled(g):
    """Wrap g._along_tree to count the entries it fills (conjugacy_data first)."""
    g.conjugacy_data()
    bounds, along, filled = g._level_bounds, g._along_tree, [0]

    def counted(table, out, levels=None):
        levels = range(1, len(bounds) - 1) if levels is None else levels
        filled[0] += out[..., 0].size * sum(bounds[lev + 1] - bounds[lev] for lev in levels)
        return along(table, out, levels)

    g._along_tree = counted
    return filled


@pytest.mark.parametrize("p", [2, 3])
def test_sylow_search_fills_at_most_half_the_conjugates_of_a_full_scan(p):
    g = build_group(corpus_entry("S9"))
    filled = _count_filled(g)
    got = g.sylow_p(p)
    ours, filled[0] = filled[0], 0
    want = sylow_p(g, p)
    assert [r.tolist() for r in got.generators] == [r.tolist() for r in want.generators]
    assert 0 < 2 * ours <= filled[0]


@pytest.mark.parametrize("name", ALL)
def test_representative_powers_from_one_lookup(corpus, name):
    g = corpus.group(name)
    cd = g.conjugacy_data()
    assert cd.orders == [element_order(g, r) for r in cd.reps]
    for rep, o, classes in zip(cd.reps, cd.orders, cd.power_classes):
        powers = g.pow_indices(np.full(o, rep), np.arange(o))
        assert classes.tolist() == cd.class_of[powers].tolist()
    for p, pm in cd.power_maps.items():
        assert pm == cd.class_of[g.pow_indices(cd.reps, p)].tolist()


def test_corpus_rows_are_uint8(corpus):
    assert {corpus.group(name).elements().dtype for name in ALL} == {np.dtype(np.uint8)}


@pytest.mark.parametrize("name", ALL)
def test_index_arrays_take_the_group_index_dtype(corpus, name):
    g = corpus.group(name)
    cd = g.conjugacy_data()
    want = index_dtype(g.order, max(g.degree, len(g.generators)))
    assert want is np.int32
    stored = [g._parent, g._gen, g._right_gens, g._conj_gens, g._inverse_idx, cd.class_of]
    assert [a.dtype for a in stored] == [np.dtype(want)] * len(stored)


def test_index_dtype_widens_at_two_to_the_31():
    assert index_dtype(2**28 - 1, 8) is np.int32 and index_dtype(2**31 - 1, 1) is np.int32
    assert index_dtype(2**28, 8) is np.int64 and index_dtype(2**31, 1) is np.int64
    assert index_dtype(2**22, 2**9) is np.int64


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "M11"])
def test_int64_indices_give_the_same_oracle(corpus, name, monkeypatch):
    monkeypatch.setattr("sylowtab.perm.index_dtype", lambda order, width: np.int64)
    e = corpus.entry(name)
    g = PermGroup(e.degree, e.generators, name=name)
    cd, want = g.conjugacy_data(), corpus.group(name).conjugacy_data()
    assert g._right_gens.dtype == g._conj_gens.dtype == cd.class_of.dtype == np.int64
    assert cd.class_of.tolist() == want.class_of.tolist() and cd.power_maps == want.power_maps
    assert emit_table(dixon_table(g)) == emit_table(corpus.table(name))
    assert [g.ground_truth(p) for p in e.primes()] == [corpus.truth(name, p) for p in e.primes()]


def test_s9_oracle_traced_peak_stays_below_36_mb():
    """Enumeration, classes, the Dixon table and every Sylow invariant of
    S9 (362,880 elements) at a traced peak under 36 MB; int64 index
    arrays, each level enumerated into its own list, peaked near 51 MB."""
    e = corpus_entry("S9")
    tracemalloc.start()
    try:
        g = PermGroup(e.degree, e.generators, name="S9")
        g.conjugacy_data()
        dixon_table(g)
        for p in e.primes():
            g.ground_truth(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36e6, f"traced peak {peak / 1e6:.1f} MB"


def test_300_point_cycle_enumerates_in_uint16():
    g = PermGroup(300, [perm_from_cycles(300, [tuple(range(300))])])
    E = g.elements()
    assert E.dtype == np.uint16 and g.order == 300
    assert sorted(E[:, 0].tolist()) == list(range(300))
    assert (E == (E[:, :1].astype(int) + np.arange(300)) % 300).all()
    assert g.index_batch(E[::-1].astype(np.int64)).tolist() == list(range(300))[::-1]


@pytest.mark.parametrize("name,p", [("S9", 2), ("S9", 3), ("M11", 2), ("S4", 3)])
def test_closure_makes_one_lookup_per_level(corpus, name, p):
    g = corpus.group(name)
    E = g.elements()
    gens = g.index_batch(np.stack(g.sylow_p(p).generators)).tolist()
    calls = []
    lookup = g.index_batch

    def counted(rows):
        calls.append(len(rows))
        return lookup(rows)

    g.index_batch = counted
    try:
        members = g.closure_indices(gens)
    finally:
        del g.index_batch
    H = PermGroup(g.degree, [E[i] for i in gens])
    assert len(members) == H.order
    assert members.tolist() == sorted(lookup(H.elements()).tolist())
    assert len(calls) == len(H._level_bounds) - 1


# -- the stabilizer-chain index against the sorted-key BFS ----------------


def _assert_bfs_matches_reference(g):
    E, parent, gen, right = sorted_key_bfs(g.degree, g.generators)
    assert g.elements().dtype == E.dtype and np.array_equal(g.elements(), E)
    assert np.array_equal(g._parent, parent) and np.array_equal(g._gen, gen)
    assert np.array_equal(g._right_gens, right)
    assert g.index_batch(E[::-1]).tolist() == list(range(len(E)))[::-1]


@pytest.mark.parametrize("name", ALL)
def test_bfs_matches_the_sorted_key_reference(name):
    entry = corpus_entry(name)
    for seed in (1, 2, 3):
        g = relabelled(entry, seed)
        _assert_bfs_matches_reference(g)
        for p in entry.primes():
            P = g.sylow_p(p)
            _assert_bfs_matches_reference(P)
            if seed == 1:
                _assert_bfs_matches_reference(P.sylow_p(p))


@pytest.mark.parametrize("degree,gens", [
    (54, _psl2_perms(53)),
    (300, [perm_from_cycles(300, [tuple(range(300))])]),
    (6, []),                      # the trivial group
    (1, [[0]]),                   # degree 1
    (6, [perm_from_cycles(6, [(0, 1)]), perm_from_cycles(6, [(0, 1)])]),  # repeated generator
], ids=["PSL(2,53)", "300-cycle", "trivial", "degree-1", "repeated"])
def test_bfs_matches_the_reference_beyond_the_corpus(degree, gens):
    _assert_bfs_matches_reference(PermGroup(degree, gens))


@pytest.mark.parametrize("name", ["A8", "M11"])
def test_rows_agreeing_on_the_base_are_rejected(corpus, name):
    g = corpus.group(name)
    E = g.elements()
    base = g._base.tolist()
    i, j = [pt for pt in range(g.degree) if pt not in base][:2]
    for x in range(0, g.order, max(1, g.order // 50)):
        swapped, repeated = E[x].copy(), E[x].copy()
        swapped[[i, j]] = swapped[[j, i]]  # another permutation, equal on the base
        repeated[i] = repeated[j]          # not a permutation
        for row in (swapped, repeated):
            assert (row[base] == E[x][base]).all()
            with pytest.raises(KeyError):
                g.index_batch(np.vstack([E[:2], row]))


@pytest.mark.parametrize("n", [10, 200])
def test_cap_is_checked_before_enumeration(n):
    g = PermGroup(n, _sym(n))  # S10 has 3,628,800 elements
    assert g.cap == DEFAULT_CAP < 3_628_800
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded):
        g.elements()
    assert time.perf_counter() - t0 < 1.0
    assert g._elements is None


@pytest.mark.parametrize("name,p", [("S4", 2), ("M11", 3), ("SL(2,5)", 2)])
def test_sylow_subgroup_lookups_reject_rows_outside_it(corpus, name, p):
    g = corpus.group(name)
    P = g.sylow_p(p)
    E, members = g.elements(), set(g.index_batch(P.elements()).tolist())
    outside = next(x for x in range(g.order) if x not in members)
    for row in (E[outside], [g.degree, *range(1, g.degree)], [0] * g.degree):
        with pytest.raises(KeyError):
            P.index_batch(np.vstack([P.elements()[:1], row]))
    assert P.index_batch(P.elements()[::-1]).tolist() == list(range(P.order))[::-1]
