"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 are the corpus-wide detector/oracle agreements, 4 the
brute-force commutator/centralizer lemma suites on every corpus Sylow,
5-7 the block/Dixon soundness checks, 8 order recognition, and 9 the
honest-degradation paths for groups beyond desk scale.
"""

import time

import numpy as np
import pytest

from sylowtab.blocks import abelian_sylow_test, count_height_zero_principal
from sylowtab.chartab import (NormalSet, centralizer_order, is_p_element, minimal_normals,
                              validate)
from sylowtab.detectors import (SOCLE_DATA_MISSING, _almost_simple_commutator,
                                detect_center_index_p2,
                                detect_commutator_index_p2)
from sylowtab.numutil import valuation
from sylowtab.serialize import parse_text_table
from sylowtab.simplerec import (SimpleId, recognize_minimal_normal,
                                simple_order_candidates)
from perm_reference import (centralizer_order_of_class, centralizer_size,
                            derived_indices, element_order, index_p_normal_subgroups)
from table_reference import has_small_centralizer_p_element


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


# -- group-level helpers for the lemma suites -------------------------


class _Table:
    """The multiplication table and inverse map of a small group P, from one
    index_batch of all |P|^2 products: mul[i][j] is the index of (element
    i, then element j) and inv[i] that of the inverse of element i."""

    def __init__(self, P):
        E = P.elements()
        n = len(E)
        prods = E[np.arange(n)[None, :, None], E[:, None, :]]  # [i, j] = E[j][E[i]]
        mul = P.index_batch(prods.reshape(n * n, -1)).reshape(n, n)
        self.mul = mul.tolist()
        self.inv = np.nonzero(mul == 0)[1].tolist()


def _conj(T, x, n):
    return T.mul[T.mul[T.inv[x]][n]][x]


def _commutator(T, x, y):
    # [x, y] = x^-1 y^-1 x y
    mul = T.mul
    return mul[mul[mul[T.inv[x]][T.inv[y]]][x]][y]


def _nilpotency_class(P, T):
    gamma = set(range(P.order))
    c = 0
    while len(gamma) > 1:
        comms = {_commutator(T, x, y) for x in range(P.order) for y in gamma}
        gamma = set(int(i) for i in P.closure_indices(sorted(comms)))
        c += 1
    return c


def _sylows(corpus):
    out = []
    for name, p in corpus.pairs():
        P = corpus.group(name).sylow_p(p)
        if P.order > 1:
            out.append((name, p, P))
    return out


# -- criteria ---------------------------------------------------------


def test_criterion_1_commutator_corpus(corpus):
    start = time.time()
    failures = []
    groups = set()
    for name, p in corpus.pairs():
        groups.add(name)
        v = detect_commutator_index_p2(corpus.table(name), p)
        truth = corpus.truth(name, p).commutator_index == p * p
        if v.answer != ("yes" if truth else "no"):
            failures.append((name, p, v.answer, truth))
    elapsed = time.time() - start
    _report(1, not failures and len(groups) >= 22 and elapsed < 600,
            f"Theorem A corpus agreement: {len(groups)} groups, "
            f"{len(failures)} mismatches, no Unknown, {elapsed:.1f}s")


def test_criterion_2_sl29_regression(corpus):
    g = corpus.group("SL(2,9)")
    t = corpus.table("SL(2,9)")
    gt = corpus.truth("SL(2,9)", 2)
    P = g.sylow_p(2)
    quaternion = P.order == 16 and \
        sum(1 for i in range(16) if element_order(P, i) == 2) == 1
    oracle_ok = gt.commutator_index == 4 and gt.maximal_class and quaternion
    small_cent = any(is_p_element(t, c, 2)
                     and valuation(centralizer_order(t, c), 2) == 2
                     for c in range(t.k))
    v = detect_commutator_index_p2(t, 2)
    detector_ok = v.answer == "yes" and "Alt(6)" in v.reason \
        and any("K" in step for step in v.reductions)
    _report(2, oracle_ok and not small_cent and detector_ok,
            "SL(2,9) p=2: Q16 with |P:P'|=4, no small-centralizer 2-element, "
            "detector Yes via K-quotient to Alt(6)")


def test_criterion_3_center_corpus(corpus):
    failures = []
    cases = {}
    for name, p in corpus.pairs():
        v = detect_center_index_p2(corpus.table(name), p)
        truth = corpus.truth(name, p).center_index == p * p
        if v.answer != ("yes" if truth else "no"):
            failures.append((name, p, v.answer, truth))
        if v.answer == "yes":
            for tag in ("normal-Sylow", "quasisimple", "index-p", "p2-component"):
                if tag in v.reason:
                    cases.setdefault(tag, []).append((name, p))
    want = {"normal-Sylow": ("D8xC3", 2), "quasisimple": ("SL(2,5)", 2),
            "index-p": ("S4", 2), "p2-component": ("S7", 2)}
    covered = all(pair in cases.get(tag, []) for tag, pair in want.items())
    no_side = all(detect_center_index_p2(corpus.table(n), 2).answer == "no"
                  for n in ("GL(2,3)", "SL(2,7)"))
    _report(3, not failures and covered and no_side,
            f"Theorem B corpus agreement: {len(failures)} mismatches; "
            f"cases exercised: {sorted(cases)}")


def test_criterion_4_lemma_suites(corpus):
    bad = []
    g_cache = {}
    for name, p, P in _sylows(corpus):
        g = corpus.group(name)
        n = P.order
        v = valuation(n, p)
        T = _Table(P)
        derived = set(int(i) for i in derived_indices(P))
        center = set(int(i) for i in P.center_indices())
        cents = [centralizer_size(P, i) for i in range(n)]
        # Lemma 2.1(i): G' meet Z(G) meet P lies in P'
        p_in_g = set(int(i) for i in g.index_batch(P.elements()))
        pprime_in_g = set(g.index_batch(P.elements()[sorted(derived)]).tolist())
        if name not in g_cache:
            g_cache[name] = (set(int(i) for i in g.center_indices()),
                             set(int(i) for i in derived_indices(g)))
        gz, gd = g_cache[name]
        if not (gd & gz & p_in_g) <= pprime_in_g:
            bad.append((name, p, "2.1(i)"))
        # Lemma 2.1(ii): |P'| = p iff the largest class size is p
        if (len(derived) == p) != (max(n // c for c in cents) == p if n > 1 else False):
            bad.append((name, p, "2.1(ii)"))
        # Lemma 2.1(iii): maximal class iff some |C_P(x)| = p^2
        if v >= 3 and len(center) < n:
            maximal = _nilpotency_class(P, T) == v - 1
            if maximal != any(c == p * p for c in cents):
                bad.append((name, p, "2.1(iii)"))
            if maximal != corpus.truth(name, p).maximal_class:
                bad.append((name, p, "maximal-class flag"))
        # Corollary 2.2 at |P| = p^4
        if v == 4:
            maximal = _nilpotency_class(P, T) == 3
            if (n // len(derived) == p * p) != maximal:
                bad.append((name, p, "2.2 commutator"))
            if (len(derived) == p) != (n // len(center) == p * p):
                bad.append((name, p, "2.2 center"))
        # Lemma 2.3 on every index-p normal subgroup
        if v >= 2 and not _lemma_2_3_holds(P, T, p, n // len(derived) == p * p):
            bad.append((name, p, "2.3"))
    _report(4, not bad, f"commutator/centralizer lemma suites on every corpus "
                        f"Sylow: {len(bad)} violations {bad[:4]}")


def _lemma_2_3_holds(P, T, p, comm_is_p2):
    for N in index_p_normal_subgroups(P, p):
        members = [int(i) for i in N]
        mset = set(members)
        comms = {_commutator(T, x, y) for x in members for y in members}
        nprime = set(int(i) for i in P.closure_indices(sorted(comms)))
        coset = {n: min(T.mul[n][m] for m in nprime) for n in members}
        reps = sorted(set(coset.values()))
        outside = [x for x in range(P.order) if x not in mset]
        counts = set()
        for x in outside:
            fixed = sum(1 for r in reps if coset[_conj(T, x, r)] == r)
            counts.add(fixed)
        if len(counts) != 1:
            return False  # must not depend on the choice of x
        if comm_is_p2 != (counts.pop() == p):
            return False
    return True


def test_criterion_5_height_zero_bound(corpus):
    checked, bad = 0, []
    for name, p in corpus.pairs():
        t = corpus.table(name)
        if has_small_centralizer_p_element(t, p):
            checked += 1
            if count_height_zero_principal(t, p) > p * p:
                bad.append((name, p))
    _report(5, checked > 0 and not bad,
            f"|Irr_p'(B0)| <= p^2 whenever a p-element has |C|_p <= p^2 "
            f"({checked} pairs checked)")


def test_criterion_6_abelian_sylow(corpus):
    bad = [(name, p) for name, p in corpus.pairs()
           if abelian_sylow_test(corpus.table(name), p)
           != corpus.truth(name, p).abelian]
    _report(6, not bad, f"height-zero abelian test vs oracle: {len(bad)} mismatches")


def test_criterion_7_dixon_soundness(corpus):
    bad = []
    for name in corpus.names():
        g = corpus.group(name)
        t = corpus.table(name)
        if validate(t):
            bad.append((name, "validation"))
        for c in range(t.k):
            if centralizer_order(t, c) != centralizer_order_of_class(g, c):
                bad.append((name, f"centralizer class {c}"))
                break
    _report(7, not bad, f"Dixon tables validate exactly on all "
                        f"{len(corpus.names())} corpus groups: {bad}")


def test_criterion_8_recognition(corpus):
    names = sorted(str(s) for s in simple_order_candidates(20160))
    t = corpus.table("A8")
    (N,) = minimal_normals(t)
    rec = recognize_minimal_normal(t, N)
    ok = names == ["Alt(8)", "PSL(3,4)"] and rec.simple.params == (8,)
    _report(8, ok, "order 20160 yields {Alt(8), PSL(3,4)}; the class-size "
                   "probe picks Alt(8) on the oracle table")


def test_criterion_9_honest_degradation(corpus):
    t = corpus.table("M11")
    fake = SimpleId("Alt", (20,), t.group_order)
    v = _almost_simple_commutator(t, 2, fake, NormalSet(frozenset(range(t.k)), t.group_order))
    unknown_ok = v.answer == "unknown" and SOCLE_DATA_MISSING in v.reason
    # the importer path used for beyond-oracle fixture tables stays available
    fixture = ("order 6\ncentralizers 6 2 3\norders 1 2 3\n"
               "powermap 2 1 1 3\npowermap 3 1 2 1\n"
               "char 1 1 1\nchar 1 -1 1\nchar 2 0 -1\n")
    import_ok = parse_text_table(fixture).group_order == 6
    _report(9, unknown_ok and import_ok,
            "out-of-scale socles return Unknown(SOCLE_DATA_MISSING); "
            "external fixture tables import and validate")
