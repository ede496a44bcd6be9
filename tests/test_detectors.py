import pytest

from sylowtab.chartab import (NormalSet, core_subgroups, has_cyclic_sylow,
                              normal_lattice, quotient_table)
from sylowtab.corpus import _direct_product
from sylowtab.detectors import (ABELIAN_TEST_PRECONDITION, CASE_D_O2_NOT_CENTRAL,
                                LIE_DEGREE_PATTERN_UNTESTED, SOCLE_DATA_MISSING, Verdict,
                                _almost_simple_commutator, compute_K,
                                detect_center_index_p2,
                                detect_commutator_index_p2,
                                detect_normal_p_abelian)
from sylowtab.dixon import dixon_table
from sylowtab.perm import PermGroup
from sylowtab.simplerec import SimpleId
from table_reference import fresh, reference_normal_p_abelian

# frozen expected verdicts, hand-checked against the brute-force oracle:
# (group, p) -> (|P:P'| = p^2 ?, |P:Z(P)| = p^2 ?)
EXPECTED = {
    ("C2", 2): ("no", "no"),
    ("C4", 2): ("yes", "no"),
    ("C6", 2): ("no", "no"), ("C6", 3): ("no", "no"),
    ("C12", 2): ("yes", "no"), ("C12", 3): ("no", "no"),
    ("D8", 2): ("yes", "yes"),
    ("Q8", 2): ("yes", "yes"),
    ("Q16", 2): ("yes", "no"),
    ("SD16", 2): ("yes", "no"),
    ("C3wrC3", 3): ("yes", "no"),
    ("S4", 2): ("yes", "yes"), ("S4", 3): ("no", "no"),
    ("S5", 2): ("yes", "yes"), ("S5", 3): ("no", "no"), ("S5", 5): ("no", "no"),
    ("S6", 2): ("no", "yes"), ("S6", 3): ("yes", "no"), ("S6", 5): ("no", "no"),
    ("S7", 2): ("no", "yes"), ("S7", 3): ("yes", "no"), ("S7", 5): ("no", "no"),
    ("S7", 7): ("no", "no"),
    ("S8", 2): ("no", "no"), ("S8", 3): ("yes", "no"), ("S8", 5): ("no", "no"),
    ("S8", 7): ("no", "no"),
    ("S9", 2): ("no", "no"), ("S9", 3): ("yes", "no"), ("S9", 5): ("no", "no"),
    ("S9", 7): ("no", "no"),
    ("A5", 2): ("yes", "no"), ("A5", 3): ("no", "no"), ("A5", 5): ("no", "no"),
    ("A6", 2): ("yes", "yes"), ("A6", 3): ("yes", "no"), ("A6", 5): ("no", "no"),
    ("A7", 2): ("yes", "yes"), ("A7", 3): ("yes", "no"), ("A7", 5): ("no", "no"),
    ("A7", 7): ("no", "no"),
    ("A8", 2): ("no", "no"), ("A8", 3): ("yes", "no"), ("A8", 5): ("no", "no"),
    ("A8", 7): ("no", "no"),
    ("SL(2,3)", 2): ("yes", "yes"), ("SL(2,3)", 3): ("no", "no"),
    ("SL(2,5)", 2): ("yes", "yes"), ("SL(2,5)", 3): ("no", "no"),
    ("SL(2,5)", 5): ("no", "no"),
    ("SL(2,7)", 2): ("yes", "no"), ("SL(2,7)", 3): ("no", "no"),
    ("SL(2,7)", 7): ("no", "no"),
    ("SL(2,9)", 2): ("yes", "no"), ("SL(2,9)", 3): ("yes", "no"),
    ("SL(2,9)", 5): ("no", "no"),
    ("GL(2,3)", 2): ("yes", "no"), ("GL(2,3)", 3): ("no", "no"),
    ("PSL(2,7)", 2): ("yes", "yes"), ("PSL(2,7)", 3): ("no", "no"),
    ("PSL(2,7)", 7): ("no", "no"),
    ("PSL(2,11)", 2): ("yes", "no"), ("PSL(2,11)", 3): ("no", "no"),
    ("PSL(2,11)", 5): ("no", "no"), ("PSL(2,11)", 11): ("no", "no"),
    ("PSL(2,13)", 2): ("yes", "no"), ("PSL(2,13)", 3): ("no", "no"),
    ("PSL(2,13)", 7): ("no", "no"), ("PSL(2,13)", 13): ("no", "no"),
    ("PSL(3,2)", 2): ("yes", "yes"), ("PSL(3,2)", 3): ("no", "no"),
    ("PSL(3,2)", 7): ("no", "no"),
    ("M11", 2): ("yes", "no"), ("M11", 3): ("yes", "no"),
    ("M11", 5): ("no", "no"), ("M11", 11): ("no", "no"),
    ("A5xQ8", 2): ("no", "yes"), ("A5xQ8", 3): ("no", "no"),
    ("A5xQ8", 5): ("no", "no"),
    ("S3xC5", 2): ("no", "no"), ("S3xC5", 3): ("no", "no"),
    ("S3xC5", 5): ("no", "no"),
    ("A4xC3", 2): ("yes", "no"), ("A4xC3", 3): ("yes", "no"),
    ("D8xC3", 2): ("yes", "yes"), ("D8xC3", 3): ("no", "no"),
}


@pytest.mark.parametrize("name,p", sorted(EXPECTED), ids=str)
def test_frozen_verdicts(corpus, name, p):
    t = corpus.table(name)
    expect_a, expect_b = EXPECTED[name, p]
    assert detect_commutator_index_p2(t, p).answer == expect_a
    assert detect_center_index_p2(t, p).answer == expect_b


def test_ledger_is_complete(corpus):
    assert sorted(EXPECTED) == sorted(corpus.pairs())


def test_compute_k_sl29(corpus):
    t = corpus.table("SL(2,9)")
    K = compute_K(t, 2)
    assert K.order == 2  # the center: every odd-degree character kills it


def test_compute_k_trivial_for_abelian_sylow(corpus):
    assert compute_K(corpus.table("A5"), 2).order == 1
    assert compute_K(corpus.table("S4"), 2).order == 1


def test_sl29_reduction_trace(corpus):
    v = detect_commutator_index_p2(corpus.table("SL(2,9)"), 2)
    assert v.answer == "yes"
    assert any("K" in step for step in v.reductions)
    assert "Alt(6)" in v.reason


def test_invariance_under_p_prime_quotient(corpus):
    """Pre-quotienting the input by O_{p'} must not change any verdict."""
    for name, p in (("C12", 2), ("A4xC3", 3), ("D8xC3", 2), ("S3xC5", 2)):
        t = corpus.table(name)
        from sylowtab.chartab import core_subgroups
        opp, _, _ = core_subgroups(t, p)
        assert opp.order > 1
        tq = quotient_table(t, opp)
        assert (detect_commutator_index_p2(t, p).answer
                == detect_commutator_index_p2(tq, p).answer)
        assert (detect_center_index_p2(t, p).answer
                == detect_center_index_p2(tq, p).answer)


def test_invariance_under_k_quotient(corpus):
    t = corpus.table("SL(2,9)")
    K = compute_K(t, 2)
    tq = quotient_table(t, K)
    assert (detect_commutator_index_p2(t, 2).answer
            == detect_commutator_index_p2(tq, 2).answer == "yes")


def test_center_case_routing(corpus):
    routes = {("D8xC3", 2): "normal-Sylow", ("A5xQ8", 2): "normal-Sylow",
              ("SL(2,5)", 2): "quasisimple", ("A7", 2): "quasisimple",
              ("S4", 2): "index-p", ("S5", 2): "index-p",
              ("S6", 2): "p2-component", ("S7", 2): "p2-component"}
    for (name, p), tag in routes.items():
        v = detect_center_index_p2(corpus.table(name), p)
        assert v.answer == "yes" and tag in v.reason, (name, v.reason)


def test_normal_p_abelian(corpus):
    t = corpus.table("S4")
    v4 = next(ns for ns in normal_lattice(t) if ns.order == 4)
    assert detect_normal_p_abelian(t, v4, 2) is True
    t = corpus.table("SL(2,3)")
    q8 = next(ns for ns in normal_lattice(t) if ns.order == 8)
    assert detect_normal_p_abelian(t, q8, 2) is False
    assert detect_normal_p_abelian(t, NormalSet(frozenset([0]), 1), 2) is True


def test_normal_p_abelian_matches_the_cyc_reference(corpus):
    """Every O_p(G) that reaches the row sums, in the corpus and in
    C2 x A4 x C3, whose O_2(G) = C2 x V4 is abelian but not central."""
    cases = [(corpus.table(name), p) for name, p in corpus.pairs()]
    cases.append((_product(corpus, "C2", "A4xC3")[1], 2))
    answers = []
    for t, p in cases:
        t = fresh(t)
        _, o_p, _ = core_subgroups(t, p)
        if o_p.order <= p * p or not has_cyclic_sylow(quotient_table(t, o_p), p):
            continue
        answers.append(detect_normal_p_abelian(t, o_p, p))
        assert answers[-1] == reference_normal_p_abelian(t, o_p), (t.name, p)
    assert answers.count(True) == 1 and answers.count(False) == 8


def test_normal_p_abelian_rejects_noncyclic_quotient(corpus):
    t = corpus.table("A5xQ8")
    q8 = next(ns for ns in normal_lattice(t) if ns.order == 8)
    with pytest.raises(ValueError):
        detect_normal_p_abelian(t, q8, 2)  # quotient A5 has Sylow 2 = V4


def test_verdict_is_not_a_boolean():
    v = Verdict("yes", "x")
    with pytest.raises(TypeError):
        bool(v)


# code-path tests for data gaps (the large-group cases are out of oracle
# scale; what we verify is that the detector reports them honestly)


def test_unknown_socle_data_code(corpus):
    t = corpus.table("M11")
    fake = SimpleId("Alt", (20,), t.group_order)  # same order: v_p(G) = v_p(S)
    v = _almost_simple_commutator(t, 2, fake, NormalSet(frozenset(range(t.k)), t.group_order))
    assert v.answer == "unknown" and SOCLE_DATA_MISSING in v.reason


def test_lie_degree_pattern_is_tagged(corpus):
    t = corpus.table("M11")
    fake = SimpleId("E6", (2,), t.group_order // 3)  # |G/S|_3 = 3
    v = _almost_simple_commutator(t, 3, fake, NormalSet(frozenset(range(t.k)), t.group_order))
    assert v.answer in ("yes", "no")
    assert LIE_DEGREE_PATTERN_UNTESTED in v.reason


def _product(corpus, *names):
    """The direct product of corpus groups, and its Dixon table."""
    entries = [corpus.entry(name) for name in names]
    g = PermGroup(*_direct_product([(e.degree, [list(x) for x in e.generators])
                                    for e in entries]), name="x".join(names))
    return g, dixon_table(g)


def test_unknown_reason_names_its_code_once(corpus):
    # O_2(G) = D8 is neither central nor of order <= 4, and G/O_2(G) = S5
    # has a noncyclic Sylow 2-subgroup
    g, t = _product(corpus, "D8", "S5")
    assert g.ground_truth(2).center_index == 16
    v = detect_center_index_p2(t, 2)
    assert v.answer == "unknown"
    assert v.reason.startswith(f"{ABELIAN_TEST_PRECONDITION}: ")
    assert v.reason.count(ABELIAN_TEST_PRECONDITION) == 1


# O_2(G) = C2 has order <= 4, and C2 x C4 lies in Z(G): both are abelian
# without the test and its cyclic-Sylow precondition, so case C certifies
@pytest.mark.parametrize("names", [("C2", "S5"), ("C2", "C4", "S5")], ids="x".join)
def test_small_or_central_o2_is_abelian_without_the_precondition(corpus, names):
    g, t = _product(corpus, *names)
    assert g.ground_truth(2).center_index == 4
    _, o_2, _ = core_subgroups(t, 2)
    assert not has_cyclic_sylow(quotient_table(t, o_2), 2)
    assert detect_normal_p_abelian(t, o_2, 2) is True
    v = detect_center_index_p2(t, 2)
    assert v.answer == "yes" and v.reason.startswith("index-p case"), v.reason


# O_2(G) = D8, Q8 or SL(2,3)'s Q8 is not central in P: |P:Z(P)| = 16, so
# case D must not certify; the table alone cannot show "no" here
@pytest.mark.parametrize("name", ["D8", "Q8", "SL(2,3)"])
def test_case_d_with_noncentral_o2_is_a_coded_unknown(corpus, name):
    g, t = _product(corpus, name, "S6")
    assert g.ground_truth(2).center_index == 16
    v = detect_center_index_p2(t, 2)
    assert v.answer == "unknown"
    assert v.reason.startswith(f"{CASE_D_O2_NOT_CENTRAL}: ")


def test_case_d_with_central_o2_still_certifies(corpus):
    g, t = _product(corpus, "C4", "S6")
    assert g.ground_truth(2).center_index == 4
    v = detect_center_index_p2(t, 2)
    assert v.answer == "yes" and v.reason.startswith("p2-component case")
