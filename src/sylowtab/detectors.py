"""Decision pipelines: does a Sylow p-subgroup have |P:P'| = p^2, and
does it have |P:Z(P)| = p^2, judging from the character table alone.

Both detectors only ever use table-computable data: the normal lattice,
quotient tables, p-blocks, class sizes/orders and centralizer orders.
Every Unknown verdict carries a structured reason code; Yes/No verdicts
record the chain of quotient reductions that was applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from .blocks import abelian_sylow_test
from .chartab import (CharTable, NormalSet, _row_sums, centralizer_order,
                      core_subgroups, has_cyclic_sylow, int_values,
                      is_p_element, kernel_of, minimal_normals, normal_join,
                      normal_lattice, quotient_table)
from .numutil import is_prime_power, p_part, valuation
from .simplerec import (AmbiguousRecognition, RecognizedNormal, SimpleId,
                        extension_sylow_lookup, is_almost_simple,
                        out_has_unique_order_p_subgroup,
                        recognize_minimal_normal, socle_sylow_lookup)

#: structured reason codes carried by Unknown verdicts
SOCLE_DATA_MISSING = "SOCLE_DATA_MISSING"
LIE_DEGREE_PATTERN_UNTESTED = "LIE_DEGREE_PATTERN_UNTESTED"
LAYER_AMBIGUOUS = "LAYER_AMBIGUOUS"
ABELIAN_TEST_PRECONDITION = "ABELIAN_TEST_PRECONDITION"
CASE_D_O2_NOT_CENTRAL = "CASE_D_O2_NOT_CENTRAL"


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    reason: str
    reductions: tuple[str, ...] = ()

    def __bool__(self):
        raise TypeError("a Verdict is three-valued; test .answer explicitly")


def _yes(reason, reductions=()):
    return Verdict("yes", reason, tuple(reductions))


def _no(reason, reductions=()):
    return Verdict("no", reason, tuple(reductions))


def _unknown(code, detail, reductions=()):
    return Verdict("unknown", f"{code}: {detail}", tuple(reductions))


# -- shared helpers ---------------------------------------------------


def compute_K(t: CharTable, p: int) -> NormalSet:
    """Intersection of the kernels of all characters of p'-degree.

    When O_{p'}(G) = 1 this subgroup is contained in P' for any Sylow
    p-subgroup P, so quotienting by it preserves |P:P'|.
    """
    members = frozenset(range(t.k))
    for i in range(t.k):
        if t.degree(i) % p:
            members &= kernel_of(t, i).members
    return NormalSet(members, t.subset_order(members))


def _quotient_oppp(t: CharTable, p: int, reductions: list[str]) -> CharTable:
    opp, _, _ = core_subgroups(t, p)
    if opp.order > 1:
        reductions.append(f"quotient by O_{p}'(G) of order {opp.order}")
        t = quotient_table(t, opp)
    return t


def _semisimple_minimals(t: CharTable) -> list[tuple[NormalSet, RecognizedNormal]]:
    out = []
    for N in minimal_normals(t):
        rec = recognize_minimal_normal(t, N)
        if rec.kind == "semisimple":
            out.append((N, rec))
    return out


def _minimal_sylow_abelian(t: CharTable, N: NormalSet,
                           rec: RecognizedNormal, p: int) -> bool | None:
    """Is a Sylow p-subgroup of the minimal normal N abelian?"""
    if len(N.members) == t.k:  # N = G: read it off the block theory directly
        return abelian_sylow_test(t, p)
    return socle_sylow_lookup(rec.simple, p).sylow_abelian


# -- |P:P'| = p^2 -----------------------------------------------------


def detect_commutator_index_p2(t: CharTable, p: int) -> Verdict:
    """Decide whether |P:P'| = p^2 for P a Sylow p-subgroup."""
    if valuation(t.group_order, p) < 2:
        return _no(f"|P| < {p}^2")
    reductions: list[str] = []
    while True:  # each quotient is by a nontrivial subgroup, so this ends
        t = _quotient_oppp(t, p, reductions)
        K = compute_K(t, p)
        if not 1 < K.order < t.group_order:
            break
        reductions.append(f"quotient by K = core of P' of order {K.order}")
        t = quotient_table(t, K)
    v = valuation(t.group_order, p)
    if v < 2:
        return _no("reduced group has |P:P'| <= |P| < p^2", reductions)
    if abelian_sylow_test(t, p):
        if v == 2:
            return _yes("abelian Sylow of order p^2", reductions)
        return _no(f"abelian Sylow of order p^{v}", reductions)
    try:
        almost, socle, socle_set = is_almost_simple(t)
    except AmbiguousRecognition as exc:
        return _unknown(LAYER_AMBIGUOUS, str(exc), reductions)
    if almost:
        verdict = _almost_simple_commutator(t, p, socle, socle_set)
        return Verdict(verdict.answer, verdict.reason,
                       tuple(reductions) + verdict.reductions)
    for c in range(t.k):
        if is_p_element(t, c, p) and valuation(centralizer_order(t, c), p) == 2:
            return _yes(f"p-element class {c} with |C(x)|_{p} = {p}^2", reductions)
    return _no("no p-element has centralizer of p-part p^2", reductions)


def _almost_simple_commutator(t: CharTable, p: int, socle: SimpleId,
                              socle_set: NormalSet) -> Verdict:
    vG = valuation(t.group_order, p)
    vS = valuation(socle.order, p)
    if vG == vS:
        facts = socle_sylow_lookup(socle, p)
        if facts.commutator_p2 is None:
            return _unknown(SOCLE_DATA_MISSING,
                            f"no Sylow data for socle {socle} at p={p}")
        return (_yes if facts.commutator_p2 else _no)(
            f"Sylow inside socle {socle}: tag {facts.tag}")
    if p > 2 and vG - vS == 1 and socle.family in ("PSL", "PSU"):
        k, q = socle.params
        q0, f = is_prime_power(q)  # q0 is the defining prime
        eps = 1 if socle.family == "PSL" else -1
        if k % p == 0 and (q - eps) % p == 0 and f % p == 0:
            if k != p:
                return _no(f"socle {socle}: rank {k} != {p}")
            hit = any(_is_r_element_class(t, c, q0)
                      and centralizer_order(t, c) % p
                      for c in socle_set.members)
            return (_yes if hit else _no)(
                f"socle {socle}: defining-characteristic class with p'-centralizer"
                f" {'found' if hit else 'absent'}")
    if p == 3 and socle.family in ("D", "E6", "2E6") and \
            (socle.family != "D" or socle.params[0] == 4):
        return _lie_degree_pattern(t, socle)
    if socle.family == "Alt" and socle.params[0] == 6 and p == 2 and vG - vS == 1:
        # the three index-2 extensions of Alt(6) are separated by whether
        # an element of order 8 exists (yes for PGL(2,9) and M10, no for S6)
        hit = any(cls.element_order == 8 for cls in t.classes)
        return (_yes if hit else _no)(
            f"Alt(6).2 socle branch: order-8 element {'present' if hit else 'absent'}")
    if vG - vS == 1 and out_has_unique_order_p_subgroup(socle, p):
        facts = extension_sylow_lookup(socle, p)
        if facts.commutator_p2 is None:
            return _unknown(SOCLE_DATA_MISSING,
                            f"no extension Sylow data for {socle}.{p}")
        return (_yes if facts.commutator_p2 else _no)(
            f"degree-{p} extension of socle {socle}: tag {facts.tag}")
    return _unknown(SOCLE_DATA_MISSING,
                    f"almost simple with socle {socle}, |G/S|_{p} = {p}^{vG - vS}")


def _is_r_element_class(t: CharTable, c: int, r: int) -> bool:
    o = t.classes[c].element_order
    while o % r == 0:
        o //= r
    return o == 1 and t.classes[c].element_order > 1


def _lie_degree_pattern(t: CharTable, socle: SimpleId) -> Verdict:
    """Character-degree probe for p = 3 graph-automorphism extensions of
    D4(q), E6(q), 2E6(q).  Untested at desk scale; the verdict says so."""
    q = socle.params[-1]
    phi3, phi6 = q * q + q + 1, q * q - q + 1
    if socle.family == "D":
        base = q ** 6 * phi3 * phi6
    else:
        phi5 = q ** 4 + q ** 3 + q * q + q + 1
        phi8, phi9, phi12 = q ** 4 + 1, q ** 6 + q ** 3 + 1, q ** 4 - q * q + 1
        base = q ** 9 * phi3 ** 2 * phi5 * phi6 * phi8 * phi9 * phi12 // 3
    degrees = {t.degree(i) for i in range(t.k)}
    hit = any(d % base == 0 and (d // base) % 3 and d // base <= 48
              for d in degrees)
    return (_yes if hit else _no)(
        f"{LIE_DEGREE_PATTERN_UNTESTED}: degree pattern "
        f"{'matched' if hit else 'not matched'} for {socle}")


# -- abelian test for a normal p-subgroup -----------------------------


def detect_normal_p_abelian(t: CharTable, N: NormalSet, p: int) -> bool:
    """Whether the normal p-subgroup N is abelian.

    N is abelian outright when |N| <= p^2 or N lies in Z(G) (all its
    classes have size 1).  Otherwise the quotient G/N must have a cyclic
    Sylow p-subgroup (rejected if not), and characters are grouped by
    nonvanishing inner products of their restrictions to N: by Clifford's
    theorem two restrictions share a constituent exactly when they lie
    over one G-orbit of Irr(N), so the groups are the distinct rows of
    that pattern, and N is abelian exactly when their minimal degrees sum
    to |N|.  The inner products are the table's row sums with the sizes
    of the classes outside N set to 0.
    """
    if N.order != p_part(N.order, p):
        raise ValueError("N is not a p-subgroup")
    if N.order <= p * p or all(t.classes[c].size == 1 for c in N.members):
        return True
    if not has_cyclic_sylow(quotient_table(t, N), p):
        raise ValueError("quotient lacks a cyclic Sylow p-subgroup")
    iv = int_values(t)
    sizes = iv.sizes.copy()
    sizes[[c for c in range(t.k) if c not in N.members]] = 0
    linked = (_row_sums(replace(iv, sizes=sizes)) != 0).any(axis=2)
    groups = {tuple(np.flatnonzero(row)) for row in linked}
    return sum(min(t.degree(i) for i in g) for g in groups) == N.order


# -- |P:Z(P)| = p^2 ---------------------------------------------------


def detect_center_index_p2(t: CharTable, p: int) -> Verdict:
    """Decide whether |P:Z(P)| = p^2 for P a Sylow p-subgroup.

    After removing O_{p'}(G), a nonabelian Sylow with |P:Z(P)| = p^2
    must leave the group in one of four structural patterns; each is
    matched against the normal lattice and certified by a class-size or
    centralizer count.  Yes if any pattern certifies, No if all four
    demonstrably fail, Unknown if a structural call cannot be made.
    """
    reductions: list[str] = []
    t = _quotient_oppp(t, p, reductions)
    if abelian_sylow_test(t, p):
        return _no("abelian Sylow: |P:Z(P)| = 1", reductions)
    try:
        semis = _semisimple_minimals(t)
    except AmbiguousRecognition as exc:
        return _unknown(LAYER_AMBIGUOUS, str(exc), reductions)
    _, o_p, o_upper = core_subgroups(t, p)
    unknown: list[str] = []  # reasons, each starting with its code
    abelian_parts: list[NormalSet] = []
    for N, rec in semis:
        ab = _minimal_sylow_abelian(t, N, rec, p)
        if ab is None:
            unknown.append(f"{SOCLE_DATA_MISSING}: Sylow abelianness of"
                           f" component {rec.simple} at p={p}")
        elif ab:
            abelian_parts.append(N)
    S = normal_join(t, abelian_parts)
    cases = (lambda: _case_normal_sylow(t, p, o_p, o_upper, S),
             lambda: _case_quasisimple(t, p, o_p, o_upper, S),
             lambda: _case_index_p(t, p, o_p, S),
             lambda: _case_p2_component(t, o_p, o_upper, S, semis) if p == 2 else None)
    for case in cases:
        verdict = case()
        if verdict is None:
            continue
        if verdict.answer == "yes":
            return _yes(verdict.reason, reductions)
        unknown.append(verdict.reason)
    if unknown:
        return Verdict("unknown", "; ".join(unknown), tuple(reductions))
    return _no("no case pattern of the four-way analysis certifies", reductions)


def _case_normal_sylow(t, p, o_p, o_upper, S) -> Verdict | None:
    """Case A: O^{p'}(G) = O_p(G) x S with every component of S having an
    abelian Sylow p; then count the p-elements with full-p-part centralizer
    in G/S (that count is |Z(P)|) and compare against |P| / p^2."""
    if o_p.order * S.order != o_upper.order:
        return None
    if normal_join(t, [o_p, S]).members != o_upper.members:
        return None
    if len(o_p.members & S.members) != 1:
        return None
    t2 = quotient_table(t, S) if S.order > 1 else t
    vg = valuation(t2.group_order, p)
    count = sum(t2.classes[c].size for c in range(t2.k)
                if is_p_element(t2, c, p)
                and valuation(centralizer_order(t2, c), p) == vg)
    if count * p * p == o_p.order:
        return _yes(f"normal-Sylow case: |Z(P)| = {count} = |P|/p^2")
    return None


def _case_quasisimple(t, p, o_p, o_upper, S) -> Verdict | None:
    """Case B: O^{p'}(G) = (O_p * C) x S with C perfect and quasisimple-like
    (all proper normals of G inside C are p-groups of order <= p) and
    v_p(|C|) = 3; then |P:Z(P)| = p^2 exactly when O_p(G) is abelian,
    which (as C centralizes O_p) shows as full-p-part centralizers."""
    lat = normal_lattice(t)
    members = {ns.members for ns in lat}
    for C in sorted(lat, key=lambda ns: ns.order):
        if C.order <= 1 or valuation(C.order, p) != 3:
            continue
        if not _is_perfect_normal(t, C):
            continue
        inner = [ns for ns in lat if ns.members < C.members]
        if any(ns.order != p_part(ns.order, p) or ns.order > p for ns in inner):
            continue
        cap = C.members & o_p.members
        if cap not in members:
            continue
        cap_order = t.subset_order(cap)
        if o_upper.order * cap_order != o_p.order * C.order * S.order:
            continue
        if normal_join(t, [o_p, C, S]).members != o_upper.members:
            continue
        vg = valuation(t.group_order, p)
        if all(valuation(centralizer_order(t, c), p) == vg for c in o_p.members):
            return _yes(f"quasisimple case: component of order {C.order}"
                        f" with p-part p^3, O_p abelian")
    return None


def _case_index_p(t, p, o_p, S) -> Verdict | None:
    """Case C: F*(G) = O_p x S with O_p abelian and v_p(|G:F*|) = 1; then
    certify by a p-element class outside F* whose class size has p-part p."""
    fstar = normal_join(t, [o_p, S])
    if o_p.order * S.order != fstar.order:
        return None
    vg = valuation(t.group_order, p)
    if vg - valuation(fstar.order, p) != 1:
        return None
    try:
        if not detect_normal_p_abelian(t, o_p, p):
            return None
    except ValueError as exc:
        return _unknown(ABELIAN_TEST_PRECONDITION, str(exc))
    for c in range(t.k):
        if c in fstar.members or not is_p_element(t, c, p):
            continue
        if vg - valuation(centralizer_order(t, c), p) == 1:
            return _yes(f"index-p case: p-element class {c} outside F*(G)"
                        f" with |G:C(x)|_{p} = {p}")
    return None


def _case_p2_component(t, o_p, o_upper, S, semis) -> Verdict | None:
    """Case D (p = 2): F*(G) = O_2 x S x T with T a single component of
    type Alt(7) or PSL(2,q), q a square with q = 9 mod 16, and
    |O^{2'}(G)| = 2 |F*(G)|; certify by a 2-element class outside F*
    with full-2-part centralizer.  As in case B, O_2(G) must lie in Z(P):
    every class of O_2(G) needs a full-2-part centralizer (which makes
    O_2(G) abelian); without that the case answers unknown, never yes."""
    for T, rec in semis:
        if rec.copies != 1 or not _case_d_type(rec.simple):
            continue
        S2 = normal_join(t, [N for N, r in semis if N.members != T.members
                             and N.members <= S.members])
        fstar = normal_join(t, [o_p, S2, T])
        if o_p.order * S2.order * T.order != fstar.order:
            continue
        if o_upper.order != 2 * fstar.order:
            continue
        vg = valuation(t.group_order, 2)
        for c in range(t.k):
            if c in fstar.members or not is_p_element(t, c, 2):
                continue
            if valuation(centralizer_order(t, c), 2) == vg:
                if any(valuation(centralizer_order(t, z), 2) != vg for z in o_p.members):
                    return _unknown(CASE_D_O2_NOT_CENTRAL,
                                    f"p2-component case: component {rec.simple},"
                                    f" O_2(G) of order {o_p.order} has a class"
                                    f" without full 2-part centralizer")
                return _yes(f"p2-component case: component {rec.simple},"
                            f" 2-element class {c} outside F*(G) with"
                            f" full 2-part centralizer")
    return None


def _case_d_type(sid: SimpleId) -> bool:
    if sid.family == "Alt" and sid.params[0] in (6, 7):
        return True
    if sid.family == "PSL" and sid.params[0] == 2:
        q = sid.params[1]
        r = isqrt(q)
        return r * r == q and q % 16 == 9
    return False


def _is_perfect_normal(t: CharTable, N: NormalSet) -> bool:
    """N is perfect iff no G-chief factor at the top of N is abelian,
    i.e. every maximal G-normal M < N has |N/M| not a prime power."""
    lat = [ns for ns in normal_lattice(t) if ns.members < N.members]
    maximal = [ns for ns in lat
               if not any(o.members > ns.members for o in lat)]
    return not any(is_prime_power(N.order // M.order) for M in maximal)
