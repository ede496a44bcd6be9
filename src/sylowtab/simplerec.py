"""Recognition of simple composition factors from orders, plus Sylow facts.

A nonabelian minimal normal subgroup is a direct power S^k of a simple
group, and S is named from |S|.  Alternating and sporadic orders are
compared directly; for the groups of Lie type the order formulas are
inverted.  Over GF(q), q = r^f, the r-part of |S| is exactly q^N with N
fixed by the family and rank, so each prime r dividing |S| leaves at most
one q per family and rank, and the search is bounded by the factorization
of |S|, not by its size.  S is determined by |S| except for two known
coincidences: |Alt(8)| = |PSL(3,4)| and |B_n(q)| = |C_n(q)| (n >= 3,
q odd).  Both are resolved from the table by a 2-element class-size
probe.  Sylow facts for recognized socles (is the Sylow abelian, is
|P:P'| = p^2, is |P:Z(P)| = p^2) come from closed formulas for the
infinite families and an embedded data file for the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import gcd

from .chartab import CharTable, NormalSet, is_p_element
from .numutil import factorize, iroot, is_prime, is_prime_power, p_part, valuation


class RecognitionError(Exception):
    pass


class AmbiguousRecognition(RecognitionError):
    """More than one simple group fits and no probe separates them."""


@dataclass(frozen=True)
class SimpleId:
    """A simple group named by family and parameters, e.g. ("PSL", (2, 7))."""

    family: str
    params: tuple[int, ...]
    order: int

    def __str__(self):
        if not self.params:
            return self.family
        return f"{self.family}({','.join(str(x) for x in self.params)})"


@dataclass(frozen=True)
class SocleFacts:
    """What is known about a Sylow p-subgroup of a simple group."""

    sylow_abelian: bool | None
    commutator_p2: bool | None
    center_p2: bool | None
    tag: str | None = None


def _data() -> dict:
    global _DATA
    if _DATA is None:
        path = resources.files("sylowtab.data").joinpath("socle_data.json")
        _DATA = json.loads(path.read_text())
    return _DATA


_DATA: dict | None = None


# -- order formulas ----------------------------------------------------


def _canonical(family: str, params: tuple[int, ...], order: int) -> SimpleId:
    if family == "PSL":
        if params in ((2, 4), (2, 5)):
            return SimpleId("Alt", (5,), order)
        if params == (2, 9):
            return SimpleId("Alt", (6,), order)
        if params == (4, 2):
            return SimpleId("Alt", (8,), order)
        if params == (3, 2):
            return SimpleId("PSL", (2, 7), order)
    if family == "PSU" and params == (4, 2):
        return SimpleId("PSp", (4, 3), order)
    return SimpleId(family, params, order)


def _psl_order(n: int, q: int) -> int:
    o = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        o *= q ** i - 1
    return o // gcd(n, q - 1)


def _psu_order(n: int, q: int) -> int:
    o = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        o *= q ** i - (-1) ** i
    return o // gcd(n, q + 1)


def _psp_order(n: int, q: int) -> int:
    # C_n(q) = PSp(2n, q); also the order of B_n(q)
    o = q ** (n * n)
    for i in range(1, n + 1):
        o *= q ** (2 * i) - 1
    return o // gcd(2, q - 1)


def _dn_order(n: int, q: int, twisted: bool) -> int:
    e = 1 if twisted else -1
    o = q ** (n * (n - 1)) * (q ** n + e)
    for i in range(1, n):
        o *= q ** (2 * i) - 1
    return o // gcd(4, q ** n + e)


_EXCEPTIONAL = {
    "G2": lambda q: q ** 6 * (q ** 6 - 1) * (q ** 2 - 1),
    "F4": lambda q: q ** 24 * (q ** 12 - 1) * (q ** 8 - 1) * (q ** 6 - 1) * (q ** 2 - 1),
    "E6": lambda q: (q ** 36 * (q ** 12 - 1) * (q ** 9 - 1) * (q ** 8 - 1)
                     * (q ** 6 - 1) * (q ** 5 - 1) * (q ** 2 - 1)) // gcd(3, q - 1),
    "2E6": lambda q: (q ** 36 * (q ** 12 - 1) * (q ** 9 + 1) * (q ** 8 - 1)
                      * (q ** 6 - 1) * (q ** 5 + 1) * (q ** 2 - 1)) // gcd(3, q + 1),
    "E7": lambda q: (q ** 63 * (q ** 18 - 1) * (q ** 14 - 1) * (q ** 12 - 1)
                     * (q ** 10 - 1) * (q ** 8 - 1) * (q ** 6 - 1)
                     * (q ** 2 - 1)) // gcd(2, q - 1),
    "E8": lambda q: (q ** 120 * (q ** 30 - 1) * (q ** 24 - 1) * (q ** 20 - 1)
                     * (q ** 18 - 1) * (q ** 14 - 1) * (q ** 12 - 1)
                     * (q ** 8 - 1) * (q ** 2 - 1)),
    "3D4": lambda q: q ** 12 * (q ** 8 + q ** 4 + 1) * (q ** 6 - 1) * (q ** 2 - 1),
    "2B2": lambda q: q ** 2 * (q ** 2 + 1) * (q - 1),
    "2F4": lambda q: q ** 12 * (q ** 6 + 1) * (q ** 4 - 1) * (q ** 3 + 1) * (q - 1),
    "2G2": lambda q: q ** 3 * (q ** 3 + 1) * (q - 1),
}


def _single_rank(name, exponent, excluded=lambda d, r, f: False):
    """A table row for the exceptional family `name`: one rank, params (q,)."""
    order = _EXCEPTIONAL[name]
    return (name, 1, 1, lambda d: exponent, lambda d, q: (q,),
            lambda d, q: order(q), excluded)


def _odd_power_of(r0: int):
    """2B2, 2F4 (r0 = 2) and 2G2 (r0 = 3) are simple for q = r0^f, f odd, f >= 3."""
    return lambda d, r, f: r != r0 or f % 2 == 0 or f == 1


#: The groups of Lie type: name, first and last rank (None: unbounded),
#: N(d), params(d, q), order(d, q) and excluded(d, r, f).  Over GF(q),
#: q = r^f, the r-part of the order is exactly q^N(d); the exclusions are
#: PSL(2,2), PSL(2,3), PSU(3,2), PSp(4,2), G2(2), B_d over even q (that is
#: C_d) and the Suzuki and Ree groups outside odd powers q >= 8 resp. 27.
_LIE_FAMILIES = (
    ("PSL", 2, None, lambda d: d * (d - 1) // 2, lambda d, q: (d, q), _psl_order,
     lambda d, r, f: d == 2 and r ** f < 4),
    ("PSU", 3, None, lambda d: d * (d - 1) // 2, lambda d, q: (d, q), _psu_order,
     lambda d, r, f: (d, r ** f) == (3, 2)),
    ("PSp", 2, None, lambda d: d * d, lambda d, q: (2 * d, q), _psp_order,
     lambda d, r, f: (d, r ** f) == (2, 2)),
    # B_d(q) has the order of C_d(q) = PSp(2d, q) but is not isomorphic to it
    ("B", 3, None, lambda d: d * d, lambda d, q: (d, q), _psp_order, lambda d, r, f: r == 2),
    ("D", 4, None, lambda d: d * (d - 1), lambda d, q: (d, q),
     lambda d, q: _dn_order(d, q, False), lambda d, r, f: False),
    ("2D", 4, None, lambda d: d * (d - 1), lambda d, q: (d, q),
     lambda d, q: _dn_order(d, q, True), lambda d, r, f: False),
    _single_rank("G2", 6, lambda d, r, f: r ** f == 2),
    _single_rank("F4", 24),
    _single_rank("E6", 36),
    _single_rank("2E6", 36),
    _single_rank("E7", 63),
    _single_rank("E8", 120),
    _single_rank("3D4", 12),
    _single_rank("2B2", 2, _odd_power_of(2)),
    _single_rank("2F4", 12, _odd_power_of(2)),
    _single_rank("2G2", 3, _odd_power_of(3)),
)

#: the Tits group, the derived subgroup of 2F4(2)
_TITS_ORDER = 17971200


def simple_order_candidates(n: int) -> set[SimpleId]:
    """All nonabelian (plus cyclic of prime order) simple groups of order n,
    as canonical SimpleIds.  At most two candidates ever coexist.

    The order formulas are inverted rather than searched: for each prime
    r with r^e exactly dividing n, a family and rank d admit only
    q = r^(e / N(d)), so the work grows with the number of prime factors
    of n and the ranks with N(d) <= e, not with n.
    """
    if n < 1:
        raise ValueError("order must be positive")
    out: set[SimpleId] = set()
    if is_prime(n):
        out.add(SimpleId("Cyclic", (n,), n))
    for name, order in _data()["sporadic_orders"].items():
        if order == n:
            out.add(SimpleId(name, (), order))
    if n == _TITS_ORDER:
        out.add(SimpleId("2F4'", (2,), _TITS_ORDER))

    fact, m = 60, 5
    while fact <= n:
        if fact == n:
            out.add(SimpleId("Alt", (m,), n))
        m += 1
        fact *= m

    for r, e in factorize(n).items():
        for name, first, last, exponent, params, order, excluded in _LIE_FAMILIES:
            d = first
            while exponent(d) <= e and (last is None or d <= last):
                f, rest = divmod(e, exponent(d))
                if not rest and not excluded(d, r, f) and order(d, r ** f) == n:
                    out.add(_canonical(name, params(d, r ** f), n))
                d += 1
    return out


# -- minimal normal subgroups -----------------------------------------


@dataclass(frozen=True)
class RecognizedNormal:
    """A minimal normal subgroup: elementary abelian p^rank, or S^copies."""

    kind: str  # "elementary" | "semisimple"
    simple: SimpleId | None = None
    copies: int = 0
    prime: int = 0
    rank: int = 0


def recognize_minimal_normal(t: CharTable, N: NormalSet) -> RecognizedNormal:
    order = N.order
    power = is_prime_power(order)
    if power:
        return RecognizedNormal(kind="elementary", prime=power[0], rank=power[1])
    pairs: list[tuple[SimpleId, int]] = []
    k = 1
    while 60 ** k <= order:
        root, exact = iroot(order, k)
        if exact:
            for sid in simple_order_candidates(root):
                if sid.family != "Cyclic":
                    pairs.append((sid, k))
        k += 1
    if not pairs:
        raise RecognitionError(f"no simple group power has order {order}")
    if len(pairs) == 1:
        sid, k = pairs[0]
        return RecognizedNormal(kind="semisimple", simple=sid, copies=k)
    families = {(sid.family, sid.params) for sid, _ in pairs}
    if families == {("Alt", (8,)), ("PSL", (3, 4))}:
        k = pairs[0][1]
        # Alt(8) has a 2-element class of index 105 (transposition pairs);
        # in PSL(3,4) every 2-element class index is a multiple of 315
        targets = {105 * j for j in range(1, k + 1)}
        hit = any(is_p_element(t, c, 2) and t.classes[c].size in targets
                  for c in N.members)
        sid = next(s for s, _ in pairs
                   if (s.params == (8,)) == hit)
        return RecognizedNormal(kind="semisimple", simple=sid, copies=k)
    if all(f in ("B", "PSp") for f, _ in families) and len(families) == 2 and pairs[0][1] == 1:
        (b_sid,) = [s for s, _ in pairs if s.family == "B"]
        nn, q = b_sid.params
        s = q ** nn
        # B_n(q) alone has a 2-element class of index q^n(q^n - eps)/2
        # where eps = +1 when q^n = 1 mod 4 and -1 otherwise
        target = s * (s - 1) // 2 if s % 4 == 1 else s * (s + 1) // 2
        hit = any(is_p_element(t, c, 2) and t.classes[c].size == target
                  for c in N.members)
        sid = next(x for x, _ in pairs if (x.family == "B") == hit)
        return RecognizedNormal(kind="semisimple", simple=sid, copies=1)
    raise AmbiguousRecognition(
        f"order {order}: cannot separate {sorted(str(s) for s, _ in pairs)}")


def is_almost_simple(t: CharTable) -> tuple[bool, SimpleId | None, NormalSet | None]:
    """Does the table have a unique minimal normal subgroup that is simple?"""
    from .chartab import minimal_normals

    mins = minimal_normals(t)
    if len(mins) != 1:
        return False, None, None
    rec = recognize_minimal_normal(t, mins[0])
    if rec.kind == "semisimple" and rec.copies == 1:
        return True, rec.simple, mins[0]
    return False, None, None


# -- Sylow facts for simple groups ------------------------------------


def _alt_digits(m: int, p: int) -> list[int]:
    digits = []
    while m:
        digits.append(m % p)
        m //= p
    return digits


def socle_sylow_lookup(s: SimpleId, p: int) -> SocleFacts:
    """Sylow p-subgroup facts for the simple group s (None = unknown)."""
    v = valuation(s.order, p)
    if v == 0:
        return SocleFacts(True, False, False, "trivial")
    if v == 1:
        return SocleFacts(True, False, False, "cyclic")
    if v == 2:
        # any group of order p^2 is abelian, so |P:P'| = p^2 on the nose
        return SocleFacts(True, True, False, "abelian")

    if s.family == "Alt":
        m = s.params[0]
        if p % 2:
            a = _alt_digits(m, p)
            abelian = all(x == 0 for x in a[2:])
            comm = sum(k * x for k, x in enumerate(a)) == 2
            return SocleFacts(abelian, comm, False,
                              "iterated-wreath" if comm else None)
        row = _data()["alt_p2"].get(str(m))
        if row is None:
            return SocleFacts(None, None, None, None)
        return SocleFacts(row["abelian"], row["commutator_p2"],
                          row["center_p2"], row["tag"])

    if s.family == "PSL" and s.params[0] == 2:
        q = s.params[1]
        q0, f = is_prime_power(q)
        if q0 == p:
            # defining characteristic: P is elementary abelian of rank f
            return SocleFacts(True, f == 2, False, "elementary-abelian")
        if p == 2:
            # P is dihedral of order 2^v (v >= 3 here)
            return SocleFacts(False, True, v == 3, "dihedral")
        return SocleFacts(True, False, False, "cyclic")

    if s.family == "PSL" and s.params == (3, 4) and p == 2:
        row = _data()["psl34_p2"]
        return SocleFacts(row["abelian"], row["commutator_p2"],
                          row["center_p2"], row["tag"])

    if s.family in _data()["sporadic_orders"]:
        comm = [s.family, p] in _data()["sporadic_commutator_p2"]
        key = f"{s.family},{p}"
        center = _data()["sporadic_center_p2"].get(key)
        tag = _data()["sporadic_tags"].get(key)
        return SocleFacts(None, comm, center, tag)

    return SocleFacts(None, None, None, None)


def out_has_unique_order_p_subgroup(s: SimpleId, p: int) -> bool | None:
    """Whether Out(S) contains exactly one subgroup of order p (None = unknown).

    Only the families whose extension Sylow data we can look up are handled.
    """
    if s.family == "Alt":
        m = s.params[0]
        if m == 6:
            return False  # Out(Alt(6)) = C2 x C2: three subgroups of order 2
        return p == 2
    if s.family == "PSL" and s.params[0] == 2:
        q = s.params[1]
        q0, f = is_prime_power(q)
        if p == 2 and q0 != 2:
            return f % 2 == 1  # Out = C2 x C_f: unique iff the C_f part is odd
        if p != 2 and p != q0:
            return f % p == 0
        return None
    if s.family in _data()["sporadic_orders"]:
        # every sporadic group has |Out| <= 2
        return p == 2 and _sporadic_out2(s.family)
    return None


def _sporadic_out2(name: str) -> bool:
    return name in {"M12", "M22", "J2", "J3", "HS", "McL", "He", "Suz",
                    "ON", "Fi22", "Fi24'", "HN"}


def extension_sylow_lookup(s: SimpleId, p: int) -> SocleFacts:
    """Sylow facts for the unique degree-p extension S.p (when it exists).

    Covers Alt(m).2 = Sym(m) at p = 2 and PSL(2,q).2 = PGL(2,q) (q odd,
    odd field degree) at p = 2; everything else is unknown.
    """
    if p == 2 and s.family == "Alt" and s.params[0] != 6:
        m = s.params[0]
        b = _alt_digits(m, 2)
        comm = sum(k * x for k, x in enumerate(b)) == 2
        center = sum(x * (2 ** k - 2) for k, x in enumerate(b) if k >= 1) == 2
        abelian = m < 4
        return SocleFacts(abelian, comm, center, "sym-wreath")
    if p == 2 and s.family == "PSL" and s.params[0] == 2:
        q = s.params[1]
        q0, f = is_prime_power(q)
        if q0 != 2 and f % 2 == 1:
            two_part = p_part(q * q - 1, 2)
            # PGL(2,q) has a dihedral Sylow 2-subgroup of order (q^2-1)_2
            return SocleFacts(two_part <= 4, True, two_part == 8, "dihedral")
    return SocleFacts(None, None, None, None)
