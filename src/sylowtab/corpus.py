"""The embedded test corpus: generator data for every benchmark group.

Matrix-origin groups (SL, GL, PSL) are realized as permutation actions on
nonzero vectors or projective points, with matrices over the integers mod p
or over GF(9) as pairs c0 + c1 x with x^2 = -1; the quaternion/semidihedral
Sylow representatives use their regular representations.  Every entry is pinned
by expected_order so a wrong generator set fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .numutil import prime_divisors
from .perm import DEFAULT_CAP, PermGroup, perm_from_cycles


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    degree: int
    generators: tuple[tuple[int, ...], ...]
    expected_order: int

    def primes(self) -> list[int]:
        return prime_divisors(self.expected_order)


def build_group(entry: CorpusEntry, cap: int = DEFAULT_CAP) -> PermGroup:
    g = PermGroup(entry.degree, [list(gen) for gen in entry.generators],
                  cap=cap, name=entry.name)
    if g.order != entry.expected_order:
        raise ValueError(f"{entry.name}: enumerated order {g.order}, "
                         f"expected {entry.expected_order}")
    return g


# -- constructions ----------------------------------------------------


def _cyclic(n: int) -> list[list[int]]:
    return [perm_from_cycles(n, [tuple(range(n))])]


def _two_gen_regular(n_a: int, twist: int, b_sq: int) -> list[list[int]]:
    """Regular representation of <a, b | a^n_a = 1, b^2 = a^b_sq, b a b^-1 = a^twist>
    (twist must be an involution of Z/n_a, which covers Q8, Q16, SD16)."""
    assert (twist * twist) % n_a == 1

    def mul(x, y):
        i, j = x
        k, l2 = y
        i2 = (i + k * (twist if j else 1)) % n_a
        if j and l2:
            i2 = (i2 + b_sq) % n_a
        return (i2, (j + l2) % 2)

    def idx(x):
        return x[0] + n_a * x[1]

    elems = [(i, j) for j in (0, 1) for i in range(n_a)]
    out = []
    for gen in [(1, 0), (0, 1)]:
        out.append([idx(mul(e, gen)) for e in elems])
    return out


def _matrix_perms(p: int, m: int, dim: int, mat_gens) -> list[list[int]]:
    """Permutations of the nonzero vectors of GF(p^m)^dim under v -> M v.

    m is 1 or 2.  GF(p) is the integers mod p; GF(p^2), for p = 3 (mod 4)
    only, is the pairs c0 + c1 x with x^2 = -1.  A scalar is numbered
    c0 + p c1, and the vectors are listed lexicographically by these
    numbers, the last coordinate fastest.  Matrix entries are ints
    (prime-field constants) or coefficient lists [c0, c1].
    """

    def scalar(spec):
        if isinstance(spec, int):
            return spec % p
        return sum(c % p * p**i for i, c in enumerate(spec))

    def dot(row, v):
        c0 = c1 = 0
        for a, b in zip(row, v):
            (a1, a0), (b1, b0) = divmod(a, p), divmod(b, p)
            c0 += a0 * b0 - a1 * b1
            c1 += a0 * b1 + a1 * b0
        return c0 % p + p * (c1 % p)

    vectors = [v for v in product(range(p**m), repeat=dim) if any(v)]
    index = {v: i for i, v in enumerate(vectors)}
    out = []
    for mat in mat_gens:
        M = [[scalar(x) for x in row] for row in mat]
        out.append([index[tuple(dot(row, v) for row in M)] for v in vectors])
    return out


def _psl2_perms(q: int) -> list[list[int]]:
    """PSL(2, q) (q prime) on the projective line: z -> z+1 and z -> -1/z.
    Points 0..q-1 are the affine line, point q is infinity."""
    inf = q
    shift = [(z + 1) % q for z in range(q)] + [inf]
    flip = [inf] + [(q - pow(z, -1, q)) % q for z in range(1, q)] + [0]
    return [shift, flip]


def _direct_product(parts: list[tuple[int, list[list[int]]]]) -> tuple[int, list[list[int]]]:
    degree = sum(d for d, _ in parts)
    gens = []
    offset = 0
    for d, part_gens in parts:
        for g in part_gens:
            gens.append(list(range(offset)) + [offset + x for x in g]
                        + list(range(offset + d, degree)))
        offset += d
    return degree, gens


# -- the corpus -------------------------------------------------------


def _entry(name, degree, gens, order) -> CorpusEntry:
    return CorpusEntry(name, degree, tuple(tuple(g) for g in gens), order)


def _sym(n):
    return [perm_from_cycles(n, [tuple(range(n))]), perm_from_cycles(n, [(0, 1)])]


def _alt(n):
    long_cycle = tuple(range(n)) if n % 2 else tuple(range(1, n))
    return [perm_from_cycles(n, [long_cycle]), perm_from_cycles(n, [(0, 1, 2)])]


def _build_entries() -> list[CorpusEntry]:
    t = [1, 1]  # the multiplicative generator x+1 of GF(9) (x^2 = -1)
    e12 = [[1, 1], [0, 1]]
    e21 = [[1, 0], [1, 1]]
    entries = [
        _entry("C2", 2, _cyclic(2), 2),
        _entry("C4", 4, _cyclic(4), 4),
        _entry("C6", 6, _cyclic(6), 6),
        _entry("C12", 12, _cyclic(12), 12),
        _entry("D8", 4, [perm_from_cycles(4, [(0, 1, 2, 3)]),
                         perm_from_cycles(4, [(1, 3)])], 8),
        _entry("Q8", 8, _two_gen_regular(4, 3, 2), 8),
        _entry("Q16", 16, _two_gen_regular(8, 7, 4), 16),
        _entry("SD16", 16, _two_gen_regular(8, 3, 0), 16),
        _entry("C3wrC3", 9, [perm_from_cycles(9, [(0, 1, 2)]),
                             perm_from_cycles(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])], 81),
        _entry("S4", 4, _sym(4), 24),
        _entry("S5", 5, _sym(5), 120),
        _entry("S6", 6, _sym(6), 720),
        _entry("S7", 7, _sym(7), 5040),
        _entry("S8", 8, _sym(8), 40320),
        _entry("S9", 9, _sym(9), 362880),
        _entry("A5", 5, _alt(5), 60),
        _entry("A6", 6, _alt(6), 360),
        _entry("A7", 7, _alt(7), 2520),
        _entry("A8", 8, _alt(8), 20160),
        _entry("SL(2,3)", 8, _matrix_perms(3, 1, 2, [e12, e21]), 24),
        _entry("SL(2,5)", 24, _matrix_perms(5, 1, 2, [e12, e21]), 120),
        _entry("SL(2,7)", 48, _matrix_perms(7, 1, 2, [e12, e21]), 336),
        # t = x+1 generates GF(9)*; t^-1 = x+2 since (x+1)(x+2) = x^2+2 = 1
        _entry("SL(2,9)", 80, _matrix_perms(3, 2, 2,
                                            [e12, e21, [[t, 0], [0, [2, 1]]]]), 720),
        _entry("GL(2,3)", 8, _matrix_perms(3, 1, 2, [e12, e21, [[2, 0], [0, 1]]]), 48),
        _entry("PSL(2,7)", 8, _psl2_perms(7), 168),
        _entry("PSL(2,11)", 12, _psl2_perms(11), 660),
        _entry("PSL(2,13)", 14, _psl2_perms(13), 1092),
        _entry("PSL(3,2)", 7, _matrix_perms(2, 1, 3,
                                            [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                             [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]), 168),
        _entry("M11", 11, [perm_from_cycles(11, [tuple(range(11))]),
                           perm_from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])], 7920),
    ]
    deg, gens = _direct_product([(5, _alt(5)), (8, _two_gen_regular(4, 3, 2))])
    entries.append(_entry("A5xQ8", deg, gens, 480))
    deg, gens = _direct_product([(3, _sym(3)), (5, _cyclic(5))])
    entries.append(_entry("S3xC5", deg, gens, 30))
    deg, gens = _direct_product([(4, [perm_from_cycles(4, [(0, 1, 2)]),
                                      perm_from_cycles(4, [(0, 1), (2, 3)])]),
                                 (3, _cyclic(3))])
    entries.append(_entry("A4xC3", deg, gens, 36))
    deg, gens = _direct_product([(4, [perm_from_cycles(4, [(0, 1, 2, 3)]),
                                      perm_from_cycles(4, [(1, 3)])]),
                                 (3, _cyclic(3))])
    entries.append(_entry("D8xC3", deg, gens, 24))
    return entries


_ENTRIES: list[CorpusEntry] | None = None


def corpus_entries() -> list[CorpusEntry]:
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _build_entries()
    return _ENTRIES


def corpus_entry(name: str) -> CorpusEntry:
    for e in corpus_entries():
        if e.name == name:
            return e
    raise KeyError(name)
