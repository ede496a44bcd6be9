import pytest

from fractions import Fraction

from sylowtab.blocks import (abelian_sylow_test, block_partition,
                             count_height_zero_principal)
from sylowtab.chartab import CharTable, ClassData
from sylowtab.cyclo import Cyc
from sylowtab.gfpm import CycReducer, _is_irreducible
from sylowtab.numutil import prime_divisors
from table_reference import (central_character, central_conductor, fresh,
                             reference_blocks)


def _degrees(t, block):
    return sorted(t.degree(i) for i in block)


def test_a5_blocks_p2(corpus):
    t = corpus.table("A5")
    bp = block_partition(t, 2)
    assert _degrees(t, bp.principal()) == [1, 3, 3, 5]
    assert sorted(map(len, bp.blocks)) == [1, 4]
    assert sorted(bp.defects) == [0, 2]


def test_s4_blocks(corpus):
    t = corpus.table("S4")
    assert len(block_partition(t, 2).blocks) == 1
    bp3 = block_partition(t, 3)
    assert _degrees(t, bp3.principal()) == [1, 1, 2]
    assert sorted(map(len, bp3.blocks)) == [1, 1, 3]


def test_sl25_blocks_p2(corpus):
    t = corpus.table("SL(2,5)")
    bp = block_partition(t, 2)
    assert _degrees(t, bp.principal()) == [1, 2, 2, 3, 3, 5, 6]
    assert sorted(map(len, bp.blocks)) == [2, 7]


def test_central_characters_integral(corpus):
    t = corpus.table("M11")
    for i in range(t.k):
        for w in central_character(t, i):
            assert w.is_integral()


def test_height_zero_counts(corpus):
    assert count_height_zero_principal(corpus.table("A5"), 2) == 4
    assert count_height_zero_principal(corpus.table("M11"), 3) == 9


@pytest.mark.parametrize("name,p", [("A5", 2), ("S4", 2), ("S4", 3),
                                    ("M11", 2), ("SL(2,5)", 2), ("A4xC3", 2)])
def test_abelian_sylow_matches_oracle(corpus, name, p):
    t = corpus.table(name)
    assert abelian_sylow_test(t, p) == corpus.truth(name, p).abelian


@pytest.mark.parametrize("name,p", [("A5", 2), ("M11", 2), ("SL(2,9)", 3),
                                    ("PSL(2,7)", 2)])
def test_partition_independent_of_modulus(corpus, name, p):
    """The block partition must not depend on which irreducible polynomial
    realizes the residue field: reducers built on other polynomials give
    the partition that block_partition finds."""
    t = corpus.table(name)
    base = block_partition(t, p)
    m = len(_default_modulus(t, p)) - 1
    if m == 1:
        pytest.skip("prime residue field: nothing to vary")
    alternates = [mod for mod in _monic_polys(p, m)
                  if _is_irreducible(p, mod)][:3]
    for mod in alternates:
        assert reference_blocks(t, p, mod) == base.blocks


def _default_modulus(t, p):
    return CycReducer(p, central_conductor(t)).field.modulus


def _monic_polys(p, m):
    """All monic degree-m polynomials over GF(p), low-degree coefficients first."""
    total = p ** m
    for k in range(total):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        yield tuple(coeffs) + (1,)


def test_partition_matches_reference_on_corpus(corpus):
    for name in corpus.names():
        t = fresh(corpus.table(name))
        for p in prime_divisors(t.group_order):
            bp = block_partition(t, p)
            assert bp.blocks == reference_blocks(t, p), (name, p)
            assert 0 in bp.principal()


def _central_error(t):
    try:
        for i in range(t.k):
            central_character(t, i)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("bump", [Fraction(1), Fraction(1, 2)])
def test_non_integral_central_character_message(corpus, bump):
    """A value that makes |C| chi(x) / chi(1) non-integral is reported at the
    same character and class as the Cyc definition reports it."""
    t = corpus.table("S4")
    i = next(i for i in range(t.k) if t.degree(i) == 2)
    c = next(c for c in range(t.k) if t.classes[c].size % 2)
    rows = [list(r) for r in t.chars]
    rows[i][c] = rows[i][c] + Cyc.from_rational(bump)
    bad = fresh(t, chars=rows)
    want = _central_error(bad)
    assert want is not None
    with pytest.raises(ValueError) as exc:
        block_partition(bad, 2)
    assert str(exc.value) == want


def test_partition_with_python_int_reduction():
    """p large enough that the reduction product leaves int64: every
    character is alone in its block, as the reference finds."""
    one = Cyc.one()
    t = CharTable(2, [ClassData(1, 1), ClassData(1, 2)], {2: (0, 0)},
                  [[one, one], [one, -one]])
    p = (1 << 61) - 1
    assert block_partition(t, p).blocks == reference_blocks(t, p) == ((0,), (1,))


def test_repeated_partition_builds_no_reducer(corpus, monkeypatch):
    t = fresh(corpus.table("M11"))
    first = block_partition(t, 2)
    builds = []
    init = CycReducer.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycReducer, "__init__", counting)
    assert block_partition(t, 2) is first
    assert builds == []
    block_partition(t, 3)
    assert len(builds) == 1
