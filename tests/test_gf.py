from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sylowtab.cyclo import Cyc, cyc_root
from sylowtab import gfpm
from sylowtab.gfpm import GF, CycReducer
from table_reference import ideal_reduce

FIELDS = [GF(2, 1), GF(3, 1), GF(2, 3), GF(3, 2), GF(5, 2), GF(7, 1)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.p}^{f.m})")
def test_generator_has_full_order(field):
    g = field.generator
    assert g.multiplicative_order() == field.order - 1


def _elems(field):
    out = [field.zero()]
    g = field.generator
    x = field.one()
    for _ in range(field.order - 1):
        out.append(x)
        x = x * g
    return out


@pytest.mark.parametrize("field", [GF(2, 2), GF(3, 2), GF(5, 1)],
                         ids=lambda f: f"GF({f.p}^{f.m})")
def test_field_axioms_exhaustive(field):
    elems = _elems(field)
    assert len(set(elems)) == field.order
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a - b) + b == a
            if not b.is_zero():
                assert (a * b) * b.inverse() == a
    for a in elems:
        # Frobenius: x -> x^p is additive
        for b in elems:
            assert (a + b) ** field.p == a ** field.p + b ** field.p


def test_second_reducer_for_a_field_does_no_generator_search(monkeypatch):
    searched = []
    to_poly = gfpm._int_to_poly

    def counting(k, p, m):
        searched.append(k)
        return to_poly(k, p, m)

    monkeypatch.setattr(gfpm, "_int_to_poly", counting)
    first = CycReducer(5, 13 * 25)  # GF(5^4): 13 divides 5^4 - 1
    assert first.field.m == 4
    searched.clear()
    second = CycReducer(5, 13)
    assert second.field == first.field
    assert searched == []
    assert second.field.generator == first.field.generator
    assert second.powers(13) == first.powers(13)


def test_smallest_irreducible_deterministic():
    assert GF(3, 2).modulus == GF(3, 2).modulus
    f1, f2 = GF(2, 4), GF(2, 4)
    assert f1.modulus == f2.modulus


def test_reducer_is_multiplicative():
    red = CycReducer(7, 9)
    z = cyc_root(9, 1)
    a, b = z + 2, z * z - 1
    assert red.reduce(a * b) == red.reduce(a) * red.reduce(b)
    assert red.reduce(a + b) == red.reduce(a) + red.reduce(b)


def test_reducer_kills_p_power_roots():
    # zeta_{p^a} - 1 lies in every prime ideal over p
    red = CycReducer(3, 9)
    assert red.reduce(cyc_root(9, 1)) == red.reduce(Cyc.one())
    red = CycReducer(2, 8)
    assert red.reduce(cyc_root(8, 1)) == red.reduce(Cyc.one())


def test_reduced_root_has_right_order():
    red = CycReducer(7, 5)
    w = red.reduce(cyc_root(5, 1))
    assert w.multiplicative_order() == 5


def test_ideal_reduce_rationals():
    v = Cyc.from_rational(Fraction(10))
    assert ideal_reduce(v, 7) == ideal_reduce(Cyc.from_rational(Fraction(3)), 7)
    with pytest.raises(ValueError):
        ideal_reduce(Cyc.from_rational(Fraction(1, 7)), 7)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_reducer_respects_root_arithmetic(i, j):
    red = CycReducer(5, 9)
    zi, zj = cyc_root(9, i), cyc_root(9, j)
    assert red.reduce(zi * zj) == red.reduce(zi) * red.reduce(zj)
    assert red.reduce(cyc_root(9, (i + j) % 9)) == red.reduce(zi) * red.reduce(zj)
