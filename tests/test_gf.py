from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sylowtab.cyclo import Cyc, cyc_root
from sylowtab import gfpm
from sylowtab.gfpm import GF, CycReducer, FFElem
from sylowtab.numutil import factorize
from table_reference import ideal_reduce

FIELDS = [GF(2, 1), GF(3, 1), GF(2, 3), GF(3, 2), GF(5, 2), GF(7, 1)]


def _order(x: FFElem) -> int:
    """The multiplicative order of a nonzero x, from powers of x."""
    one = x.field.one().coeffs
    n = x.field.order - 1
    for r in factorize(n):
        while n % r == 0 and (x ** (n // r)).coeffs == one:
            n //= r
    return n


def _add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.p}^{f.m})")
def test_generator_has_full_order(field):
    assert _order(field.generator) == field.order - 1


def _elems(field):
    """Every element's coefficients: zero, then the powers of the generator."""
    out = [(0,) * field.m]
    g = field.generator
    x = field.one()
    for _ in range(field.order - 1):
        out.append(x.coeffs)
        x = x * g
    return out


@pytest.mark.parametrize("field", [GF(2, 2), GF(3, 2), GF(5, 1)],
                         ids=lambda f: f"GF({f.p}^{f.m})")
def test_field_axioms_exhaustive(field):
    p, mul = field.p, field.mul
    elems = _elems(field)
    zero, one = elems[0], field.one().coeffs
    assert len(set(elems)) == field.order
    for a in elems:
        assert _add(p, a, tuple(-x % p for x in a)) == zero
        for b in elems:
            assert _add(p, a, b) == _add(p, b, a)
            assert mul(a, b) == mul(b, a)
            if b != zero:
                inverse = [c for c in elems if mul(b, c) == one]
                assert len(inverse) == 1
                assert mul(mul(a, b), inverse[0]) == a
            for c in elems:
                assert mul(a, _add(p, b, c)) == _add(p, mul(a, b), mul(a, c))
    for a in elems:
        # Frobenius: x -> x^p is additive
        for b in elems:
            frob_sum = (FFElem(field, _add(p, a, b)) ** p).coeffs
            assert frob_sum == _add(p, (FFElem(field, a) ** p).coeffs,
                                    (FFElem(field, b) ** p).coeffs)


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
    assert second.field.generator.coeffs == first.field.generator.coeffs
    assert second.powers(13) == first.powers(13)


def test_smallest_irreducible_deterministic():
    assert GF(3, 2).modulus == GF(3, 2).modulus
    f1, f2 = GF(2, 4), GF(2, 4)
    assert f1.modulus == f2.modulus


def test_reducer_is_multiplicative():
    red = CycReducer(7, 9)
    z = cyc_root(9, 1)
    a, b = z + 2, z * z - 1
    assert red.reduce(a * b).coeffs == (red.reduce(a) * red.reduce(b)).coeffs
    assert red.reduce(a + b).coeffs == _add(7, red.reduce(a).coeffs, red.reduce(b).coeffs)


def test_reducer_kills_p_power_roots():
    # zeta_{p^a} - 1 lies in every prime ideal over p
    red = CycReducer(3, 9)
    assert red.reduce(cyc_root(9, 1)).coeffs == red.reduce(Cyc.one()).coeffs
    red = CycReducer(2, 8)
    assert red.reduce(cyc_root(8, 1)).coeffs == red.reduce(Cyc.one()).coeffs


def test_reduced_root_has_right_order():
    red = CycReducer(7, 5)
    w = red.reduce(cyc_root(5, 1))
    assert _order(w) == 5


def test_ideal_reduce_rationals():
    v = Cyc.from_rational(Fraction(10))
    assert ideal_reduce(v, 7) == ideal_reduce(Cyc.from_rational(Fraction(3)), 7)
    with pytest.raises(ValueError):
        ideal_reduce(Cyc.from_rational(Fraction(1, 7)), 7)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_reducer_respects_root_arithmetic(i, j):
    red = CycReducer(5, 9)
    zi, zj = cyc_root(9, i), cyc_root(9, j)
    product = (red.reduce(zi) * red.reduce(zj)).coeffs
    assert red.reduce(zi * zj).coeffs == product
    assert red.reduce(cyc_root(9, (i + j) % 9)).coeffs == product
