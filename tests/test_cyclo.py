"""Exact cyclotomic arithmetic: identities, Galois action, canonical forms."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowtab import cyclo
from sylowtab.cyclo import (_canonicalize, Cyc, cyc_root, cyc_to_rat,
                            cyclotomic_poly, power_matrix)
from sylowtab.numutil import divisors, euler_phi
from table_reference import (reference_canonicalize, reference_cyclotomic_poly,
                             reference_reduce_mod_phi)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polys_match_long_division():
    for n in range(1, 401):
        assert cyclotomic_poly(n) == reference_cyclotomic_poly(n), n


def test_cyclotomic_poly_at_a_large_conductor_is_fast():
    # 3 * 5 * 7 * 11 * 13: long division by every Phi_d took seconds
    start = time.perf_counter()
    phi = cyclotomic_poly.__wrapped__(15015)
    assert time.perf_counter() - start < 1.0
    assert len(phi) == euler_phi(15015) + 1
    assert phi == phi[::-1] and sum(phi) == 1  # palindromic, Phi_n(1) = 1


def test_root_identities():
    assert cyc_root(1, 0) == Cyc.one()
    assert cyc_root(1, 0).n == 1
    assert cyc_root(4, 1) ** 2 == Cyc.from_rational(-1)
    assert cyc_root(3, 1) + cyc_root(3, 2) == Cyc.from_rational(-1)
    assert cyc_root(8, 1) * cyc_root(8, 3) == Cyc.from_rational(-1)


def test_add_mul_small():
    z5 = cyc_root(5)
    assert z5 + 0 == z5
    a = (1 + cyc_root(3)) * (1 + cyc_root(3, 2))
    assert a == Cyc.one()  # (1+w)(1+w^2) = 1 for w a cube root of unity


def test_conductor_two_mod_four_never_appears():
    z6 = cyc_root(6)
    assert z6.n == 3  # zeta_6 = -zeta_3^2
    assert z6 == -cyc_root(3, 2)
    assert z6**6 == Cyc.one()
    assert z6**3 == Cyc.from_rational(-1)


def test_descent_to_rational():
    s = sum((cyc_root(5, k) for k in range(1, 5)), Cyc.zero())
    assert s == Cyc.from_rational(-1)
    assert cyc_to_rat(s) == Fraction(-1)
    assert cyc_to_rat(cyc_root(5)) is None


def test_descent_to_subfield():
    # zeta_15^3 = zeta_5 should canonicalize down to conductor 5.
    z = cyc_root(15, 3)
    assert z.n == 5
    assert z == cyc_root(5)
    # sqrt(5) = 1 + 2*(z5 + z5^4) lives in conductor 5, stays irrational
    s5 = 1 + 2 * (cyc_root(5) + cyc_root(5, 4))
    assert s5.n == 5
    assert s5 * s5 == Cyc.from_rational(5)


def test_galois():
    z3 = cyc_root(3)
    assert z3.galois(-1) == cyc_root(3, 2)
    q = Cyc.from_rational(Fraction(7, 3))
    assert q.galois(5) == q
    with pytest.raises(ValueError):
        cyc_root(6).galois(3)  # conductor 3 after canonicalization; 3 not coprime


def test_abs2():
    """|a|^2 as a times its complex conjugate."""
    for a, want in [(cyc_root(8), 1), (1 + cyc_root(4), 2), (Cyc.zero(), 0)]:
        assert a * a.conjugate() == Cyc.from_rational(want)


def test_inverse():
    a = 1 + cyc_root(5) + 2 * cyc_root(5, 3)
    assert a * a.inverse() == Cyc.one()
    with pytest.raises(ZeroDivisionError):
        Cyc.zero().inverse()


def test_division_and_pow():
    z = cyc_root(7)
    assert (z**3 / z) == z**2
    assert z**-1 == z**6
    assert (z / 2) * 2 == z


CONDUCTORS = [1, 3, 4, 5, 8, 9, 12]


@st.composite
def cycs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    num_terms = draw(st.integers(0, 3))
    c = Cyc.zero()
    for _ in range(num_terms):
        k = draw(st.integers(0, n - 1))
        q = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        c = c + q * cyc_root(n, k)
    return c


@settings(max_examples=80, deadline=None)
@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == Cyc.one()


@settings(max_examples=60, deadline=None)
@given(cycs(), st.integers(1, 40), st.integers(1, 40))
def test_galois_composition_and_hom(a, j1, j2):
    from math import gcd

    n = a.n
    js = [j for j in (j1, j2) if gcd(j, n) == 1]
    if len(js) < 2:
        return
    j1, j2 = js
    assert a.galois(j1).galois(j2) == a.galois(j1 * j2 % n if n > 1 else 1)
    assert a.conjugate().conjugate() == a


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs(), st.integers(1, 40))
def test_galois_ring_hom(a, b, j):
    from math import gcd

    m = a.n * b.n // gcd(a.n, b.n)
    if gcd(j, m) != 1:
        return
    assert (a + b).galois(j) == a.galois(j) + b.galois(j)
    assert (a * b).galois(j) == a.galois(j) * b.galois(j)


@settings(max_examples=40, deadline=None)
@given(cycs())
def test_abs2_is_times_conjugate(a):
    """Complex conjugation is the automorphism j = -1, and it fixes |a|^2."""
    abs2 = a * a.conjugate()
    assert abs2 == a * a.galois(-1)
    assert abs2.conjugate() == abs2


# -- canonicalization against the full-orbit reference -----------------


def _coefficient(draw):
    return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))


@st.composite
def canonicalize_inputs(draw):
    """(n, coeffs) for n <= 210, exponents in [0, 3n) (so mostly unreduced):
    random elements, subfield elements lifted to n, and Gauss periods
    (a constant times the sum of zeta_n^(s u) over a cyclic subgroup of
    units u), half of them at a conductor 2 mod 4."""
    n = draw(st.integers(1, 210))
    if draw(st.booleans()):
        n = 2 * ((n // 2) | 1)
    kind = draw(st.sampled_from(["element", "subfield", "period"]))
    coeffs: dict[int, Fraction] = {}
    if kind == "period":
        units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        h = draw(st.sampled_from(units))
        s = draw(st.integers(0, n - 1))
        c = _coefficient(draw)
        u = 1 % n
        while True:
            coeffs[s * u % n] = c
            u = u * h % n
            if u == 1 % n:
                break
    else:
        d = draw(st.sampled_from(divisors(n))) if kind == "subfield" else n
        for _ in range(draw(st.integers(0, 5))):
            e = draw(st.integers(0, 3 * d - 1)) * (n // d)
            coeffs[e] = coeffs.get(e, 0) + _coefficient(draw)
    return n, coeffs


@settings(max_examples=400, deadline=None)
@given(canonicalize_inputs())
def test_canonicalize_matches_reference(case):
    n, coeffs = case
    assert _canonicalize(n, dict(coeffs)) == reference_canonicalize(n, dict(coeffs))


@pytest.mark.parametrize("n", [1, 2, 4, 9, 12, 15, 16, 21, 30, 45, 60, 105])
def test_power_matrix_rows_reduce_powers(n):
    R = power_matrix(n)
    assert R.shape == (n, euler_phi(n)) and not R.flags.writeable
    for a in range(n):
        dense = [Fraction(0)] * a + [Fraction(1)]
        row = {j: c for j, c in enumerate(R[a].tolist()) if c}
        assert row == reference_reduce_mod_phi(n, dense)


def test_projector_is_built_only_for_a_descent():
    """A value at its minimal conductor fails every generator test, so no
    projector is built (at conductor 1155 one costs a 240 x 720 Fraction
    elimination)."""
    cyclo._projector.cache_clear()
    assert (cyc_root(1155, 1) + cyc_root(1155, 2)).n == 1155
    assert cyclo._projector.cache_info().currsize == 0
    assert cyc_root(1155, 77) == cyc_root(15, 1)
    assert cyclo._projector.cache_info().currsize == 2  # at q = 7, then q = 11
