from hypothesis import given, strategies as st

from sylowtab.numutil import (divisors, euler_phi, factorize, iroot, is_prime,
                              is_prime_power, multiplicative_order, p_part,
                              prime_divisors, primitive_root, valuation)


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert prime_divisors(7920) == [2, 3, 5, 11]


def test_valuation_and_parts():
    assert valuation(48, 2) == 4
    assert p_part(720, 2) == 16
    assert p_part(720, 7) == 1
    assert is_prime_power(81) and not is_prime_power(12) and not is_prime_power(1)


def test_is_prime():
    primes_below_40 = [n for n in range(2, 40) if is_prime(n)]
    assert primes_below_40 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_primitive_root_is_least_generator():
    for p in (n for n in range(2, 200) if is_prime(n)):
        g = primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert all(multiplicative_order(w, p) < p - 1 for w in range(1, g))


def test_multiplicative_order():
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 7) == 3
    assert euler_phi(12) == 4


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for q, e in factorize(n).items():
        assert is_prime(q)
        prod *= q ** e
    assert prod == n


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=6))
def test_iroot_floor(n, k):
    r, exact = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    assert exact == (r ** k == n)


@given(st.integers(min_value=1, max_value=5000))
def test_divisors_complete(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)
