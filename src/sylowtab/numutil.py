"""Small exact number-theory helpers shared across the package.

Everything here works on plain Python ints (arbitrary precision); nothing
floats.  Group orders at desk scale are small enough that trial division
is perfectly adequate.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: multiplicity}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def valuation(n: int, p: int) -> int:
    """v_p(n): multiplicity of the prime p in n (n != 0)."""
    if n == 0:
        raise ValueError("v_p(0) undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def p_part(n: int, p: int) -> int:
    return p ** valuation(n, p)


def p_prime_part(n: int, p: int) -> int:
    return abs(n) // p_part(n, p)


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, or None if n is not a prime power (n >= 2)."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    [(p, k)] = f.items()
    return p, k


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^*; n >= 1, gcd(a, n) = 1."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """The least generator of (Z/p)^* for a prime p."""
    primes = list(factorize(p - 1))
    for w in range(1, p):
        if all(pow(w, (p - 1) // r, p) != 1 for r in primes):
            return w
    raise ValueError(f"no primitive root mod {p}")


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root: (r, exact) with r = floor(n^(1/k))."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if k == 1:
        return n, True
    if k == 2:
        r = isqrt(n)
        return r, r * r == n
    r = round(n ** (1.0 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r, r**k == n


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def divisors(n: int) -> list[int]:
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)
