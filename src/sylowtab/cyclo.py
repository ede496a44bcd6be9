"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value at conductor n is stored as sum c zeta_n^b, with Fraction
coefficients, over the exponents b of the tensor basis of Q(zeta_n).
With n the product of the prime powers q = p^a, that basis is the
products of zeta_q^f over all q, 0 <= f < phi(q) (compare GAP's
Zumbroich basis; Breuer, AAECC 8, 1997).  As zeta_q' = zeta_q^(q/q') for
q' | q, the basis of Q(zeta_m) is part of that of Q(zeta_n) for every
m | n, so a value lies in Q(zeta_m) exactly when its support does: its
minimal conductor is the lcm of the orders n/gcd(b, n) over the support.
Every value is canonicalized to that conductor on construction, so
structural equality is semantic equality and rational values always live
at conductor 1.  phi(2) = 1 leaves zeta_2 out of every basis, so no
conductor 2 mod 4 appears.

Canonicalization rewrites each zeta_n^e by its row on the tensor basis,
cached per (n, e), and `tensor_basis` stacks the rows for integer
products.  The Galois action multiplies exponents and canonicalizes.
The power basis 1, z, ..., z^(phi(n)-1) is used only where values are
written out (`power_terms`), so emitted documents keep it.

Character values and central characters throughout the package are Cyc
instances; plain rationals are Cyc with conductor 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .numutil import divisors, euler_phi, factorize, lcm, prime_divisors

#: Guard against runaway conductors (desk-scale cap).
MAX_CONDUCTOR = 1 << 20

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Phi_n(x) = Phi_r(x^(n/r)) for r = rad(n), and for squarefree n = m*p,
    p the largest prime, Phi_n(x) = Phi_m(x^p) / Phi_m(x).  The division
    multiplies by 1/Phi_m(x) = prod_{d | m} (1 - x^d)^(-mu(m/d)) (m > 1)
    as a power series cut after degree phi(n): the factors with
    mu(m/d) = -1 first, then division by each 1 - x^d as a running sum
    with stride d, so every step is exact and O(phi(n)).
    """
    if n == 1:
        return (-1, 1)
    primes = prime_divisors(n)
    r = prod(primes)
    if r < n:
        out = [0] * (euler_phi(r) * (n // r) + 1)
        out[:: n // r] = cyclotomic_poly(r)
        return tuple(out)
    p = primes[-1]
    m = n // p
    if m == 1:
        return (1,) * p
    size = euler_phi(n) + 1
    out = [0] * size
    out[::p] = cyclotomic_poly(m)[: (size - 1) // p + 1]  # Phi_m(x^p), cut
    mult, div = [], []  # the divisors d of m with mu(m/d) = -1, +1
    for d in divisors(m):
        (mult if len(prime_divisors(m // d)) % 2 else div).append(d)
    for d in mult:
        for i in range(size - 1, d - 1, -1):
            out[i] -= out[i - d]
    for d in div:
        for i in range(d, size):
            out[i] += out[i - d]
    return tuple(out)


@lru_cache(maxsize=None)
def _power_row(n: int, a: int) -> tuple[tuple[int, int], ...]:
    """zeta_n^a (0 <= a < n) on the power basis: x^a mod Phi_n as
    (exponent, coefficient) pairs."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    if a < deg:
        return ((a, 1),)
    low = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    dense = [0] * (a + 1)
    dense[a] = 1
    for i in range(a, deg - 1, -1):
        c = dense[i]
        if c:
            for j, pj in low:
                dense[i - deg + j] -= c * pj
    return tuple((e, c) for e, c in enumerate(dense[:deg]) if c)


@lru_cache(maxsize=None)
def _tensor_row(n: int, e: int) -> tuple[tuple[int, int], ...]:
    """zeta_n^e (0 <= e < n) on the tensor basis, as (exponent, +-1) pairs.

    zeta_n^e is the product over the prime powers q of n of zeta_q^r,
    r = e (n/q)^-1 mod q.  For r >= phi(q) the p-th roots of unity sum to
    0, so zeta_q^r is minus the sum of zeta_q^(r - j q/p), j = 1 .. p-1,
    each below phi(q).
    """
    terms = [(0, 1)]
    for p, a in factorize(n).items():
        q = p**a
        step, m = q // p, n // q
        r = e * pow(m, -1, q) % q
        factor = [(r, 1)] if r < q - step else [(r - j * step, -1) for j in range(1, p)]
        terms = [(x + f * m, s * u) for x, s in terms for f, u in factor]
    return tuple((x % n, s) for x, s in terms)


@lru_cache(maxsize=None)
def tensor_basis(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The exponents b of the tensor basis elements zeta_n^b, ascending (so
    0, the rational 1, first), and the read-only int64 0/+-1 array
    (n, phi(n)) whose row a holds zeta_n^a on them."""
    rows = [_tensor_row(n, a) for a in range(n)]
    exponents = tuple(a for a, row in enumerate(rows) if row == ((a, 1),))
    column = {b: j for j, b in enumerate(exponents)}
    out = np.zeros((n, len(exponents)), dtype=np.int64)
    for a, row in enumerate(rows):
        for b, s in row:
            out[a, column[b]] = s
    out.setflags(write=False)
    return exponents, out


def power_terms(v: "Cyc") -> list[tuple[int, Fraction]]:
    """v on the power basis 1, z, .., z^(phi(n)-1) of Q(zeta_n), n = v.n, as
    (exponent, coefficient) pairs in exponent order: the form values are
    written out in."""
    out: dict[int, Fraction] = {}
    for b, c in v.coeffs.items():
        for e, r in _power_row(v.n, b):
            out[e] = out.get(e, _ZERO) + c * r
    return sorted((e, c) for e, c in out.items() if c)


class Cyc:
    """An element of a cyclotomic field, canonical at minimal conductor."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs: dict[int, Fraction], *, _canonical: bool = False):
        if n < 1:
            raise ValueError("conductor must be positive")
        if n > MAX_CONDUCTOR:
            raise ValueError(f"conductor {n} exceeds cap {MAX_CONDUCTOR}")
        if _canonical:
            self.n = n
            self.coeffs = coeffs
        else:
            m, cc = _canonicalize(n, coeffs)
            self.n = m
            self.coeffs = cc
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyc":
        q = Fraction(q)
        return Cyc(1, {0: q} if q else {}, _canonical=True)

    @staticmethod
    def zero() -> "Cyc":
        return Cyc.from_rational(0)

    @staticmethod
    def one() -> "Cyc":
        return Cyc.from_rational(1)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def rational_value(self) -> Fraction:
        """The value as a Fraction; raises if the element is irrational."""
        if self.n != 1:
            raise ValueError(f"not rational (conductor {self.n})")
        return self.coeffs.get(0, _ZERO)

    def is_integral(self) -> bool:
        """True iff the value is in Z[zeta_n]: the tensor and power bases
        are both Z-bases of it, so this is integral coefficients on either."""
        return all(c.denominator == 1 for c in self.coeffs.values())

    # -- arithmetic ---------------------------------------------------

    def _lift(self, m: int) -> dict[int, Fraction]:
        """Coefficients of self rewritten at conductor m (n | m), unreduced."""
        k = m // self.n
        return {e * k: c for e, c in self.coeffs.items()}

    def __add__(self, other) -> "Cyc":
        other = _as_cyc(other)
        m = self.n * other.n // gcd(self.n, other.n)
        a = self._lift(m)
        for e, c in other._lift(m).items():
            a[e] = a.get(e, _ZERO) + c
        return Cyc(m, a)

    def __radd__(self, other) -> "Cyc":
        return self.__add__(other)

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, {e: -c for e, c in self.coeffs.items()}, _canonical=True)

    def __sub__(self, other) -> "Cyc":
        return self + (-_as_cyc(other))

    def __rsub__(self, other) -> "Cyc":
        return _as_cyc(other) + (-self)

    def __mul__(self, other) -> "Cyc":
        other = _as_cyc(other)
        if self.n == 1:
            q = self.coeffs.get(0, _ZERO)
            return other._scale(q)
        if other.n == 1:
            return self._scale(other.coeffs.get(0, _ZERO))
        m = self.n * other.n // gcd(self.n, other.n)
        a = self._lift(m)
        b = other._lift(m)
        prod: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                prod[e] = prod.get(e, _ZERO) + c1 * c2
        return Cyc(m, prod)

    def __rmul__(self, other) -> "Cyc":
        return self.__mul__(other)

    def _scale(self, q: Fraction) -> "Cyc":
        if not q:
            return Cyc.zero()
        return Cyc(self.n, {e: c * q for e, c in self.coeffs.items()}, _canonical=True)

    def __truediv__(self, other) -> "Cyc":
        other = _as_cyc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Cyc")
        if other.n == 1:
            return self._scale(1 / other.coeffs[0])
        return self * other.inverse()

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, which is a nonzero rational.

        The product is taken one cyclic subgroup at a time.  x starts as
        self, and for each unit j both x and the product are multiplied by
        the other conjugates of x under the powers of zeta -> zeta^j.  So
        self times the product is x throughout, x is then fixed by every j
        so far (it lies in their fixed field, where products are cheaper),
        and the last x is the norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        x, out = self, Cyc.one()
        for j in range(2, self.n):
            if gcd(j, self.n) == 1:
                others, y = Cyc.one(), x.galois(j)
                while y != x:
                    others, y = others * y, y.galois(j)
                x, out = x * others, out * others
        return out._scale(1 / x.rational_value())

    # -- Galois action ------------------------------------------------

    def galois(self, j: int) -> "Cyc":
        """Apply the automorphism zeta_n -> zeta_n^j (gcd(j, n) = 1)."""
        j %= self.n
        if gcd(j, self.n) != 1:
            raise ValueError(f"{j} is not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        return Cyc(self.n, {e * j: c for e, c in self.coeffs.items()})

    def conjugate(self) -> "Cyc":
        return self.galois(-1)

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def __repr__(self):
        if self.is_zero():
            return "Cyc(0)"
        if self.n == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{self.n}^{e}")
            else:
                terms.append(f"{c}*z{self.n}^{e}")
        return "Cyc(" + " + ".join(terms) + ")"

    def __bool__(self):
        return not self.is_zero()


def _as_cyc(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyc")


def cyc_root(n: int, k: int = 1) -> Cyc:
    """zeta_n^k, canonicalized (cyc_root(1, 0) is the rational 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return Cyc(n, {k: _ONE})


def cyc_to_rat(a: Cyc) -> Fraction | None:
    """The rational value of a, or None when a is genuinely irrational."""
    if a.n != 1:
        return None
    return a.rational_value()


# -- canonicalization ------------------------------------------------


def _canonicalize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """The minimal conductor m and tensor-basis coefficients of sum c zeta_n^e.

    Each zeta_n^e is rewritten by its tensor row; m is the lcm of the
    orders n/gcd(b, n) of the basis elements zeta_n^b left in the support,
    and b -> b m/n rewrites them at m.
    """
    out: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        for b, s in _tensor_row(n, e % n):
            out[b] = out.get(b, _ZERO) + (c if s > 0 else -c)
    out = {b: c for b, c in out.items() if c}
    m = 1
    for b in out:
        m = lcm(m, n // gcd(b, n))
    k = n // m
    return m, {b // k: c for b, c in out.items()}
