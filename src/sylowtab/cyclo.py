"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored on the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n),
with coefficients in Fraction, reduced modulo the n-th cyclotomic
polynomial.  Every value is canonicalized to its minimal conductor on
construction (in particular conductor-2-mod-4 representations are always
rewritten), so structural equality is semantic equality and rational
values always live at conductor 1.

Reduction reads the rows x^a mod Phi_n, cached per (n, a); `power_matrix`
stacks them for integer products.  Canonicalization descends one prime q
of n at a time to d = n/q while the value lies in Q(zeta_d):

* q^2 | n: Q(zeta_n) = Q(zeta_d)[z]/(z^q - zeta_d) and the power basis of
  Q(zeta_n) is the product of the bases 1, .., zeta_d^(phi(d)-1) and
  1, .., z^(q-1), so the value lies in Q(zeta_d) exactly when every
  exponent is divisible by q, and e -> e/q rewrites it;
* q || n: Gal(Q(zeta_n)/Q(zeta_d)) is cyclic of order q - 1, so fixedness
  under one generator decides, and only then a projector cached per
  (n, q) (the inverse of a square block of the embedding of Q(zeta_d))
  rewrites it.
  For q = 2 the group is trivial: that step is the rewrite of a conductor
  2 mod 4, zeta_2m = -zeta_m^((m+1)/2).

Character values and central characters throughout the package are Cyc
instances; plain rationals are Cyc with conductor 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .numutil import divisors, euler_phi, prime_divisors, primitive_root

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
def power_matrix(n: int) -> np.ndarray:
    """Read-only int64 array (n, phi(n)) whose row a holds zeta_n^a on the
    power basis, the rows `_reduce_mod_phi` reads."""
    out = np.zeros((n, euler_phi(n)), dtype=np.int64)
    for a in range(n):
        for j, c in _power_row(n, a):
            out[a, j] = c
    out.setflags(write=False)
    return out


def _reduce_mod_phi(n: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    """sum c zeta_n^e (any integer exponents) on the power basis of Q(zeta_n)."""
    phi = euler_phi(n)
    out: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        e %= n
        if e < phi:
            out[e] = out.get(e, _ZERO) + c
        else:
            for j, r in _power_row(n, e):
                out[j] = out.get(j, _ZERO) + c * r
    return {e: c for e, c in out.items() if c}


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
        """True iff all power-basis coefficients are integers."""
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
        """Multiplicative inverse, by solving a linear system on the power basis."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        if self.n == 1:
            return Cyc.from_rational(1 / self.coeffs[0])
        phi = euler_phi(self.n)
        # column j: coordinates of self * z^j; the system is regular since
        # self != 0, so reduced row i holds coordinate i of the inverse, whose
        # minimal conductor is that of self
        cols = [_reduce_mod_phi(self.n, {e + j: c for e, c in self.coeffs.items()})
                for j in range(phi)]
        aug = [[col.get(i, _ZERO) for col in cols] + [_ONE if i == 0 else _ZERO]
               for i in range(phi)]
        _row_reduce(aug, phi)
        return Cyc(self.n, {i: row[-1] for i, row in enumerate(aug) if row[-1]},
                   _canonical=True)

    # -- Galois action ------------------------------------------------

    def galois(self, j: int) -> "Cyc":
        """Apply the automorphism zeta_n -> zeta_n^j (gcd(j, n) = 1)."""
        j %= self.n
        if gcd(j, self.n) != 1:
            raise ValueError(f"{j} is not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        # a conjugate has the same minimal conductor, so it is canonical
        # once reduced
        return Cyc(self.n, _galois_image(self.n, self.coeffs, j), _canonical=True)

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
    """The minimal conductor and power-basis coordinates of sum c zeta_n^e.

    After reducing mod Phi_n, each prime q of n is descended to d = n/q
    while the value lies in Q(zeta_d).  For q^2 | n that is a support check
    (every exponent divisible by q) and the rewrite e -> e/q; for q || n it
    is fixedness under one generator of Gal(Q(zeta_n)/Q(zeta_d)) and, only
    then, the projector of `_projector`.  The step at q = 2 || n has a
    trivial Galois group and always applies, so no conductor 2 mod 4
    survives.
    """
    coeffs = _reduce_mod_phi(n, coeffs)
    if not coeffs:
        return 1, {}
    for q in prime_divisors(n):
        while n % q == 0:
            d = n // q
            if d % q == 0:
                if any(e % q for e in coeffs):
                    break
                coeffs = {e // q: c for e, c in coeffs.items()}
            else:
                # a = 1 mod d and a primitive root mod q: zeta_n -> zeta_n^a
                # generates Gal(Q(zeta_n)/Q(zeta_d)), cyclic of order q - 1
                a = 1 + d * ((primitive_root(q) - 1) * pow(d, -1, q) % q)
                if _galois_image(n, coeffs, a) != coeffs:
                    break
                y: dict[int, Fraction] = {}
                for r, p in _projector(n, q):
                    x = coeffs.get(r)
                    if x:
                        for i, b in p:
                            y[i] = y.get(i, _ZERO) + x * b
                coeffs = {i: c for i, c in y.items() if c}
            n = d
    return n, coeffs


def _galois_image(n: int, coeffs: dict[int, Fraction], a: int) -> dict[int, Fraction]:
    """zeta_n -> zeta_n^a applied to power-basis coordinates (gcd(a, n) = 1)."""
    return _reduce_mod_phi(n, {e * a % n: c for e, c in coeffs.items()})


@lru_cache(maxsize=None)
def _projector(n: int, q: int):
    """Pairs (r_j, p_j) for a prime q || n, d = n/q: an element of Q(zeta_d)
    with coordinates x at conductor n has the coordinates sum_j x[r_j] p_j
    at d.  Rows r_j of the embedding M (column i holds zeta_d^i =
    zeta_n^(q i) at n) form an invertible square block B, and p_j is row j
    of (B^-1)^T, sparse.
    """
    d = n // q
    phi_n, phi_d = euler_phi(n), euler_phi(d)
    # Gauss-Jordan on [M^T | I] picks phi(d) independent rows of M as its
    # pivot columns and leaves (B^T)^-1 in the right-hand block
    aug = []
    for i in range(phi_d):
        row = [_ZERO] * (phi_n + phi_d)
        for e, c in _power_row(n, q * i):
            row[e] = Fraction(c)
        row[phi_n + i] = _ONE
        aug.append(row)
    rows = _row_reduce(aug, phi_n)
    return tuple((r, tuple((i, c) for i, c in enumerate(row[phi_n:]) if c))
                 for r, row in zip(rows, aug))


def _row_reduce(aug: list[list[Fraction]], cols: int) -> list[int]:
    """Gauss-Jordan elimination over Fraction on the first `cols` columns of
    `aug`, in place; row i of the result has its pivot in column pivots[i]."""
    rows = len(aug)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots
