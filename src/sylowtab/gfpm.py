"""Finite fields GF(p^m) and reduction of cyclotomic integers mod a prime over p.

The reduction sends zeta_{p^a} to 1 (the ramified part) and zeta_{N'} to a
fixed element of order N' in GF(p^m), where N' is the p'-part of the
conductor and m is the multiplicative order of p mod N'.  For each n
dividing N that it is asked for, a CycReducer builds the images of
zeta_n^0 .. zeta_n^(n-1) once, as plain rows of m integers mod p
(`powers(n)`); reducing a cyclotomic integer is a sum of its coefficients
times those rows, so `blocks` reduces each conductor group of a table as
one integer matrix product, all through the one prime ideal over p of the
table's common conductor.  The partition into blocks does not depend on
the choice of irreducible polynomial (tested).

The reducer is the only user of this module: GF and FFElem hold just the
multiplication and powers that find its root of unity, and the corpus
does its own arithmetic over GF(p) and GF(9).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import Cyc
from .numutil import factorize, multiplicative_order, p_prime_part


class GF:
    """GF(p^m) as polynomials over GF(p) modulo a fixed monic irreducible.

    The default modulus is the lexicographically smallest monic irreducible
    of degree m (coefficients compared low-degree first), recorded in
    `modulus` for reproducibility.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        if modulus is None:
            modulus = _smallest_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(p, modulus):
                raise ValueError("modulus is not irreducible")
        self.modulus = modulus
        self.order = p**m

    # -- element helpers ---------------------------------------------

    def elem(self, coeffs) -> "FFElem":
        if isinstance(coeffs, int):
            c = [coeffs % self.p] + [0] * (self.m - 1)
        else:
            c = [x % self.p for x in coeffs]
            if len(c) > self.m:
                c = self._reduce(c)
            c += [0] * (self.m - len(c))
        return FFElem(self, tuple(c))

    def one(self) -> "FFElem":
        return self.elem(1)

    def _reduce(self, c: list[int]) -> list[int]:
        c = [x % self.p for x in c]
        for i in range(len(c) - 1, self.m - 1, -1):
            t = c[i]
            if t:
                c[i] = 0
                for j in range(self.m):
                    c[i - self.m + j] = (c[i - self.m + j] - t * self.modulus[j]) % self.p
        return c[: self.m] + [0] * max(0, self.m - len(c))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (2 * self.m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % self.p
        return tuple(self._reduce(out))

    @property
    def generator(self) -> "FFElem":
        """Smallest generator of the multiplicative group (deterministic)."""
        return FFElem(self, _generator(self))

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m}; mod={list(self.modulus)})"


@lru_cache(maxsize=None)
def _generator(field: GF) -> tuple[int, ...]:
    """Coefficients of the smallest generator of GF(p^m)*, searched once
    per (p, m, modulus): fields compare and hash by those three."""
    q1 = field.order - 1
    primes = list(factorize(q1))
    one = field.one().coeffs
    for idx in range(1, field.order):
        cand = field.elem(_int_to_poly(idx, field.p, field.m))
        if all((cand ** (q1 // r)).coeffs != one for r in primes):
            return cand.coeffs
    raise AssertionError("no generator found")


def _int_to_poly(k: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(k % p)
        k //= p
    return out


def _poly_pow_x(p: int, e: int, modulus: tuple[int, ...]) -> list[int]:
    """x^(p^e) mod modulus, by repeated Frobenius via square-and-multiply."""
    m = len(modulus) - 1

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        # reduce
        for i in range(len(out) - 1, m - 1, -1):
            t = out[i]
            if t:
                out[i] = 0
                for j in range(m):
                    out[i - m + j] = (out[i - m + j] - t * modulus[j]) % p
        return out[:m]

    acc = [1]
    base = [0, 1] if m > 1 else [(-modulus[0]) % p]
    n = p**e
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    acc += [0] * (m - len(acc))
    return acc[:m]


def _is_irreducible(p: int, modulus: tuple[int, ...]) -> bool:
    m = len(modulus) - 1
    if m == 1:
        return True
    # x^(p^m) == x mod f, and x^(p^(m/r)) - x coprime to f for primes r | m
    xq = _poly_pow_x(p, m, modulus)
    x = [0, 1] + [0] * (m - 2)
    x = x[:m] + [0] * (m - len(x[:m]))
    if [c % p for c in xq] != [c % p for c in x[:m]]:
        return False
    for r in factorize(m):
        xe = _poly_pow_x(p, m // r, modulus)
        diff = [(a - b) % p for a, b in zip(xe, x[:m])]
        if _poly_gcd_deg(p, diff, list(modulus)) != 0:
            return False
    return True


def _poly_gcd_deg(p: int, a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over GF(p); constants give 0."""

    def deg(c):
        for i in range(len(c) - 1, -1, -1):
            if c[i] % p:
                return i
        return -1

    a, b = a[:], b[:]
    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        f = (a[da] * inv) % p
        for j in range(db + 1):
            a[da - db + j] = (a[da - db + j] - f * b[j]) % p
        if deg(a) < deg(b):
            a, b = b, a
    d = deg(a)
    return max(d, 0)


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    # enumerate lower coefficients in lexicographic order (c0 fastest)
    for k in range(p**m):
        coeffs = tuple(_int_to_poly(k, p, m)) + (1,)
        if coeffs[0] == 0:
            continue  # reducible (root 0)
        if _is_irreducible(p, coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found")


class FFElem:
    """An element of GF(p^m)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __mul__(self, other):
        self._check(other)
        return FFElem(self.field, self.field.mul(self.coeffs, other.coeffs))

    def __pow__(self, k: int):
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _check(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise TypeError("mixed finite-field arithmetic")


class CycReducer:
    """Ring homomorphism Z[zeta_N] -> GF(p^m) for a fixed prime p and conductor N.

    zeta_N maps to a fixed element of order N' (the p'-part of N); the
    p-power part of every root of unity collapses to 1.  All inputs must
    have conductor dividing N and integral coefficients.
    """

    def __init__(self, p: int, conductor: int, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.conductor = conductor
        nprime = p_prime_part(conductor, p)
        self.nprime = nprime
        m = multiplicative_order(p, nprime) if nprime > 1 else 1
        self.field = GF(p, m, modulus)
        if nprime > 1:
            g = self.field.generator
            z = g ** ((self.field.order - 1) // nprime)
        else:
            z = self.field.one()
        # image of zeta_N: zeta_N = zeta_{p^a}^u * zeta_{N'}^v with the
        # p-power part dying; the image is z^v where v = (N/N') inverse-free
        # CRT component.  Concretely zeta_N^k |-> z^(k mod N') after noting
        # z has order N' and zeta_N^(N') generates the p-part.
        pa = conductor // nprime
        if nprime > 1:
            vinv = pow(pa, -1, nprime)
        else:
            vinv = 0
        step = z**vinv if nprime > 1 else self.field.one()
        self.root_image = step
        self._powers: dict[int, tuple[tuple[int, ...], ...]] = {}

    def powers(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Row e: the GF(p)-coefficients of the image of zeta_n^e, for
        e = 0 .. n-1 and n dividing the conductor; built once per n."""
        rows = self._powers.get(n)
        if rows is None:
            if self.conductor % n:
                raise ValueError(f"conductor {n} does not divide reducer conductor {self.conductor}")
            step = (self.root_image ** (self.conductor // n)).coeffs
            rows = [self.field.one().coeffs]
            for _ in range(n - 1):
                rows.append(self.field.mul(rows[-1], step))
            rows = self._powers[n] = tuple(rows)
        return rows

    def reduce(self, a: Cyc) -> FFElem:
        if self.conductor % a.n != 0:
            raise ValueError(f"conductor {a.n} does not divide reducer conductor {self.conductor}")
        if not a.is_integral():
            raise ValueError("ideal reduction needs integral cyclotomic coefficients")
        rows = self.powers(a.n)
        out = [0] * self.field.m
        for e, c in a.coeffs.items():
            row = rows[e]
            out = [x + int(c) * y for x, y in zip(out, row)]
        return FFElem(self.field, tuple(x % self.p for x in out))
