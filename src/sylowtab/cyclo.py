"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored on the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n),
with coefficients in Fraction, reduced modulo the n-th cyclotomic
polynomial.  Every value is canonicalized to its minimal conductor on
construction (in particular conductor-2-mod-4 representations are always
rewritten), so structural equality is semantic equality and rational
values always live at conductor 1.

Character values and central characters throughout the package are Cyc
instances; plain rationals are Cyc with conductor 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .numutil import euler_phi, factorize, prime_divisors

#: Guard against runaway conductors (desk-scale cap).
MAX_CONDUCTOR = 1 << 20

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by prod of Phi_d for proper divisors d.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (monic divisor)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c:
            k = i - (len(den) - 1)
            out[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _reduce_mod_phi(n: int, dense: list[Fraction]) -> dict[int, Fraction]:
    """Reduce a dense coefficient list mod Phi_n; return sparse dict."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = _ZERO
            for j in range(deg):
                if phi[j]:
                    dense[i - deg + j] -= c * phi[j]
    return {e: c for e, c in enumerate(dense[:deg]) if c}


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

    def is_rational(self) -> bool:
        return self.n == 1

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
        dense = [_ZERO] * (max(a) + 1 if a else 1)
        for e, c in a.items():
            dense[e] = c
        return Cyc(m, _reduce_mod_phi(m, dense))

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
        dense = [_ZERO] * (max(prod) + 1 if prod else 1)
        for e, c in prod.items():
            dense[e] = c
        return Cyc(m, _reduce_mod_phi(m, dense))

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
        # Columns: coordinates of self * z^j for j < phi(n).
        cols = []
        z = Cyc(self.n, {1: _ONE}, _canonical=True)
        cur = self
        for _ in range(phi):
            # cur may have canonicalized to a smaller conductor, so its lift
            # can carry exponents >= phi(n); reduce mod Phi_n before use
            lifted = cur._lift(self.n)
            dense = [_ZERO] * (max(lifted) + 1 if lifted else 1)
            for e, c in lifted.items():
                dense[e] = c
            cols.append(_reduce_mod_phi(self.n, dense))
            cur = cur * z
        mat = [[cols[j].get(i, _ZERO) for j in range(phi)] for i in range(phi)]
        rhs = [_ONE] + [_ZERO] * (phi - 1)
        sol = _solve_fraction(mat, rhs)
        return Cyc(self.n, {e: c for e, c in enumerate(sol) if c})

    # -- Galois action ------------------------------------------------

    def galois(self, j: int) -> "Cyc":
        """Apply the automorphism zeta_n -> zeta_n^j (gcd(j, n) = 1)."""
        j %= self.n
        if gcd(j, self.n) != 1:
            raise ValueError(f"{j} is not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        dense_map: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            k = (e * j) % self.n
            dense_map[k] = dense_map.get(k, _ZERO) + c
        dense = [_ZERO] * (max(dense_map) + 1 if dense_map else 1)
        for e, c in dense_map.items():
            dense[e] = c
        return Cyc(self.n, _reduce_mod_phi(self.n, dense))

    def conjugate(self) -> "Cyc":
        return self.galois(-1)

    def abs2(self) -> "Cyc":
        """self * conj(self); a nonnegative rational for real-character use."""
        return self * self.conjugate()

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
    k %= n
    dense = [_ZERO] * (k + 1)
    dense[k] = _ONE
    return Cyc(n, _reduce_mod_phi(n, dense))


def cyc_to_rat(a: Cyc) -> Fraction | None:
    """The rational value of a, or None when a is genuinely irrational."""
    if a.n != 1:
        return None
    return a.rational_value()


# -- canonicalization ------------------------------------------------


def _canonicalize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return 1, {}
    if max(coeffs) >= euler_phi(n):
        dense = [_ZERO] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            dense[e] = c
        coeffs = _reduce_mod_phi(n, dense)
        if not coeffs:
            return 1, {}
    # Conductor 2 mod 4 is never minimal: zeta_{2m} = -zeta_m^((m+1)/2).
    while n % 4 == 2:
        m = n // 2
        s = (m + 1) // 2
        out: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            k = (e * s) % m
            out[k] = out.get(k, _ZERO) + (c if e % 2 == 0 else -c)
        dense = [_ZERO] * (max(out) + 1 if out else 1)
        for e, c in out.items():
            dense[e] = c
        n = m
        coeffs = _reduce_mod_phi(n, dense)
        if not coeffs:
            return 1, {}
    # Descend one prime at a time while the element is Galois-fixed.
    changed = True
    while changed and n > 1:
        changed = False
        for q in prime_divisors(n):
            d = n // q
            if d % 4 == 2:
                d //= 2  # Q(zeta_d) = Q(zeta_{d/2}) for d = 2 mod 4
            if _fixed_over(n, d, coeffs):
                coeffs = _rewrite_at(n, d, coeffs)
                n = d
                changed = True
                break
    return n, coeffs


def _fixed_over(n: int, d: int, coeffs: dict[int, Fraction]) -> bool:
    """Is the element fixed by Gal(Q(zn)/Q(zd)), i.e. does it lie in Q(zd)?"""
    for j in range(1 + d, n, d):
        if gcd(j, n) != 1:
            continue
        mapped: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            k = (e * j) % n
            mapped[k] = mapped.get(k, _ZERO) + c
        dense = [_ZERO] * (max(mapped) + 1 if mapped else 1)
        for e, c in mapped.items():
            dense[e] = c
        if _reduce_mod_phi(n, dense) != coeffs:
            return False
    return True


@lru_cache(maxsize=None)
def _descent_matrix(n: int, d: int):
    """Row-reduced solver data expressing conductor-n coords in the zeta_d basis."""
    phi_n = euler_phi(n)
    phi_d = euler_phi(d)
    k = n // d
    cols = []
    for i in range(phi_d):
        dense = [_ZERO] * (i * k + 1)
        dense[i * k] = _ONE
        cols.append(_reduce_mod_phi(n, dense))
    mat = [[cols[j].get(i, _ZERO) for j in range(phi_d)] for i in range(phi_n)]
    return mat


def _rewrite_at(n: int, d: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    if d == 1:
        return {0: coeffs[0]} if 0 in coeffs else {}
    mat = _descent_matrix(n, d)
    rhs = [coeffs.get(i, _ZERO) for i in range(len(mat))]
    sol = _solve_fraction([row[:] for row in mat], rhs)
    return {e: c for e, c in enumerate(sol) if c}


def _solve_fraction(mat, rhs):
    """Gaussian elimination over Fraction; mat may be tall (consistent system)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[i]) + [rhs[i]] for i in range(rows)]
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
    # consistency check for overdetermined systems
    for i in range(len(pivots), rows):
        if aug[i][-1]:
            raise ArithmeticError("inconsistent linear system in conductor descent")
    if len(pivots) != cols:
        raise ArithmeticError("underdetermined linear system")
    out = [_ZERO] * cols
    for i, c in enumerate(pivots):
        out[c] = aug[i][-1]
    return out
