"""p-blocks from central characters reduced modulo a prime ideal over p.

Two irreducible characters lie in the same p-block exactly when their
central characters omega_chi(C) = |C| chi(x_C) / chi(1) agree after
reduction into GF(p^m).  The central characters are integer vectors in
Z[x]/(x^N - 1), one array per conductor group N of `chartab.int_values`,
built once per table.  One CycReducer at the lcm E of the group
conductors fixes the prime ideal over p; its rows for zeta_N map x^e into
GF(p^m), so each group reduces as one integer matrix product mod p.  The
resulting partition does not depend on the irreducible polynomial backing
the finite field: the tests compare it with reducers built on other
polynomials.  Partitions are memoized on the table under ("blocks", p).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .chartab import CharTable, int_dtype, int_values
from .gfpm import CycReducer
from .numutil import valuation


@dataclass(frozen=True)
class BlockPartition:
    p: int
    blocks: tuple[tuple[int, ...], ...]
    principal_index: int
    defects: tuple[int, ...]

    def principal(self) -> tuple[int, ...]:
        return self.blocks[self.principal_index]


def _central_characters(t: CharTable) -> list[np.ndarray]:
    """omega_chi_i(C_c) as integer vectors, one (k, kN, N) array per
    conductor group of `chartab.int_values`.

    Every value must be a cyclotomic integer; memoized on the table.
    """
    omegas = t._memo.get("central_characters")
    if omegas is None:
        iv = int_values(t)
        omegas = [g.values * iv.sizes[g.columns][None, :, None] for g in iv.groups]
        for i in range(t.k):
            q = iv.denominator * t.degree(i)
            frac = np.zeros(t.k, dtype=bool)
            for g, w in zip(iv.groups, omegas):
                frac[g.columns] = (w[i] % q != 0).any(axis=1)
            if frac.any():
                raise ValueError(f"central character {i} is non-integral at class "
                                 f"{np.flatnonzero(frac)[0]}")
            for w in omegas:
                w[i] //= q
        t._memo["central_characters"] = omegas
    return omegas


def block_partition(t: CharTable, p: int) -> BlockPartition:
    """Partition Irr(G) into p-blocks."""
    key = ("blocks", p)
    if key in t._memo:
        return t._memo[key]
    omegas = _central_characters(t)
    groups = int_values(t).groups
    reducer = CycReducer(p, lcm(*(g.conductor for g in groups)))
    images = []
    for g, w in zip(groups, omegas):
        k, kn, n = w.shape
        dt = int_dtype(n * p * p)
        powers = np.array(reducer.powers(n), dtype=dt)
        images.append(((w % p).astype(dt).reshape(k * kn, n) @ powers % p).reshape(k, -1))
    keyed: dict[tuple, list[int]] = {}
    for i, row in enumerate(np.concatenate(images, axis=1).tolist()):
        keyed.setdefault(tuple(row), []).append(i)
    blocks = tuple(tuple(b) for b in sorted(keyed.values()))
    principal = next(j for j, b in enumerate(blocks) if 0 in b)
    vg = valuation(t.group_order, p)
    defects = tuple(vg - min(valuation(t.degree(i), p) for i in b) for b in blocks)
    bp = BlockPartition(p=p, blocks=blocks, principal_index=principal, defects=defects)
    t._memo[key] = bp
    return bp


def count_height_zero_principal(t: CharTable, p: int) -> int:
    """|Irr_{p'}(B_0)|: principal-block characters of degree coprime to p."""
    bp = block_partition(t, p)
    return sum(1 for i in bp.principal() if t.degree(i) % p)


def abelian_sylow_test(t: CharTable, p: int) -> bool:
    """P abelian iff every principal-block degree is coprime to p
    (the Height Zero theorem for principal blocks)."""
    bp = block_partition(t, p)
    return all(t.degree(i) % p for i in bp.principal())
