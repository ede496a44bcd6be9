"""Brute-force permutation groups: the ground-truth oracle.

Elements are enumerated breadth-first over the generators, one level at a
time, so the ordering is deterministic and the identity is always element
0.  They are stored as one (order x degree) array of the narrowest
unsigned type that holds a point (uint8 up to degree 256), and each
records its BFS parent and generator: a word in the generators.  Each
per-element array is allocated once, at the order the chain gives, and
filled level by level.  Element indices take one dtype, int32 while
order x max(degree, #generators) < 2^31; a stored int32 index array is
read through ``take``, since fancy indexing casts it on every call.

Elements are indexed through a stabilizer chain (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003, ch. 4): base points b_1..b_k and the
orbits D_i of b_i under the stabilizer of b_1..b_{i-1}, which give the
order prod |D_i| before enumeration.  An element is fixed by its base
images: one dense table per base point maps (node, image of b_i) to
the next node, and the leaf holds the BFS index, -1 while unseen.  Level i
has prod_{j<i} |D_j| nodes of degree entries, so the tables hold at most
order x degree entries.  A lookup is k table reads and a comparison of the
rows found with the rows asked for.

The search locates every product x * g as it forms it, so it records
right multiplication by each generator; left multiplication by g^-1,
conjugation by g, inversion and the conjugates of the generators of a
growing Sylow subgroup are composed along the BFS tree, one gather per
level.  Conjugacy classes are orbits of the generators acting by
conjugation; every power of every class representative is found by one
lookup, which gives the element orders, the power maps and the classes of
the powers that the Dixon lift reads.  ``right_mults`` (which
``dixon.class_matrices`` counts with) composes right multiplications along
words: after enumeration no lookup scans the whole group.  The Sylow
search fills the conjugates level by level and stops at the first level
holding a p-element that normalizes the candidate but lies outside it.
Centers and the Sylow invariants are exhaustive scans; everything
downstream is validated against these numbers.

Composition convention: permutations act on the right of points, and
``mul(a, b)`` means "apply a, then b", i.e. (a*b)[pt] = b[a[pt]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .numutil import lcm, p_part, prime_divisors, valuation

#: default element-enumeration cap
DEFAULT_CAP = 2_000_000

#: rows per index_batch call when looking up all pairwise commutators
_BATCH_ROWS = 1 << 16


class CapExceeded(RuntimeError):
    """Raised when a group closure exceeds the configured element cap."""


def index_dtype(order: int, width: int) -> type:
    """Dtype of indices below order * width (width products per element)."""
    return np.int32 if order * width < 2**31 else np.int64


def perm_from_cycles(degree: int, cycles) -> list[int]:
    """Image list of a permutation given by disjoint cycles (0-based)."""
    img = list(range(degree))
    for cyc in cycles:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return img


def stabilizer_chain(degree: int, generators, cap: int) -> tuple[list, list]:
    """Base points and, per base point b, its orbit under the stabilizer of
    the earlier ones as a dict a -> (u, u^-1), u[b] = a.  Knuth's incremental
    Schreier-Sims (1991): a generator that does not sift joins its level;
    each new (orbit point, generator) pair extends the orbit or gives a
    Schreier generator for the next level.  CapExceeded once the orbits
    prove the order exceeds `cap`; the trivial group gets the base [0]."""
    ident = tuple(range(degree))
    base, gens, orbits = [], [], []  # per level; gens: (g, getter of g^-1)

    def add(k: int, g: tuple) -> None:  # g fixes base[:k]
        h, j = g, k
        while j < len(base) and h[base[j]] in orbits[j]:
            h, j = itemgetter(*h)(orbits[j][h[base[j]]][1]), j + 1
        if h == ident:
            return
        if k == len(base):
            base.append(next(x for x in range(degree) if g[x] != x))
            gens.append([])
            orbits.append({base[k]: (ident, ident)})
        get_ginv = itemgetter(*sorted(range(degree), key=g.__getitem__))
        gens[k].append((g, get_ginv))
        todo = [(itemgetter(*u)(g), get_ginv, uinv) for u, uinv in list(orbits[k].values())]
        while todo:
            v, get_sinv, uinv = todo.pop()  # v = u s, whose inverse is s^-1 u^-1
            a = v[base[k]]
            if a in orbits[k]:
                add(k + 1, itemgetter(*v)(orbits[k][a][1]))
            else:
                vinv = get_sinv(uinv)
                orbits[k][a] = v, vinv
                todo += [(itemgetter(*v)(s), get_s, vinv) for s, get_s in gens[k]]
        if math.prod(map(len, orbits)) > cap:
            raise CapExceeded(f"group exceeds element cap {cap}")

    for g in generators:
        add(0, tuple(map(int, g)))
    del add  # a recursive closure is a reference cycle, freed only by the collector
    return (base, orbits) if base else ([0], [{0: (ident, ident)}])


@dataclass
class ConjugacyData:
    reps: list[int]                 # element index of each class representative
    sizes: np.ndarray               # class sizes
    orders: list[int]               # element order per class
    class_of: np.ndarray            # class index per element
    power_maps: dict[int, list[int]]  # prime p -> class index of rep^(p mod o)
    power_classes: list[np.ndarray]   # per class: class index of rep^s, s < o


@dataclass(frozen=True)
class GroundTruth:
    """Oracle Sylow invariants for one (group, prime) pair."""

    p: int
    sylow_order: int
    commutator_index: int   # |P : P'|
    center_index: int       # |P : Z(P)|
    maximal_class: bool
    abelian: bool


class PermGroup:
    """A finite permutation group given by generators, fully enumerated."""

    def __init__(self, degree: int, generators, cap: int = DEFAULT_CAP, name: str | None = None):
        if degree < 1:
            raise ValueError("degree must be positive")
        self._dtype = np.min_scalar_type(degree - 1)  # of element and generator rows
        gens = []
        for g in generators:
            arr = np.asarray(list(g), dtype=np.int64)
            if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {list(g)}")
            gens.append(arr.astype(self._dtype))
        if not gens:
            gens = [np.arange(degree, dtype=self._dtype)]
        self.degree = degree
        self.generators = gens
        self.cap = cap
        self.name = name
        self._elements: np.ndarray | None = None
        self._conj: ConjugacyData | None = None
        self._parent: np.ndarray | None = None   # BFS parent index per element
        self._gen: np.ndarray | None = None      # generator reaching it from the parent
        self._level_bounds: list[int] | None = None  # BFS level i is [b[i], b[i+1])
        self._right_gens: np.ndarray | None = None  # row g: x -> x * g
        self._conj_gens: np.ndarray | None = None   # row g: x -> g^-1 x g
        self._inverse_idx: np.ndarray | None = None  # x -> x^-1
        self._rep_powers: np.ndarray | None = None  # [c, s]: index of rep^s, s <= order
        self._base: np.ndarray | None = None      # base points b_1..b_k
        self._tables: list[np.ndarray] | None = None  # per b_1..b_{k-1}: slot -> next slot 0
        self._leaf: np.ndarray | None = None      # slot -> BFS index, -1 while unseen

    # -- enumeration --------------------------------------------------

    def _build_tables(self) -> int:
        """The base, the inner tables and an empty leaf in the index dtype from
        the stabilizer chain; returns the order (CapExceeded above the cap)."""
        base, orbits = stabilizer_chain(self.degree, self.generators, self.cap)
        order = math.prod(map(len, orbits))
        # entries hold slots and, while enumerating, product positions
        dtype = index_dtype(order, max(self.degree, len(self.generators)))
        # a node of level i is w = u_{i-1} ... u_1 (u_j in the transversal of
        # level j); the elements below it with x[b_i] = w[a] go on to u_a w
        nodes, self._tables = np.arange(self.degree, dtype=self._dtype)[None, :], []
        for i, orb in enumerate(orbits[:-1]):
            pts, n = list(orb), len(nodes)
            table = np.zeros(n * self.degree, dtype=dtype)
            table[(np.arange(n) * self.degree)[:, None] + nodes[:, pts]] = \
                np.arange(n * len(pts)).reshape(n, -1) * self.degree
            self._tables.append(table)
            if i < len(orbits) - 2:
                nodes = nodes[:, [orb[a][0] for a in pts]].reshape(-1, self.degree)
        self._leaf = np.full(order // len(orbits[-1]) * self.degree, -1, dtype=dtype)
        self._base = np.array(base)
        return order

    def _slots(self, cols) -> np.ndarray:
        """Leaf slots of elements from their images of b_1..b_k (k columns), one
        table read per column after the first; reads clip, so any row gets one."""
        slot = cols[0]
        for table, col in zip(self._tables, cols[1:]):
            slot = table.take(slot, mode="clip") + col
        return slot

    def elements(self) -> np.ndarray:
        """All group elements, (order x degree) in the narrowest unsigned
        dtype that holds a point; element 0 is the identity.

        Each BFS level takes every (frontier element, then generator)
        product, generator-major and in frontier order, and keeps the first
        occurrence of each element not seen before.  Locating the products
        records x * g for each x and generator g (``_right_gens``).
        """
        if self._elements is not None:
            return self._elements
        order = self._build_tables()
        leaf, base = self._leaf, self._base
        gen_rows, gen_ids = np.stack(self.generators), np.arange(len(self.generators) + 1)
        # every array at its full size, each BFS level filled in place
        E = np.empty((order, self.degree), dtype=self._dtype)
        E[0] = np.arange(self.degree)
        parent, gen = np.full(order, -1, dtype=leaf.dtype), np.full(order, -1, dtype=leaf.dtype)
        right = np.empty((len(gen_rows), order), dtype=leaf.dtype)
        leaf[self._slots(E[:1, base].T)] = 0
        bounds = [0, 1]  # BFS level i is [bounds[i], bounds[i+1])
        while True:
            lo, hi = bounds[-2:]
            images = np.take(gen_rows, E[lo:hi, base].T, axis=1)  # [g, i, x]: g[x[b_i]]
            slot = self._slots(images.transpose(1, 0, 2)).reshape(-1).astype(np.intp)
            idx = leaf[slot]
            # new elements are numbered in order of their first product, which wins
            new = np.flatnonzero(idx < 0)
            at = slot[new]
            leaf[at[::-1]] = new[::-1]
            won = leaf[at]
            if (won > new).any():  # numpy does not promise the last write wins
                np.minimum.at(leaf, at, new)
                won = leaf[at]
            first = new[won == new]
            leaf[slot[first]] = np.arange(hi, hi + len(first))
            idx[new] = leaf[at]
            right[:, lo:hi] = idx.reshape(len(gen_rows), -1)
            if not len(first):
                break
            top = hi + len(first)
            gen[hi:top], parent[hi:top] = np.divmod(first, hi - lo)
            parent[hi:top] += lo
            runs = np.searchsorted(gen[hi:top], gen_ids)  # ascending
            for g, a, b in zip(gen_rows, runs[:-1], runs[1:]):
                E[hi + a:hi + b] = g[E.take(parent[hi + a:hi + b], 0)]
            bounds.append(top)
        self._parent, self._gen, self._right_gens, self._level_bounds = parent, gen, right, bounds
        self._elements = E
        return E

    def _rooted(self, start) -> np.ndarray:
        """An array of shape start.shape + (order,) in the index dtype (the
        leaf's) holding start at the identity, for ``_along_tree`` to fill."""
        start = np.asarray(start)
        out = np.empty(start.shape + (self.order,), dtype=self._leaf.dtype)
        out[..., 0] = start
        return out

    def _along_tree(self, table: np.ndarray, out: np.ndarray, levels=None) -> np.ndarray:
        """Fill out[..., x] = table[h, out[..., p]] for every x = p * h (p its
        BFS parent, h its generator) on the given BFS levels, by default all
        after the identity's; each level reads the ones before it.  One
        gather per level, a ``take`` on the flattened table; returns out."""
        bounds, n = self._level_bounds, table.shape[-1]
        for lev in range(1, len(bounds) - 1) if levels is None else levels:
            lo, hi = bounds[lev], bounds[lev + 1]
            out[..., lo:hi] = table.take(self._gen[lo:hi] * n + out.take(self._parent[lo:hi], -1))
        return out

    def inverse_indices(self) -> np.ndarray:
        """Index of x^-1 for every element x (built with the classes)."""
        self.conjugacy_data()
        return self._inverse_idx

    def word(self, i: int) -> list[int]:
        """Generator positions g_1, ..., g_r with element i = g_1 * ... * g_r."""
        self.elements()
        out = []
        while i:
            out.append(int(self._gen[i]))
            i = int(self._parent[i])
        return out[::-1]

    @property
    def order(self) -> int:
        return len(self.elements())

    # -- element index arithmetic -------------------------------------

    def index_batch(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of a batch of permutation rows; KeyError on a
        non-member, including a row with an entry outside 0..degree-1."""
        E, rows = self.elements(), np.asarray(rows)
        idx = self._leaf.take(self._slots(rows[:, self._base].T), mode="clip")
        wrong = (E.take(idx, 0) != rows).any(axis=1)  # an unseen slot reads -1, the last element
        if wrong.any():
            raise KeyError(f"not a group element: {rows[wrong.argmax()].tolist()}")
        return idx

    def right_mults(self, idx: np.ndarray, targets):
        """Yield (i, indices of (element x, then element i) for every x in idx)
        for each element index i in targets.

        Right multiplication by i is composed from the generators' index
        permutations along the word of i.  Targets are taken in the order
        of their words, so each reuses the gathers of the prefix it shares
        with the one before: one gather per distinct prefix, no lookups.
        """
        self.elements()
        chain, prev = [np.asarray(idx)], []  # chain[t]: idx times the first t letters
        for word, i in sorted((self.word(i), i) for i in targets):
            shared = next((t for t, (a, b) in enumerate(zip(word, prev)) if a != b),
                          min(len(word), len(prev)))
            del chain[shared + 1:]
            for w in word[shared:]:
                chain.append(self._right_gens[w].take(chain[-1]))
            prev = word
            yield i, chain[-1]

    def pow_indices(self, idx, k) -> np.ndarray:
        """Indices of element idx[j] to the power k[j] >= 0 (or all to the
        power k): each row by repeated squaring, all in one lookup."""
        idx = np.reshape(idx, -1)
        out = np.empty((len(idx), self.degree), dtype=np.intp)
        for j, (i, e) in enumerate(zip(idx.tolist(), np.broadcast_to(k, idx.shape).tolist())):
            acc, base = np.arange(self.degree), self.elements()[i].astype(np.intp)
            while e:  # intp indices gather fastest
                acc, base, e = base[acc] if e & 1 else acc, base[base], e >> 1
            out[j] = acc
        return self.index_batch(out)

    def closure_indices(self, gen_indices) -> np.ndarray:
        """Sorted element indices of the subgroup generated by the given
        elements: one lookup per BFS level of the subgroup, for all
        generators at once."""
        E = self.elements()
        gens = E[np.asarray(gen_indices, dtype=np.intp)]
        seen, frontier = {0}, [0]
        while frontier:
            reached = self.index_batch(gens[:, E[np.array(frontier)]].reshape(-1, self.degree))
            frontier = list(set(reached.tolist()) - seen)
            seen.update(frontier)
        return np.array(sorted(seen))

    # -- conjugacy structure ------------------------------------------

    def conjugacy_data(self) -> ConjugacyData:
        """Classes as orbits of the generators acting by conjugation.

        Classes are numbered by their least element index, which is also
        their representative.  The powers rep^s, s = 1, 2, ... up to the
        identity, of all representatives are composed row by row and
        located in one lookup: their count is the element order, and their
        classes give ``power_classes`` and the power maps.
        """
        if self._conj is not None:
            return self._conj
        E = self.elements()
        n = len(E)
        # along the tree, left multiplication by g^-1 is g^-1 * (p * h) =
        # (g^-1 * p) * h; conjugation by g follows it with x -> x * g, and
        # inversion is (p * h)^-1 = h^-1 * p^-1
        ginv = self.index_batch(np.stack([np.argsort(g) for g in self.generators]))
        left = self._along_tree(self._right_gens, self._rooted(ginv))
        self._inverse_idx = self._along_tree(left, self._rooted(0))
        for right, row in zip(self._right_gens, left):
            right.take(row, out=row)  # buffered: row becomes x -> g^-1 x g
        self._conj_gens = left
        # grow each orbit from its least element, taking those in increasing
        # order; conjugation by the generators alone reaches the whole orbit
        unseen = np.ones(n, dtype=bool)
        class_of = np.empty(n, dtype=left.dtype)
        slot = np.empty(n, dtype=left.dtype)  # scratch: drops repeats from a level
        reps, rep = [], 0
        while True:
            frontier = np.array([rep])
            unseen[rep] = False
            while len(frontier):
                class_of[frontier] = len(reps)
                reached = self._conj_gens.take(frontier, 1).ravel().astype(np.intp)
                reached = reached[unseen[reached]]
                unseen[reached] = False
                slot[reached] = at = np.arange(len(reached), dtype=slot.dtype)
                frontier = reached[slot[reached] == at]
            reps.append(rep)
            rep += int(unseen[rep:].argmax())
            if not unseen[rep]:
                break
        R = E[reps]
        live, acc, steps = np.arange(len(reps)), R, []  # acc[i] = rep^s of class live[i]
        while len(live):
            steps.append((live, acc))
            keep = (acc != R[0]).any(axis=1)
            live, acc = live[keep], np.take_along_axis(R[live[keep]], acc[keep], axis=1)
        cls = np.concatenate([c for c, _ in steps])
        power = np.zeros((len(reps), len(steps) + 1), dtype=np.int64)  # [c, s]: rep^s
        power[cls, np.concatenate([np.full(len(c), s) for s, (c, _) in enumerate(steps, 1)])] = \
            self.index_batch(np.concatenate([a for _, a in steps]))
        self._rep_powers, power = power, class_of[power]
        orders = np.bincount(cls).tolist()
        power_maps = {p: [int(power[c, p % o]) for c, o in enumerate(orders)]
                      for p in prime_divisors(n)}
        self._conj = ConjugacyData(reps, np.bincount(class_of), orders, class_of, power_maps,
                                   [power[c, :o] for c, o in enumerate(orders)])
        return self._conj

    def exponent(self) -> int:
        out = 1
        for o in self.conjugacy_data().orders:
            out = lcm(out, o)
        return out

    def center_indices(self) -> np.ndarray:
        E = self.elements()
        mask = np.ones(len(E), dtype=bool)
        for g in self.generators:
            mask &= (E[:, g] == g[E]).all(axis=1)
        return np.flatnonzero(mask)

    def commutator_indices(self) -> list[int]:
        """Sorted indices of all commutators [x, y] = x^-1 y^-1 x y, looked
        up in batches of at most max(_BATCH_ROWS, order) pairs."""
        E = self.elements()
        Einv = np.argsort(E, axis=1)
        n = len(E)
        step = max(1, _BATCH_ROWS // n)
        out = set()
        for lo in range(0, n, step):
            ys = np.arange(lo, min(lo + step, n))[:, None, None]
            # row (y, x) maps pt to y(x(y^-1(x^-1(pt))))
            t = E[np.arange(n)[None, :, None], Einv[ys, Einv[None]]]
            out.update(self.index_batch(E[ys, t].reshape(-1, self.degree)).tolist())
        return sorted(out)

    # -- Sylow machinery ----------------------------------------------

    def sylow_p(self, p: int) -> "PermGroup":
        """A Sylow p-subgroup, grown through normalizers from a cyclic seed.

        The seed is the p-part of the first element of order divisible by
        p.  Each round adds the p-part y of the first such element x, in
        BFS order, that normalizes the candidate P (x^-1 q x lies in P for
        every generator q of P) and has y outside P.  The conjugates
        x^-1 q x are filled along the BFS tree one level at a time and kept
        across rounds, so no level after the one holding x is read; the
        p-parts of a level's candidates take one lookup.
        """
        n = self.order
        target = p_part(n, p)
        if target == 1:
            return PermGroup(self.degree, [np.arange(self.degree)], name=f"Syl_{p}(trivial)")
        cd = self.conjugacy_data()
        singular = np.array(cd.orders) % p == 0  # per class
        cofactor = np.array([o // p_part(o, p) for o in cd.orders])  # x^cofactor: x's p-part
        E = self.elements()
        bounds = self._level_bounds
        conj, filled = [], []  # per generator q of P: x -> x^-1 q x, and its levels filled

        def extension(is_member) -> int:
            """The first p-part outside P of a normalizing element outside P."""
            for lev in range(1, len(bounds) - 1):
                lo, hi = bounds[lev], bounds[lev + 1]
                mask = singular.take(cd.class_of[lo:hi]) & ~is_member[lo:hi]
                for r, c in enumerate(conj):
                    if filled[r] == lev:
                        self._along_tree(self._conj_gens, c, [lev])
                        filled[r] += 1
                    mask &= is_member.take(c[lo:hi])
                xs = lo + np.flatnonzero(mask)
                ys = self.pow_indices(xs, cofactor[cd.class_of[xs]]) if len(xs) else xs
                if not is_member[ys].all():
                    return int(ys[~is_member[ys]][0])
            # Sylow's theorems rule this out
            raise AssertionError("no p-element extends the candidate p-subgroup")

        # the least element of order divisible by p represents its class
        c = int(singular.argmax())
        gen_idx = [int(self._rep_powers[c, cofactor[c]])]
        members = None if cd.orders[c] // cofactor[c] == target else self.closure_indices(gen_idx)
        while members is not None and len(members) < target:  # None: the seed generates P
            conj += [self._rooted(q) for q in gen_idx[len(conj):]]
            filled += [1] * (len(conj) - len(filled))
            is_member = np.zeros(n, dtype=bool)
            is_member[members] = True
            gen_idx.append(extension(is_member))
            members = self.closure_indices(gen_idx)
        return PermGroup(self.degree, [E[i] for i in gen_idx], cap=self.cap,
                         name=f"Syl_{p}({self.name or '?'})")

    def ground_truth(self, p: int) -> GroundTruth:
        return subgroup_invariants(self.sylow_p(p), p)


def subgroup_invariants(P: PermGroup, p: int) -> GroundTruth:
    """Sylow invariants of a p-group by exhaustive computation."""
    n = P.order
    v = valuation(n, p)
    if n != p**v:
        raise ValueError(f"not a p-group: |P| = {n}")
    center = P.center_indices()
    abelian = len(center) == n
    derived = [0] if abelian else P.closure_indices(P.commutator_indices())
    commutator_index = n // len(derived)
    center_index = n // len(center)
    if abelian or v <= 2:
        maximal = False
    elif v == 3:
        maximal = True  # nonabelian of order p^3 has class 2 = v - 1
    else:
        E = P.elements()
        maximal = False
        for i in range(n):
            x = E[i]
            cent = int(np.count_nonzero((E[:, x] == x[E]).all(axis=1)))
            if cent == p * p:
                maximal = True
                break
    return GroundTruth(p=p, sylow_order=n, commutator_index=commutator_index,
                       center_index=center_index, maximal_class=maximal, abelian=abelian)
