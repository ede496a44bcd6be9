"""Brute-force permutation groups: the ground-truth oracle.

Elements are enumerated breadth-first over the generators, one level at a
time, so the ordering is deterministic and the identity is always element
0.  They are stored as one (order x degree) array of the narrowest
unsigned type that holds a point (uint8 up to degree 256), looked up
through sorted keys, and each records its BFS parent and generator: a word
in the generators.  The search locates every product x * g as it forms it,
so it records right multiplication by each generator; left multiplication
by g^-1, conjugation by g, inversion and the conjugates of the generators
of a growing Sylow subgroup are composed along the BFS tree, one gather
per level.  Conjugacy classes are orbits of the generators acting by
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

from dataclasses import dataclass

import numpy as np

from .numutil import lcm, p_part, prime_divisors, valuation

#: default element-enumeration cap
DEFAULT_CAP = 2_000_000

#: degrees up to this pack into a single int64 key (d^d < 2^63)
_FAST_DEGREE = 15

#: rows per index_batch call when looking up all pairwise commutators
_BATCH_ROWS = 1 << 16


class CapExceeded(RuntimeError):
    """Raised when a group closure exceeds the configured element cap."""


def _merged(old: np.ndarray, at: np.ndarray, kept: np.ndarray, new: np.ndarray) -> np.ndarray:
    """`old` with `new` inserted at the positions `at` of the result; `kept`
    marks the other positions."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[at] = new
    out[kept] = old
    return out


def perm_from_cycles(degree: int, cycles) -> list[int]:
    """Image list of a permutation given by disjoint cycles (0-based)."""
    img = list(range(degree))
    for cyc in cycles:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return img


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
        # keys pack into one int64 up to degree 15, else they are the row bytes
        self._powers = degree ** np.arange(degree, dtype=np.int64) if degree <= _FAST_DEGREE else None
        self._sorted_keys = None
        self._sort_order = None

    # -- enumeration --------------------------------------------------

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One sortable key per permutation row of the element dtype."""
        if self._powers is not None:
            return rows @ self._powers
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * self.degree))).reshape(len(rows))

    def elements(self) -> np.ndarray:
        """All group elements, (order x degree) in the narrowest unsigned
        dtype that holds a point; element 0 is the identity.

        Each BFS level takes every (frontier element, then generator)
        product, generator-major and in frontier order, and keeps the first
        occurrence of each element not seen before.  Locating the products
        records x * g for each x and generator g (``_right_gens``) and the
        element behind each sorted key (``_sort_order``).
        """
        if self._elements is not None:
            return self._elements
        frontier = np.arange(self.degree, dtype=self._dtype)[None, :]
        gen_rows = np.stack(self.generators)
        levels, parents, gens, rights = [frontier], [np.array([-1])], [np.array([-1])], []
        seen = self._keys(frontier)              # sorted keys of the elements so far
        seen_idx = np.zeros(1, dtype=np.int64)   # BFS index of each sorted key
        start = 0                                # index of the first frontier element
        while True:
            width = len(frontier)
            prods = np.take(gen_rows, frontier, axis=1).reshape(-1, self.degree)
            keys = self._keys(prods)
            perm = np.argsort(keys)
            keys = keys[perm]
            head = np.ones(len(keys), dtype=bool)  # first of each run of equal keys
            head[1:] = keys[1:] != keys[:-1]
            runs = np.flatnonzero(head)
            uniq, first = keys[runs], np.minimum.reduceat(perm, runs)
            where = np.empty(len(keys), dtype=np.intp)  # product -> its position in uniq
            where[perm] = np.cumsum(head) - 1
            pos = np.searchsorted(seen, uniq)
            near = np.minimum(pos, len(seen) - 1)
            fresh = np.flatnonzero(seen[near] != uniq)
            count = len(seen) + len(fresh)
            if count > self.cap:
                raise CapExceeded(f"group exceeds element cap {self.cap}")
            # new elements are numbered in order of their first product
            order = np.argsort(first[fresh])
            uniq_idx = seen_idx[near]
            uniq_idx[fresh[order]] = np.arange(len(seen), count)
            rights.append(uniq_idx[where].reshape(len(self.generators), width))
            if not len(fresh):
                break
            # merge the new keys into the sorted ones, carrying their indices
            at = pos[fresh] + np.arange(len(fresh))
            kept = np.ones(count, dtype=bool)
            kept[at] = False
            seen = _merged(seen, at, kept, uniq[fresh])
            seen_idx = _merged(seen_idx, at, kept, uniq_idx[fresh])
            first = first[fresh[order]]
            parents.append(start + first % width)
            gens.append(first // width)
            start += width
            frontier = prods[first]
            levels.append(frontier)
        E = np.concatenate(levels)
        self._elements = E
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gens)
        self._level_bounds = np.cumsum([0] + [len(level) for level in levels]).tolist()
        self._right_gens = np.concatenate(rights, axis=1)
        self._sort_order = seen_idx
        self._sorted_keys = seen
        return E

    def _rooted(self, start) -> np.ndarray:
        """An int64 array of shape start.shape + (order,) holding start at
        the identity, for ``_along_tree`` to fill."""
        start = np.asarray(start)
        out = np.empty(start.shape + (self.order,), dtype=np.int64)
        out[..., 0] = start
        return out

    def _along_tree(self, table: np.ndarray, out: np.ndarray, levels=None) -> np.ndarray:
        """Fill out[..., x] = table[h, out[..., p]] for every x = p * h (p its
        BFS parent, h its generator) on the given BFS levels, by default all
        after the identity's; each level reads the ones before it.  One
        gather per level; returns out."""
        bounds = self._level_bounds
        for lev in range(1, len(bounds) - 1) if levels is None else levels:
            lo, hi = bounds[lev], bounds[lev + 1]
            out[..., lo:hi] = table[self._gen[lo:hi], out[..., self._parent[lo:hi]]]
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

    def inverses(self) -> np.ndarray:
        """The inverse permutation rows, (order x degree), on each call."""
        return np.argsort(self.elements(), axis=1)

    # -- element index arithmetic -------------------------------------

    def index_batch(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of a batch of permutation rows; KeyError on a
        non-member, including a row with an entry outside 0..degree-1 (which
        the cast to the element dtype would wrap)."""
        self.elements()
        rows = np.asarray(rows)
        if rows.size and (rows.max() >= self.degree or rows.dtype.kind == "i" and rows.min() < 0):
            bad = ((rows < 0) | (rows >= self.degree)).any(axis=1)
            raise KeyError(f"not a group element: {rows[bad.argmax()].tolist()}")
        keys = self._keys(rows.astype(self._dtype, copy=False))
        # binary search runs several times faster on ascending queries
        order = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.intp)
        pos[order] = np.searchsorted(self._sorted_keys, keys[order])
        np.minimum(pos, len(self._sorted_keys) - 1, out=pos)
        missing = np.flatnonzero(self._sorted_keys[pos] != keys)
        if len(missing):
            raise KeyError(f"not a group element: {rows[missing[0]].tolist()}")
        return self._sort_order[pos]

    def right_mults(self, idx: np.ndarray, targets):
        """Yield (i, indices of (element x, then element i) for every x in idx)
        for each element index i in targets.

        Right multiplication by i is composed from the generators' index
        permutations along the word of i.  Targets are taken in the order
        of their words, so each reuses the gathers of the prefix it shares
        with the one before: one gather per distinct prefix, no key lookups.
        """
        self.elements()
        chain, prev = [np.asarray(idx)], []  # chain[t]: idx times the first t letters
        for word, i in sorted((self.word(i), i) for i in targets):
            shared = next((t for t, (a, b) in enumerate(zip(word, prev)) if a != b),
                          min(len(word), len(prev)))
            del chain[shared + 1:]
            for w in word[shared:]:
                chain.append(self._right_gens[w][chain[-1]])
            prev = word
            yield i, chain[-1]

    def index_of(self, row: np.ndarray) -> int:
        return int(self.index_batch(np.asarray(row)[None, :])[0])

    def inv_index(self, i: int) -> int:
        return int(self.inverse_indices()[i])

    def pow_index(self, i: int, k: int) -> int:
        """Index of element i to the power k >= 0."""
        acc = np.arange(self.degree)
        base = self.elements()[i].astype(np.intp)  # intp indices gather fastest
        while k:
            if k & 1:
                acc = base[acc]
            base = base[base]
            k >>= 1
        return self.index_of(acc)

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
        self._conj_gens = np.take_along_axis(self._right_gens, left, axis=1)
        self._inverse_idx = self._along_tree(left, self._rooted(0))
        # grow each orbit from its least element, taking those in increasing
        # order; conjugation by the generators alone reaches the whole orbit
        unseen = np.ones(n, dtype=bool)
        class_of = np.empty(n, dtype=np.int64)
        slot = np.empty(n, dtype=np.int64)  # scratch: drops repeats from a level
        reps, rep = [], 0
        while True:
            frontier = np.array([rep])
            unseen[rep] = False
            while len(frontier):
                class_of[frontier] = len(reps)
                reached = self._conj_gens[:, frontier].ravel()
                reached = reached[unseen[reached]]
                unseen[reached] = False
                slot[reached] = at = np.arange(len(reached))
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
        power = np.zeros((len(reps), len(steps) + 1), dtype=np.int64)  # [c, s]: class of rep^s
        power[cls, np.concatenate([np.full(len(c), s) for s, (c, _) in enumerate(steps, 1)])] = \
            class_of[self.index_batch(np.concatenate([a for _, a in steps]))]
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
        Einv = self.inverses()
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
        across rounds, so no level after the one holding x is read.
        """
        n = self.order
        target = p_part(n, p)
        if target == 1:
            return PermGroup(self.degree, [np.arange(self.degree)], name=f"Syl_{p}(trivial)")
        cd = self.conjugacy_data()
        singular = np.array(cd.orders) % p == 0  # per class
        E = self.elements()
        bounds = self._level_bounds

        def p_element_part(i: int) -> int:
            o = cd.orders[cd.class_of[i]]
            return self.pow_index(i, o // p_part(o, p))

        conj, filled = [], []  # per generator q of P: x -> x^-1 q x, and its levels filled

        def normalizing(is_member):
            """Indices of the elements of order divisible by p that normalize P, ascending."""
            for lev in range(1, len(bounds) - 1):
                lo, hi = bounds[lev], bounds[lev + 1]
                mask = singular[cd.class_of[lo:hi]]
                for r, c in enumerate(conj):
                    if filled[r] == lev:
                        self._along_tree(self._conj_gens, c, [lev])
                        filled[r] += 1
                    mask &= is_member[c[lo:hi]]
                yield from (lo + np.flatnonzero(mask)).tolist()

        # the least element of order divisible by p represents its class
        gen_idx = [p_element_part(cd.reps[int(singular.argmax())])]
        members = self.closure_indices(gen_idx)
        while len(members) < target:
            conj += [self._rooted(q) for q in gen_idx[len(conj):]]
            filled += [1] * (len(conj) - len(filled))
            is_member = np.zeros(n, dtype=bool)
            is_member[members] = True
            y = next((y for y in map(p_element_part, normalizing(is_member)) if not is_member[y]),
                     None)
            if y is None:  # pragma: no cover - Sylow theory says this cannot happen
                raise AssertionError("no p-element extends the candidate p-subgroup")
            gen_idx.append(y)
            members = self.closure_indices(gen_idx)
        return PermGroup(self.degree, [E[i] for i in gen_idx],
                         name=f"Syl_{p}({self.name or '?'})")

    def ground_truth(self, p: int) -> GroundTruth:
        return subgroup_invariants(self.sylow_p(p), p)


def subgroup_invariants(P: PermGroup, p: int) -> GroundTruth:
    """Sylow invariants of a p-group by exhaustive computation."""
    n = P.order
    v = valuation(n, p)
    if n != p**v:
        raise ValueError(f"not a p-group: |P| = {n}")
    derived = P.closure_indices(P.commutator_indices()) if n > 1 else np.array([0])
    center = P.center_indices()
    abelian = len(center) == n
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
