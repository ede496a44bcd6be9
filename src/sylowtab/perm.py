"""Brute-force permutation groups: the ground-truth oracle.

Elements are enumerated breadth-first over the generators, one level at a
time, so the ordering is deterministic and the identity is always element
0.  They are stored as one (order x degree) integer array looked up
through sorted keys, and each records its BFS parent and generator: a word
in the generators.  The search locates every product x * g as it forms it,
so it records right multiplication by each generator; left multiplication
by g^-1, conjugation by g, inversion and the conjugates of one element by
all (``conjugates``, for Sylow normalizers) are composed along the BFS
tree, one gather per level.  Conjugacy classes are orbits of the
generators acting by conjugation, and ``right_mults`` (which
``dixon.class_matrices`` counts with) composes right multiplications along
words: after enumeration no lookup scans the whole group.  Centers and
Sylow invariants are exhaustive scans; everything downstream is validated
against these numbers.

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
    power_maps: dict[int, list[int]]  # prime -> class index of rep^p


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
        gens = []
        for g in generators:
            arr = np.asarray(list(g), dtype=np.int64)
            if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {list(g)}")
            gens.append(arr)
        if not gens:
            gens = [np.arange(degree, dtype=np.int64)]
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
        """One sortable key per permutation row."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if self._powers is not None:
            return rows @ self._powers
        return rows.view(np.dtype((np.void, 8 * self.degree))).reshape(len(rows))

    def elements(self) -> np.ndarray:
        """All group elements, (order x degree); element 0 is the identity.

        Each BFS level takes every (frontier element, then generator)
        product, generator-major and in frontier order, and keeps the first
        occurrence of each element not seen before.  Locating the products
        records x * g for each x and generator g (``_right_gens``) and the
        element behind each sorted key (``_sort_order``).
        """
        if self._elements is not None:
            return self._elements
        frontier = np.arange(self.degree, dtype=np.int64)[None, :]
        levels, parents, gens, rights = [frontier], [np.array([-1])], [np.array([-1])], []
        seen = self._keys(frontier)              # sorted keys of the elements so far
        seen_idx = np.zeros(1, dtype=np.int64)   # BFS index of each sorted key
        start = 0                                # index of the first frontier element
        while True:
            width = len(frontier)
            prods = np.concatenate([g[frontier] for g in self.generators])
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

    def _along_tree(self, table: np.ndarray, start) -> np.ndarray:
        """out[..., x] = table[h, out[..., p]] for every x = p * h (p its BFS
        parent, h its generator), from out[..., 0] = start at the identity:
        one gather per BFS level."""
        start = np.asarray(start)
        out = np.empty(start.shape + (self.order,), dtype=np.int64)
        out[..., 0] = start
        bounds = self._level_bounds
        for lo, hi in zip(bounds[1:], bounds[2:]):
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
        """Element indices of a batch of permutation rows; KeyError on a non-member."""
        self.elements()
        keys = self._keys(rows)
        # binary search runs several times faster on ascending queries
        order = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.intp)
        pos[order] = np.searchsorted(self._sorted_keys, keys[order])
        np.minimum(pos, len(self._sorted_keys) - 1, out=pos)
        missing = np.flatnonzero(self._sorted_keys[pos] != keys)
        if len(missing):
            raise KeyError(f"not a group element: {np.asarray(rows)[missing[0]].tolist()}")
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
        return int(self.index_batch(np.asarray(row, dtype=np.int64)[None, :])[0])

    def mul_index(self, i: int, j: int) -> int:
        """Index of (element i, then element j)."""
        E = self.elements()
        return self.index_of(E[j][E[i]])

    def inv_index(self, i: int) -> int:
        return int(self.inverse_indices()[i])

    def pow_index(self, i: int, k: int) -> int:
        """Index of element i to the power k >= 0."""
        E = self.elements()
        acc = np.arange(self.degree, dtype=np.int64)
        base = E[i]
        while k:
            if k & 1:
                acc = base[acc]
            base = base[base]
            k >>= 1
        return self.index_of(acc)

    def element_order(self, i: int) -> int:
        img = self.elements()[i]
        seen = np.zeros(self.degree, dtype=bool)
        out = 1
        for start in range(self.degree):
            if not seen[start]:
                length, pt = 0, start
                while not seen[pt]:
                    seen[pt] = True
                    pt = int(img[pt])
                    length += 1
                out = lcm(out, length)
        return out

    def closure_indices(self, gen_indices) -> np.ndarray:
        """Sorted element indices of the subgroup generated by the given elements."""
        E = self.elements()
        seen = {0}
        frontier = [0]
        gen_rows = [E[i] for i in gen_indices]
        while frontier:
            block = E[np.array(frontier)]
            nxt = []
            for g in gen_rows:
                for idx in self.index_batch(g[block]).tolist():
                    if idx not in seen:
                        seen.add(idx)
                        nxt.append(idx)
            frontier = nxt
        return np.array(sorted(seen))

    # -- conjugacy structure ------------------------------------------

    def conjugacy_data(self) -> ConjugacyData:
        """Classes as orbits of the generators acting by conjugation.

        Classes are numbered by their least element index, which is also
        their representative.
        """
        if self._conj is not None:
            return self._conj
        n = len(self.elements())
        # along the tree, left multiplication by g^-1 is g^-1 * (p * h) =
        # (g^-1 * p) * h; conjugation by g follows it with x -> x * g, and
        # inversion is (p * h)^-1 = h^-1 * p^-1
        ginv = self.index_batch(np.stack([np.argsort(g) for g in self.generators]))
        left = self._along_tree(self._right_gens, ginv)
        self._conj_gens = np.take_along_axis(self._right_gens, left, axis=1)
        self._inverse_idx = self._along_tree(left, 0)
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
        orders = [self.element_order(r) for r in reps]
        power_maps = {}
        for p in prime_divisors(n):
            power_maps[p] = [int(class_of[self.pow_index(r, p)]) for r in reps]
        self._conj = ConjugacyData(reps, np.bincount(class_of), orders, class_of, power_maps)
        return self._conj

    def conjugates(self, q: int) -> np.ndarray:
        """Index of x^-1 q x for every element x.

        Along the BFS tree: for x = parent * g, x^-1 q x is the conjugate of
        parent^-1 q parent by the generator g, so each BFS level is one
        gather from the generators' conjugation permutations.
        """
        self.conjugacy_data()
        return self._along_tree(self._conj_gens, q)

    def exponent(self) -> int:
        out = 1
        for o in self.conjugacy_data().orders:
            out = lcm(out, o)
        return out

    def centralizer_order_of_class(self, c: int) -> int:
        cd = self.conjugacy_data()
        return self.order // int(cd.sizes[c])

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
        """A Sylow p-subgroup, grown through normalizers from a cyclic seed."""
        n = self.order
        target = p_part(n, p)
        ident = np.arange(self.degree, dtype=np.int64)
        if target == 1:
            return PermGroup(self.degree, [ident], name=f"Syl_{p}(trivial)")
        cd = self.conjugacy_data()
        elem_orders = np.array(cd.orders)[cd.class_of]
        E = self.elements()

        def p_element_part(i: int) -> int:
            o = int(elem_orders[i])
            return self.pow_index(i, o // p_part(o, p))

        seed = next(i for i in range(n) if elem_orders[i] % p == 0)
        gen_idx = [p_element_part(seed)]
        gen_conj: list[np.ndarray] = []
        members = self.closure_indices(gen_idx)
        while len(members) < target:
            gen_conj += [self.conjugates(q) for q in gen_idx[len(gen_conj):]]
            is_member = np.zeros(n, dtype=bool)
            is_member[members] = True
            mask = np.ones(n, dtype=bool)
            for conj in gen_conj:
                mask &= is_member[conj]
            member_set = set(members.tolist())
            for j in np.flatnonzero(mask).tolist():
                if elem_orders[j] % p:
                    continue
                y = p_element_part(j)
                if y not in member_set:
                    gen_idx.append(y)
                    break
            else:  # pragma: no cover - Sylow theory says this cannot happen
                raise AssertionError("no p-element extends the candidate p-subgroup")
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
