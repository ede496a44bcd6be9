"""Brute-force permutation groups: the ground-truth oracle.

Elements are enumerated breadth-first over the generators, one level at a
time, so the ordering is deterministic and the identity is always element
0.  They are stored as one (order x degree) integer array looked up
through sorted keys, and each records its BFS parent and generator: a word
in the generators.  Conjugacy classes (orbits of the generators acting by
conjugation), right multiplications (``right_mults``, which
``dixon.class_matrices`` counts with) and the conjugates of one element by
all (``conjugates``, for Sylow normalizers) are composed from one index
permutation per generator, so a group of order n costs O(n * gens) index
lookups, not one scan of the group per class.  Derived subgroups, centers
and Sylow invariants are exhaustive scans; everything downstream is
validated against these numbers.

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


class CapExceeded(RuntimeError):
    """Raised when a group closure exceeds the configured element cap."""


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
        self._inverses: np.ndarray | None = None
        self._conj: ConjugacyData | None = None
        self._parent: np.ndarray | None = None   # BFS parent index per element
        self._gen: np.ndarray | None = None      # generator reaching it from the parent
        self._level_bounds: list[int] | None = None  # BFS level i is [b[i], b[i+1])
        self._right_gens: np.ndarray | None = None  # row g: x -> x * g
        self._conj_gens: np.ndarray | None = None   # row g: x -> g^-1 x g
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
        occurrence of each element not seen before.
        """
        if self._elements is not None:
            return self._elements
        frontier = np.arange(self.degree, dtype=np.int64)[None, :]
        levels, parents, gens = [frontier], [np.array([-1])], [np.array([-1])]
        seen = self._keys(frontier)  # sorted keys of the elements so far
        start = 0                    # index of the first frontier element
        while True:
            prods = np.concatenate([g[frontier] for g in self.generators])
            uniq, first = np.unique(self._keys(prods), return_index=True)
            pos = np.searchsorted(seen, uniq)
            new = seen[np.minimum(pos, len(seen) - 1)] != uniq
            count = len(seen) + int(new.sum())
            if count > self.cap:
                raise CapExceeded(f"group exceeds element cap {self.cap}")
            if count == len(seen):
                break
            seen = np.insert(seen, pos[new], uniq[new])
            first = np.sort(first[new])
            parents.append(start + first % len(frontier))
            gens.append(first // len(frontier))
            start += len(frontier)
            frontier = prods[first]
            levels.append(frontier)
        E = np.concatenate(levels)
        self._elements = E
        self._inverses = np.argsort(E, axis=1)
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gens)
        self._level_bounds = np.cumsum([0] + [len(level) for level in levels]).tolist()
        self._sort_order = np.argsort(self._keys(E))
        self._sorted_keys = seen
        return E

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
        self.elements()
        return self._inverses

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
        if self._right_gens is None:
            E = self.elements()
            self._right_gens = np.stack([self.index_batch(g[E]) for g in self.generators])
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
        return self.index_of(self.inverses()[i])

    def pow_index(self, i: int, k: int) -> int:
        E = self.elements()
        d = self.degree
        if k < 0:
            return self.pow_index(self.inv_index(i), -k)
        acc = np.arange(d, dtype=np.int64)
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
        E = self.elements()
        n = len(E)
        self._conj_gens = np.stack([self.index_batch(g[E[:, np.argsort(g)]])
                                    for g in self.generators])
        steps = []  # x -> g^-1 x g for each generator g, and its inverse
        for sigma in self._conj_gens:
            inverse = np.empty_like(sigma)
            inverse[sigma] = np.arange(n)
            steps += [sigma, inverse]
        # every element's label is an orbit-mate with no larger index; take
        # the least label of the neighbours, then the label's own label,
        # until nothing changes: each orbit is then labelled by its minimum
        label = np.arange(n)
        while True:
            new = label
            for step in steps:
                new = np.minimum(new, label[step])
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        reps, class_of = np.unique(label, return_inverse=True)
        reps = reps.tolist()
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
        out = np.empty(self.order, dtype=np.int64)
        out[0] = q
        bounds = self._level_bounds
        for lo, hi in zip(bounds[1:], bounds[2:]):
            out[lo:hi] = self._conj_gens[self._gen[lo:hi], out[self._parent[lo:hi]]]
        return out

    def exponent(self) -> int:
        out = 1
        for o in self.conjugacy_data().orders:
            out = lcm(out, o)
        return out

    def centralizer_order_of_class(self, c: int) -> int:
        cd = self.conjugacy_data()
        return self.order // int(cd.sizes[c])

    def centralizer_size(self, i: int) -> int:
        """|C_G(x)| for element index i, by direct scan."""
        E = self.elements()
        x = E[i]
        return int(np.count_nonzero((E[:, x] == x[E]).all(axis=1)))

    def center_indices(self) -> np.ndarray:
        E = self.elements()
        mask = np.ones(len(E), dtype=bool)
        for g in self.generators:
            mask &= (E[:, g] == g[E]).all(axis=1)
        return np.flatnonzero(mask)

    def commutator_indices(self, idx_set=None) -> list[int]:
        """Indices of all commutators [x, y] with x, y ranging over idx_set."""
        E = self.elements()
        Einv = self.inverses()
        idx = np.arange(len(E)) if idx_set is None else np.asarray(sorted(idx_set))
        out = set()
        for j in idx.tolist():
            y, yinv = E[j], Einv[j]
            # [x,y] = x^-1 y^-1 x y for all x in one shot
            t = np.take_along_axis(E[idx], yinv[Einv[idx]], axis=1)
            comm = y[t]
            out.update(self.index_batch(comm).tolist())
        return sorted(out)

    def derived_indices(self) -> np.ndarray:
        """G' = normal closure of the generator commutators (element indices)."""
        gens = []
        gi = [self.index_of(g) for g in self.generators]
        for i in gi:
            for j in gi:
                c = self.mul_index(self.mul_index(self.inv_index(i), self.inv_index(j)),
                                   self.mul_index(i, j))
                if c:
                    gens.append(c)
        gens = sorted(set(gens))
        current = self.closure_indices(gens) if gens else np.array([0])
        E, Einv = self.elements(), self.inverses()
        while True:
            cur_set = set(current.tolist())
            extra = []
            for j in gi:
                conj = E[j][E[current][:, Einv[j]]]  # g^-1 x g rowwise
                for idx in self.index_batch(conj).tolist():
                    if idx not in cur_set:
                        extra.append(idx)
            if not extra:
                return current
            # keep the generating list short: one new conjugate is enough to
            # grow the closure, and re-closing is O(|H| * #gens)
            gens.append(extra[0])
            current = self.closure_indices(gens)

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


def index_p_normal_subgroups(P: PermGroup, p: int) -> list[np.ndarray]:
    """All normal subgroups of index p in a p-group (element index arrays).

    These are exactly the kernels of surjections onto C_p, i.e. the
    hyperplane preimages of P modulo its Frattini subgroup P'P^p.
    """
    n = P.order
    if n % p:
        raise ValueError("not a p-group for this prime")
    if n == 1:
        return []
    frat_gens = set(P.commutator_indices())
    for i in range(n):
        frat_gens.add(P.pow_index(i, p))
    frat_gens.discard(0)
    M = P.closure_indices(sorted(frat_gens)) if frat_gens else np.array([0])
    # label cosets of M by their smallest member index
    E = P.elements()
    coset_of = {}
    for i in range(n):
        if i in coset_of:
            continue
        # coset x*M: apply x, then each m in M
        block = P.index_batch(np.stack([E[m][E[i]] for m in M.tolist()]))
        label = int(block.min())
        for b in block.tolist():
            coset_of[b] = label
    q = len(set(coset_of.values()))
    r = 0
    while p**r < q:
        r += 1
    assert p**r == q
    # find a basis of the elementary abelian quotient and coordinates
    coords = {coset_of[0]: (0,) * r}
    basis = []
    for i in range(n):
        lab = coset_of[i]
        if lab in coords:
            continue
        # tentatively extend the basis by element i
        k = len(basis)
        new_coords = dict(coords)
        for old_lab, vec in coords.items():
            rep = next(j for j in range(n) if coset_of[j] == old_lab)
            acc = rep
            for e in range(1, p):
                acc = P.mul_index(acc, i)
                new_vec = list(vec)
                new_vec[k] = e
                new_coords[coset_of[acc]] = tuple(new_vec)
        if len(new_coords) > len(coords):
            basis.append(i)
            coords = new_coords
        if len(coords) == q:
            break
    assert len(basis) == r and len(coords) == q
    elem_vec = np.array([coords[coset_of[i]] for i in range(n)])
    out = []
    seen_funcs = set()
    for func in _nonzero_functionals(p, r):
        key = tuple(func)
        if key in seen_funcs:
            continue
        for s in range(2, p):
            seen_funcs.add(tuple((s * f) % p for f in func))
        seen_funcs.add(key)
        members = np.flatnonzero((elem_vec @ np.array(func)) % p == 0)
        out.append(members)
    return out


def _nonzero_functionals(p: int, r: int):
    vec = [0] * r
    total = p**r
    for k in range(1, total):
        m = k
        for i in range(r):
            vec[i] = m % p
            m //= p
        yield tuple(vec)
