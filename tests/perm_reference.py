"""Brute-force subgroup computations that only the tests use, as plain
functions of an enumerated `PermGroup`: the sorted-key breadth-first
enumeration that `PermGroup.elements` must agree with, corpus groups with
relabelled points, element products and orders one at a time, conjugates
of one element by every element, the full-scan Sylow search that
`PermGroup.sylow_p` must agree with, the derived subgroup as a normal
closure, centralizer orders, and the index-p normal subgroups of a
p-group.
"""

import random

import numpy as np

from sylowtab.numutil import lcm, p_part
from sylowtab.perm import PermGroup


def sorted_key_bfs(degree: int, generators):
    """(elements, BFS parent, generator, right multiplications) of the group,
    enumerated level by level with every element located through a sorted
    array of keys: the rows packed into one int64 up to degree 15, else the
    row bytes.  Each level sorts its products, searches them in the keys
    seen so far and merges the new keys in."""
    dtype = np.min_scalar_type(degree - 1)
    gen_rows = np.array([list(g) for g in generators], dtype=dtype).reshape(-1, degree)
    if not len(gen_rows):
        gen_rows = np.arange(degree, dtype=dtype)[None, :]
    powers = degree ** np.arange(degree, dtype=np.int64) if degree <= 15 else None

    def keys_of(rows):
        if powers is not None:
            return rows @ powers
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * degree))).reshape(len(rows))

    def merged(old, at, kept, new):
        out = np.empty(len(kept), dtype=old.dtype)
        out[at] = new
        out[kept] = old
        return out

    frontier = np.arange(degree, dtype=dtype)[None, :]
    levels, parents, gens, rights = [frontier], [np.array([-1])], [np.array([-1])], []
    seen, seen_idx, start = keys_of(frontier), np.zeros(1, dtype=np.int64), 0
    while True:
        width = len(frontier)
        prods = np.take(gen_rows, frontier, axis=1).reshape(-1, degree)
        keys = keys_of(prods)
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
        order = np.argsort(first[fresh])  # new elements in order of their first product
        uniq_idx = seen_idx[near]
        uniq_idx[fresh[order]] = np.arange(len(seen), count)
        rights.append(uniq_idx[where].reshape(len(gen_rows), width))
        if not len(fresh):
            break
        at = pos[fresh] + np.arange(len(fresh))
        kept = np.ones(count, dtype=bool)
        kept[at] = False
        seen = merged(seen, at, kept, uniq[fresh])
        seen_idx = merged(seen_idx, at, kept, uniq_idx[fresh])
        first = first[fresh[order]]
        parents.append(start + first % width)
        gens.append(first // width)
        start += width
        frontier = prods[first]
        levels.append(frontier)
    return (np.concatenate(levels), np.concatenate(parents), np.concatenate(gens),
            np.concatenate(rights, axis=1))


def relabelled(entry, seed) -> PermGroup:
    """The corpus group with its points renamed by a seeded bijection."""
    sigma = list(range(entry.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in entry.generators:
        img = [0] * entry.degree
        for x, gx in enumerate(g):
            img[sigma[x]] = sigma[gx]
        gens.append(img)
    return PermGroup(entry.degree, gens, name=entry.name)


def mul_index(g: PermGroup, i: int, j: int) -> int:
    """Index of (element i, then element j)."""
    E = g.elements()
    return int(g.index_batch(E[j][E[i]][None])[0])


def element_order(g: PermGroup, i: int) -> int:
    """Order of element i: the lcm of its cycle lengths, by a walk."""
    img = g.elements()[i]
    seen = np.zeros(g.degree, dtype=bool)
    out = 1
    for start in range(g.degree):
        if not seen[start]:
            length, pt = 0, start
            while not seen[pt]:
                seen[pt] = True
                pt = int(img[pt])
                length += 1
            out = lcm(out, length)
    return out


def conjugates(g: PermGroup, q: int) -> np.ndarray:
    """Index of x^-1 q x for every element x, along the whole BFS tree."""
    g.conjugacy_data()
    return g._along_tree(g._conj_gens, g._rooted(q))


def centralizer_order_of_class(g: PermGroup, c: int) -> int:
    return g.order // int(g.conjugacy_data().sizes[c])


def sylow_p(g: PermGroup, p: int) -> PermGroup:
    """The normalizer-growth Sylow search with a full conjugate scan per
    generator of the candidate: the reference for `PermGroup.sylow_p`."""
    n = g.order
    target = p_part(n, p)
    if target == 1:
        return PermGroup(g.degree, [np.arange(g.degree)], name=f"Syl_{p}(trivial)")
    cd = g.conjugacy_data()
    elem_orders = np.array(cd.orders)[cd.class_of]
    E = g.elements()

    def p_element_part(i: int) -> int:
        o = int(elem_orders[i])
        return int(g.pow_indices([i], o // p_part(o, p))[0])

    seed = next(i for i in range(n) if elem_orders[i] % p == 0)
    gen_idx = [p_element_part(seed)]
    gen_conj: list[np.ndarray] = []
    members = g.closure_indices(gen_idx)
    while len(members) < target:
        gen_conj += [conjugates(g, q) for q in gen_idx[len(gen_conj):]]
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
        else:
            raise AssertionError("no p-element extends the candidate p-subgroup")
        members = g.closure_indices(gen_idx)
    return PermGroup(g.degree, [E[i] for i in gen_idx], name=f"Syl_{p}({g.name or '?'})")


def derived_indices(g: PermGroup) -> np.ndarray:
    """G' = normal closure of the generator commutators (element indices)."""
    gens = []
    gi = g.index_batch(np.stack(g.generators)).tolist()
    inv = g.inverse_indices()
    for i in gi:
        for j in gi:
            c = mul_index(g, mul_index(g, int(inv[i]), int(inv[j])), mul_index(g, i, j))
            if c:
                gens.append(c)
    gens = sorted(set(gens))
    current = g.closure_indices(gens) if gens else np.array([0])
    E = g.elements()
    Einv = np.argsort(E, axis=1)
    while True:
        cur_set = set(current.tolist())
        extra = []
        for j in gi:
            conj = E[j][E[current][:, Einv[j]]]  # g^-1 x g rowwise
            for idx in g.index_batch(conj).tolist():
                if idx not in cur_set:
                    extra.append(idx)
        if not extra:
            return current
        # keep the generating list short: one new conjugate is enough to
        # grow the closure, and re-closing is O(|H| * #gens)
        gens.append(extra[0])
        current = g.closure_indices(gens)


def centralizer_size(g: PermGroup, i: int) -> int:
    """|C_G(x)| for element index i, by direct scan."""
    E = g.elements()
    x = E[i]
    return int(np.count_nonzero((E[:, x] == x[E]).all(axis=1)))


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
    frat_gens.update(P.pow_indices(np.arange(n), p).tolist())
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
                acc = mul_index(P, acc, i)
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
