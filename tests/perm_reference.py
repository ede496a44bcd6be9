"""Brute-force subgroup computations that only the tests use, as plain
functions of an enumerated `PermGroup`: corpus groups with relabelled
points, element products and orders one at
a time, conjugates of one element by every element, the full-scan Sylow
search that `PermGroup.sylow_p` must agree with, the derived subgroup as a
normal closure, centralizer orders, and the index-p normal subgroups of a
p-group.
"""

import random

import numpy as np

from sylowtab.numutil import lcm, p_part
from sylowtab.perm import PermGroup


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
    return g.index_of(E[j][E[i]])


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
        return g.pow_index(i, o // p_part(o, p))

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
    gi = [g.index_of(x) for x in g.generators]
    for i in gi:
        for j in gi:
            c = mul_index(g, mul_index(g, g.inv_index(i), g.inv_index(j)), mul_index(g, i, j))
            if c:
                gens.append(c)
    gens = sorted(set(gens))
    current = g.closure_indices(gens) if gens else np.array([0])
    E, Einv = g.elements(), g.inverses()
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
