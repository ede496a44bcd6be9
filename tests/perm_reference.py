"""Brute-force subgroup computations that only the tests use, as plain
functions of an enumerated `PermGroup`: the derived subgroup as a normal
closure, centralizer orders by a scan, and the index-p normal subgroups
of a p-group.
"""

import numpy as np

from sylowtab.perm import PermGroup


def derived_indices(g: PermGroup) -> np.ndarray:
    """G' = normal closure of the generator commutators (element indices)."""
    gens = []
    gi = [g.index_of(x) for x in g.generators]
    for i in gi:
        for j in gi:
            c = g.mul_index(g.mul_index(g.inv_index(i), g.inv_index(j)), g.mul_index(i, j))
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
