import itertools
import random
import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from sylowtab import cyclo, dixon
from sylowtab.chartab import centralizer_order, int_dtype, validate
from sylowtab.corpus import corpus_entries
from sylowtab.cyclo import Cyc, cyc_to_rat
from sylowtab.dixon import dixon_table
from sylowtab.numutil import is_prime
from sylowtab.perm import PermGroup, perm_from_cycles
from sylowtab.serialize import emit_table
from perm_reference import centralizer_order_of_class, relabelled

TABLE_NAMES = ["C2", "S4", "A5", "SL(2,3)", "PSL(2,7)", "M11", "SL(2,9)", "A5xQ8"]


def test_c2_table():
    g = PermGroup(2, [perm_from_cycles(2, [(0, 1)])])
    t = dixon_table(g)
    assert t.k == 2
    vals = sorted(cyc_to_rat(t.chars[1][c]) for c in range(2))
    assert vals == [Fraction(-1), Fraction(1)]


def test_s3_table():
    g = PermGroup(3, [perm_from_cycles(3, [(0, 1, 2)]),
                     perm_from_cycles(3, [(0, 1)])])
    t = dixon_table(g)
    assert sorted(t.degree(i) for i in range(3)) == [1, 1, 2]
    three_cycles = next(c for c in range(3) if t.classes[c].element_order == 3)
    deg2 = next(i for i in range(3) if t.degree(i) == 2)
    assert cyc_to_rat(t.chars[deg2][three_cycles]) == Fraction(-1)


def test_a5_degrees_and_golden_entries(corpus):
    t = corpus.table("A5")
    assert sorted(t.degree(i) for i in range(5)) == [1, 3, 3, 4, 5]
    conductors = {t.chars[i][c].n for i in range(5) for c in range(5)}
    assert 5 in conductors  # the (1 +- sqrt 5)/2 values on order-5 classes


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_tables_validate(corpus, name):
    t = corpus.table(name)
    assert validate(t) == []
    assert t.k == len(corpus.group(name).conjugacy_data().reps)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_centralizers_match_element_scan(corpus, name):
    g = corpus.group(name)
    t = corpus.table(name)
    for c in range(t.k):
        assert centralizer_order(t, c) == centralizer_order_of_class(g, c)


def test_trivial_character_is_row_zero(corpus):
    for name in ("S4", "M11"):
        t = corpus.table(name)
        assert all(t.chars[0][c] == Cyc.one() for c in range(t.k))


def test_deterministic(corpus):
    g = corpus.group("S4")
    assert dixon_table(g).chars == dixon_table(g).chars


# -- pinned tables, prime choice, the Python-int path and the work guard ---

TABLES_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "tables"
CORPUS_NAMES = [e.name for e in corpus_entries()]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_table_equals_committed_document(corpus, name):
    path = TABLES_DIR / (re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_") + ".json")
    assert emit_table(corpus.table(name)) == path.read_text()


@pytest.mark.parametrize("name", ["S4", "M11", "A5xQ8"])
def test_relabelled_points_give_the_same_table(corpus, name):
    text = emit_table(corpus.table(name))
    for seed in (1, 2):
        assert emit_table(dixon_table(relabelled(corpus.entry(name), seed))) == text


def test_every_corpus_group_splits_within_eight_attempts(corpus, monkeypatch):
    # an attempt starts with a split of a random vector (W is None)
    starts = []
    split = dixon._common_eigenvectors
    monkeypatch.setattr(dixon, "_common_eigenvectors",
                        lambda A, W, *args: starts.append(W is None) or split(A, W, *args))
    for name in CORPUS_NAMES:
        starts.clear()
        dixon_table(corpus.group(name))
        assert 0 < sum(starts) <= 8, name


def test_prime_is_at_least_k_squared():
    # C2 x C2 x C2: exponent 2, k = 8; 2*sqrt(8) + 2 alone would give l = 7
    assert dixon._choose_ell(2, 8, 8) == 67
    assert dixon._choose_ell(12, 24, 5) == 37  # 2*sqrt(24) + 2 = 11 < 25


# S4 and SL(2,3) at l > 2^32 take the Python-int path throughout.  M11
# (k = 10, elements of order 11) at l just above sqrt(2^63 / 11) splits in
# int64, and its lift takes Python ints because the DFT bound
# 11 * (l-1)^2 passes 2^63 while the split's 10 * (l-1)^2 does not.
@pytest.mark.parametrize("name,start,split_dtype", [
    ("S4", 1 << 32, object),
    ("SL(2,3)", 1 << 32, object),
    ("M11", isqrt((1 << 63) // 11) + 1, np.int64),
])
def test_python_int_path_above_int64(corpus, name, start, split_dtype):
    g = corpus.group(name)
    cd = g.conjugacy_data()
    k = len(cd.reps)
    e = g.exponent()
    l = next(x for x in itertools.count((start // e + 1) * e + 1, e) if is_prime(x))
    assert max(cd.orders) * (l - 1) ** 2 >= 1 << 63
    A = dixon.class_matrices(g, range(k))
    inv_class = cd.class_of[g.inverse_indices()[cd.reps]].tolist()
    dt = int_dtype(k * (l - 1) ** 2)
    rng = random.Random(3)
    V = next(V for V in (dixon._common_eigenvectors(A, None, l, dt, rng) for _ in range(8))
             if V.shape[1] == k)
    assert V.dtype == split_dtype
    assert dixon._lift_characters(g, cd, V, inv_class, l) == dixon_table(g).chars


class _ScriptedRng:
    """A Random whose first randrange results are given."""

    def __init__(self, first, seed=0):
        self.first = list(first)
        self.rest = random.Random(seed)

    def randrange(self, n):
        return self.first.pop(0) % n if self.first else self.rest.randrange(n)


def _diagonalizable(eigenvalues, l):
    """(S diag(eigenvalues) S^-1 mod l, S) for a unit upper triangular S
    whose row 0 has no zero: the columns of S, scaled to 1 in row 0, are
    the eigenvectors that the split returns."""
    k = len(eigenvalues)
    N = np.triu(np.arange(2, k * k + 2).reshape(k, k) % l, 1)
    S = np.eye(k, dtype=np.int64) + N
    S_inv, term = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)
    for _ in range(k - 1):  # (I + N)^-1 = sum_i (-N)^i
        term = -term @ N % l
        S_inv = (S_inv + term) % l
    scale = np.array([pow(int(x), -1, l) for x in S[0]])
    return S * np.array(eigenvalues) @ S_inv % l, S * scale % l


def _columns(V, l):
    """The columns of V scaled to 1 in row 0, sorted."""
    return sorted(tuple(int(x) * pow(int(col[0]), -1, l) % l for x in col) for col in V.T)


@pytest.mark.parametrize("eigenvalues", [[0, 1, 12], [3, 0, 5, 9, 11]])
def test_split_finds_eigenvalue_zero_and_minus_a(eigenvalues):
    # every first-round a, so that each eigenvalue (0 included) is -a once
    l = 13
    M, S = _diagonalizable(eigenvalues, l)
    k = len(eigenvalues)
    for a in range(l):
        rng = _ScriptedRng([1] + [1 + i for i in range(k)] + [a], seed=a)
        V = dixon._common_eigenvectors(M[None], None, l, np.int64, rng)
        assert _columns(V, l) == _columns(S, l), a


def test_split_of_a_repeated_eigenvalue_counts_distinct_eigenvalues():
    l = 101
    M, _ = _diagonalizable([2, 2, 5, 7], l)
    for A in (M[None], np.stack([M] * 4)):
        V = dixon._common_eigenvectors(A, None, l, np.int64, _ScriptedRng([1]))
        assert V.shape == (4, 3) and (M @ V % l * V[0] % l == V * (M @ V % l)[0] % l).all()


def test_split_of_a_jordan_block_gives_up_within_the_round_bound(monkeypatch):
    l = 101
    M = np.array([[4, 1, 0], [0, 4, 0], [0, 0, 9]], dtype=np.int64)
    powers = []
    matrix_power = dixon._matrix_power
    monkeypatch.setattr(dixon, "_matrix_power",
                        lambda B, e, l: powers.append(e) or matrix_power(B, e, l))
    A = np.stack([M] * 3)
    V = dixon._common_eigenvectors(A, None, l, np.int64, random.Random(0))
    # only multiples of e0 and e2 are eigenvectors, and only they are returned
    assert (V[1] == 0).all() and (V != 0).any(axis=0).all()
    assert 0 < len(powers) <= dixon.SPLIT_ROUNDS


def test_dixon_makes_no_cyc_arithmetic(corpus, monkeypatch):
    """No Cyc sums or products, and one canonicalization per distinct value
    at each class order: the lift rewrites its rows on the tensor basis
    first."""
    calls = []
    for op in ("__add__", "__mul__"):
        f = getattr(Cyc, op)
        monkeypatch.setattr(Cyc, op, lambda self, other, f=f: calls.append(1) or f(self, other))
    canonicalized = []
    canonicalize = cyclo._canonicalize
    monkeypatch.setattr(cyclo, "_canonicalize",
                        lambda n, coeffs: canonicalized.append(n) or canonicalize(n, coeffs))
    for name in ("S9", "A5xQ8"):
        expected = corpus.table(name).chars
        canonicalized.clear()
        t = dixon_table(corpus.group(name))
        assert t.chars == expected
        by_order = {(cls.element_order, v) for row in t.chars
                    for cls, v in zip(t.classes, row)}
        assert len(canonicalized) <= len(by_order), name
    assert calls == []


# -- class matrices for the separating classes only ------------------------


def test_large_group_counts_under_one_percent_of_its_elements(corpus, monkeypatch):
    g = corpus.group("S9")
    scanned = []
    right_mults = g.right_mults

    def counting(idx, targets):
        scanned.append(len(idx))
        return right_mults(idx, targets)

    monkeypatch.setattr(g, "right_mults", counting)
    assert dixon_table(g).chars == corpus.table("S9").chars
    assert 0 < sum(scanned) <= g.order // 100


def test_unseparated_start_adds_classes_and_counts_each_once(corpus, monkeypatch):
    # A8's smallest classes within the budget leave characters unseparated
    g = corpus.group("A8")
    calls = []
    counted = dixon.class_matrices

    def recording(g, rows):
        calls.append(list(rows))
        return counted(g, rows)

    monkeypatch.setattr(dixon, "class_matrices", recording)
    assert dixon_table(g).chars == corpus.table("A8").chars
    rows = [c for call in calls for c in call]
    k = len(g.conjugacy_data().reps)
    assert len(calls) > 1 and len(rows) == len(set(rows)) <= k


def test_each_later_split_receives_the_parts_of_the_one_before(corpus, monkeypatch):
    # A8's first batch leaves characters joined, and its later batches
    # split only the parts already found
    g = corpus.group("A8")
    calls = []
    split = dixon._common_eigenvectors

    def recording(A, W, *args):
        calls.append((W, split(A, W, *args)))
        return calls[-1][1]

    monkeypatch.setattr(dixon, "_common_eigenvectors", recording)
    assert dixon_table(g).chars == corpus.table("A8").chars
    assert calls[0][0] is None and len(calls) > 1
    for (_, before), (W, _) in zip(calls, calls[1:]):
        assert W is not None and np.array_equal(W, before)


def test_small_group_counts_every_class_at_once(corpus, monkeypatch):
    g = corpus.group("A5xQ8")
    calls = []
    counted = dixon.class_matrices
    monkeypatch.setattr(dixon, "class_matrices",
                        lambda g, rows: calls.append(list(rows)) or counted(g, rows))
    dixon_table(g)
    k = len(g.conjugacy_data().reps)
    assert g.order <= dixon.SCAN_BUDGET and [sorted(c) for c in calls] == [list(range(k))]


@pytest.mark.parametrize("name", ["S4", "M11"])
def test_lifted_table_with_two_values_swapped_is_rejected(corpus, monkeypatch, name):
    g = corpus.group(name)
    sizes = [cls.size for cls in corpus.table(name).classes]
    lift = dixon._lift_characters

    def swapped(*args):
        rows = [list(r) for r in lift(*args)]
        i, a, b = next((i, a, b) for i, r in enumerate(rows) for a in range(1, len(r))
                       for b in range(a + 1, len(r)) if r[a] != r[b] and sizes[a] != sizes[b])
        rows[i][a], rows[i][b] = rows[i][b], rows[i][a]
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(dixon, "_lift_characters", swapped)
    with pytest.raises(dixon.DixonFailure):
        dixon_table(g)


@pytest.mark.parametrize("corrupt,reason", [
    ("zero_at_identity", "0 at the identity"),
    ("random_column", "no degree"),
    ("duplicated_column", "squared degrees"),
    ("swapped_inverse_classes", "exceeds its degree"),
])
def test_lift_rejects_wrong_central_characters(corpus, monkeypatch, corrupt, reason):
    # SL(2,3) has classes that are not their own inverse: swapping the
    # values at x and x^-1 keeps every degree but not the coefficients
    g = corpus.group("SL(2,3)")
    cd = g.conjugacy_data()
    inv_class = cd.class_of[g.inverse_indices()[cd.reps]].tolist()
    found = []
    split = dixon._common_eigenvectors
    monkeypatch.setattr(dixon, "_common_eigenvectors",
                        lambda *args: found.append(split(*args)) or found[-1])
    dixon_table(g)
    V, k = found[-1].copy(), len(cd.reps)
    l = dixon._choose_ell(g.exponent(), g.order, k)
    if corrupt == "zero_at_identity":
        V[0, 1] = 0
    elif corrupt == "random_column":
        V[:, 1] = np.arange(1, k + 1) * 7 % l
    elif corrupt == "duplicated_column":
        V[:, 1] = V[:, 0]
    else:
        m = next(m for m in range(k) if inv_class[m] != m)
        j = next(j for j in range(k) if V[m, j] != V[inv_class[m], j])
        V[[m, inv_class[m]], j] = V[[inv_class[m], m], j]
    with pytest.raises(dixon.DixonFailure, match=reason):
        dixon._lift_characters(g, cd, V, inv_class, l)
