"""Exact linear algebra over prime fields: frozen small examples plus
randomized structural laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.linalg import (
    Matrix,
    ShapeError,
    Subspace,
    check_prime,
    enumerate_subspaces,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rank,
    rref,
    solve,
    solve_left,
    vstack,
)


@st.composite
def matrices(draw, max_dim=4, modulus=2):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    ents = draw(st.lists(st.integers(0, modulus - 1),
                         min_size=rows * cols, max_size=rows * cols))
    return Matrix.build(rows, cols, modulus, ents)


def mat2(rows):
    return Matrix.from_rows(rows, 2)


# -- moduli --------------------------------------------------------------


def test_check_prime_rejects_composites():
    check_prime(2)
    check_prime(97)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            check_prime(bad)


def _accepts(p):
    try:
        check_prime(p)
    except ValueError:
        return False
    return True


def test_check_prime_agrees_with_a_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [p for p in range(n) if _accepts(p)] == \
        [p for p in range(n) if sieve[p]]
    # large primes below the modulus cap, and composites that pass
    # Miller-Rabin to small bases
    for p in (2147483647, 2147483629):
        assert _accepts(p)
    for c in (2147483643, 25326001, 1373653):
        assert not _accepts(c)


# -- matrix construction and block ops -----------------------------------


def test_build_checks_entry_count():
    with pytest.raises(ShapeError):
        Matrix.build(2, 2, 2, (1, 0, 1))


def test_from_rows_empty_needs_cols():
    m = Matrix.from_rows([], 2, cols=3)
    assert (m.rows, m.cols) == (0, 3)


def test_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        mat2([[1, 0]]).mul(mat2([[1, 0]]))


def test_stack_shapes():
    a = mat2([[1, 0], [0, 1]])
    b = mat2([[1, 1]])
    assert vstack([a, b]).rows == 3
    assert hstack([a, a]).cols == 4


# -- row reduction -------------------------------------------------------


def test_rref_frozen_example():
    # hand-reduced over F_2
    r = rref(mat2([[1, 1], [1, 1]]))
    assert r.matrix.entries == (1, 1, 0, 0)
    assert r.pivots == (0,)
    assert r.rank == 1


def test_rref_identity_is_fixed():
    m = Matrix.identity(3, 5)
    assert rref(m).matrix == m
    assert rref(m).rank == 3


@given(matrices(modulus=3))
def test_rref_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@given(matrices(modulus=5), st.randoms(use_true_random=False))
def test_rref_invariant_under_row_operations(m, rng):
    """Left multiplication by an invertible matrix never changes the rref.

    The invertible matrix is drawn as g = P L U: P a permutation, L unit
    lower triangular, U upper triangular with a nonzero diagonal.  Every
    invertible matrix has this form, and the number of draws is bounded.
    """
    p, n = m.modulus, m.rows
    perm = list(range(n))
    rng.shuffle(perm)
    pm = Matrix.build(n, n, p, [int(perm[i] == j) for i in range(n) for j in range(n)])
    lower = Matrix.build(n, n, p, [1 if i == j else rng.randrange(p) if j < i else 0
                                   for i in range(n) for j in range(n)])
    upper = Matrix.build(n, n, p, [rng.randrange(1, p) if i == j
                                   else rng.randrange(p) if j > i else 0
                                   for i in range(n) for j in range(n)])
    g = pm.mul(lower).mul(upper)
    assert rank(g) == n
    assert rref(g.mul(m)).matrix == rref(m).matrix


@given(matrices())
def test_kernel_vectors_annihilate(m):
    k = kernel_basis(m)
    for i in range(k.dim):
        col = Matrix.build(m.cols, 1, m.modulus, k.basis.row(i))
        assert not any(m.mul(col).entries)


@given(matrices())
def test_image_dim_is_rank(m):
    assert image_basis(m).dim == rank(m)


# -- solving -------------------------------------------------------------


@given(matrices(), matrices())
def test_solve_round_trip(m, probe):
    if probe.rows != m.cols:
        probe = Matrix.build(m.cols, max(probe.cols, 1), m.modulus,
                             [0] * (m.cols * max(probe.cols, 1)))
    target = m.mul(probe)
    x = solve(m, target)
    assert x is not None
    assert m.mul(x) == target


def test_solve_reports_unsolvable():
    m = mat2([[0, 0]])
    target = mat2([[1]])
    assert solve(m, target) is None


def test_solve_left_round_trip():
    m = mat2([[1, 0], [1, 1]])
    probe = mat2([[0, 1], [1, 1]])
    y = solve_left(m, probe.mul(m))
    assert y.mul(m) == probe.mul(m)


# -- subspaces -----------------------------------------------------------


def test_subspace_count_frozen():
    # Gaussian binomial totals over F_2
    assert len(enumerate_subspaces(2, 2)) == 5
    assert len(enumerate_subspaces(4, 2)) == 67


def test_line_count_frozen():
    lines = [s for s in enumerate_subspaces(3, 2) if s.dim == 1]
    assert len(lines) == 7


def test_subspace_membership():
    s = Subspace.from_rows(3, 2, [[1, 1, 0]])
    assert s.contains_vector((1, 1, 0))
    assert not s.contains_vector((1, 0, 0))
    full = Subspace(3, Matrix.identity(3, 2))
    assert full.contains_subspace(s)
    assert not s.contains_subspace(full)


def _eliminating_containment(outer, inner) -> bool:
    """The reference: eliminate each row of inner against outer's basis."""
    return all(outer.contains_vector(inner.basis.row(i)) for i in range(inner.dim))


def _random_pair(rng, n, p):
    """A random subspace and, half the time, the span of random
    combinations of its rows, so that contained pairs are common."""
    def rand_rows(k):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    outer = Subspace.from_rows(n, p, rand_rows(rng.randint(0, n)))
    if rng.random() < 0.5:
        rows = [[sum(rng.randrange(p) * outer.basis.entry(i, c)
                     for i in range(outer.dim)) for c in range(n)]
                for _ in range(rng.randint(0, outer.dim))]
        rows += rand_rows(rng.randint(0, 1))
    else:
        rows = rand_rows(rng.randint(0, n))
    return outer, Subspace.from_rows(n, p, rows)


@pytest.mark.parametrize("p, n", ((2, 4), (3, 3)))
def test_contains_subspace_matches_elimination_on_every_pair(p, n):
    spaces = enumerate_subspaces(n, p)
    for outer in spaces:
        for inner in spaces:
            assert outer.contains_subspace(inner) == \
                _eliminating_containment(outer, inner)


@pytest.mark.parametrize("p", (2, 3))
def test_contains_subspace_matches_elimination_on_random_pairs(p):
    rng = random.Random(p)
    seen = set()
    for _ in range(2000):
        outer, inner = _random_pair(rng, rng.randint(0, 6), p)
        verdict = outer.contains_subspace(inner)
        assert verdict == _eliminating_containment(outer, inner)
        seen.add(verdict)
    assert seen == {True, False}


def test_quotient_map_kills_exactly_the_subspace():
    s = Subspace.from_rows(3, 2, [[1, 0, 0], [0, 1, 0]])
    proj, q = quotient_map(3, s)
    assert q == 1
    for i in range(s.dim):
        assert not any(proj.mul(Matrix.build(3, 1, 2, s.basis.row(i))).entries)
    assert rank(proj) == 1


def _completion_quotient(n, s):
    """The quotient map by completion: put the unit vectors of the
    non-pivot columns after the basis of s, invert that square matrix by a
    solve, and keep the rows past dim s."""
    p = s.modulus
    pivots = rref(s.basis).pivots
    units = [[int(k == c) for k in range(n)] for c in range(n) if c not in pivots]
    rows = [s.basis.row(i) for i in range(s.dim)] + units
    completion = Matrix.from_rows(rows, p, cols=n).transpose()
    inv = solve(completion, Matrix.identity(n, p))
    return Matrix.from_rows([inv.row(i) for i in range(s.dim, n)], p, cols=n), len(units)


def test_quotient_map_matches_the_completion_inverse():
    subspaces = [s for p, top in ((2, 5), (3, 4), (5, 3)) for n in range(top + 1)
                 for s in enumerate_subspaces(n, p)]
    assert len(subspaces) == 789
    for s in subspaces:
        proj, q = quotient_map(s.ambient_dim, s)
        want, want_q = _completion_quotient(s.ambient_dim, s)
        assert (proj, q) == (want, want_q), s
        assert hash(proj) == hash(want)


def _kept_rows_subspace(n, p, rows):
    """Subspace.from_rows rebuilt row by row: reduce, then rebuild the
    nonzero rows through the checked constructor."""
    r = rref(Matrix.from_rows(rows, p, cols=n))
    return Subspace(n, Matrix.from_rows([r.matrix.row(i) for i in range(r.rank)],
                                        p, cols=n))


def test_subspace_from_rows_matches_the_kept_rows():
    rng = random.Random(2024)
    cases = [(3, 2, []), (0, 3, []), (0, 5, [[], []]), (4, 3, [[0] * 4] * 3),
             (3, 5, [[1, 2, 3], [2, 4, 6], [0, 0, 0]])]
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(6)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(6))]
        if rows and rng.random() < 0.5:
            # rank-deficient: a combination of rows already there, or zero
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(p)
            rows.insert(rng.randrange(len(rows) + 1),
                        [(x + c * y) % p for x, y in zip(a, b)])
            rows.append([0] * n)
        cases.append((n, p, rows))
    for n, p, rows in cases:
        got = Subspace.from_rows(n, p, rows)
        want = _kept_rows_subspace(n, p, rows)
        assert got == want, (n, p, rows)
        assert hash(got) == hash(want)
        assert hash(got.basis) == hash(want.basis)


@settings(max_examples=25)
@given(st.integers(0, 3))
def test_subspace_enumeration_is_canonical(n):
    subs = enumerate_subspaces(n, 2)
    keys = [(s.dim, rref(s.basis).pivots, s.basis.entries) for s in subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
