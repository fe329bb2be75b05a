"""Arithmetic builds its Matrix results without re-running the checks of
the public constructors.  Every such result must still pass those checks,
and the public constructors must still refuse bad input.  Also: each
instance's flat_len agrees with counting the coordinates of a zero
morphism, the default it replaces; Subspace.from_rows, kernel_basis and
image_basis, which read their basis off one RREF, agree with the checked
Subspace; and a record that keeps its hash agrees with an equal record
that has not been hashed yet."""

import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import CategoryInstance
from commacat.functors import hom_into, identity_functor
from commacat.instances import Budget, FinVect, Quiver, Rep
from commacat.linalg import (
    Matrix,
    ShapeError,
    Subspace,
    block_diag,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rref,
    solve,
    solve_left,
    vstack,
)
# the certify contexts: the four abelian-universality comma contexts and
# the framed hom_into co-comma, plus FinVect and Rep on the arrow quiver
from test_factor_direct import CONTEXTS

dims = st.integers(0, 4)


def _random(rng, rows, cols, p):
    return Matrix.build(rows, cols, p, [rng.randrange(p) for _ in range(rows * cols)])


def _assert_valid(m):
    checked = Matrix(m.rows, m.cols, m.modulus, m.entries)
    assert checked == m
    assert hash(checked) == hash(m)


def _results(rng, p, r, c, k):
    a = _random(rng, r, c, p)
    right = _random(rng, c, k, p)
    out = [a.mul(right), a.transpose(), hstack([a, _random(rng, r, k, p)]),
           vstack([a, _random(rng, k, c, p)]), block_diag([a, right]),
           rref(a).matrix, kernel_basis(a).basis, image_basis(a).basis]
    # right-hand sides that are solvable, so the solutions are built too
    out.append(solve(a, a.mul(right)))
    out.append(solve_left(right, a.mul(right)))
    out.append(solve(a, _random(rng, r, k, p)))
    out.append(quotient_map(c, kernel_basis(a))[0])
    out.append(Matrix.zero(r, c, p))
    out.append(Matrix.identity(r, p))
    return [m for m in out if m is not None]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), dims, dims, dims, st.integers(0, 10 ** 6))
def test_arithmetic_results_pass_the_checked_constructor(p, r, c, k, seed):
    rng = random.Random(seed)
    for m in _results(rng, p, r, c, k):
        assert m.modulus == p
        _assert_valid(m)


def test_solve_results_pass_the_checked_constructor():
    m = Matrix.from_rows([[1, 0], [0, 0]], 3)
    x = solve(m, Matrix.from_rows([[2], [0]], 3))
    assert x == Matrix.from_rows([[2], [0]], 3)
    _assert_valid(x)
    assert solve(m, Matrix.from_rows([[0], [1]], 3)) is None
    _assert_valid(solve(Matrix.zero(2, 0, 3), Matrix.zero(2, 3, 3)))


def test_build_reduces_what_it_trusts():
    m = Matrix.build(1, 3, 3, (4, -1, 3))
    assert m.entries == (1, 2, 0)
    _assert_valid(m)
    _assert_valid(Matrix.from_rows([[5, -7]], 5))


@pytest.mark.parametrize("make", [
    lambda: Matrix(-1, 0, 2, ()),
    lambda: Matrix(0, -2, 2, ()),
    lambda: Matrix(2, 2, 2, (0, 1, 1)),
    lambda: Matrix(1, 2, 3, (0, 3)),
    lambda: Matrix(1, 1, 3, (-1,)),
    lambda: Matrix.build(-1, 0, 2, ()),
    lambda: Matrix.build(2, 2, 2, (0, 1, 1)),
    lambda: Matrix.from_rows([[1, 0], [1]], 2),
    lambda: Matrix.zero(-1, 2, 2),
    lambda: Matrix.zero(2, -1, 2),
    lambda: Matrix.identity(-1, 2),
], ids=["negative-rows", "negative-cols", "entry-count", "unreduced",
        "negative-entry", "build-negative", "build-entry-count",
        "from-rows-ragged", "zero-negative-rows", "zero-negative-cols",
        "identity-negative"])
def test_public_constructors_refuse_bad_shapes(make):
    with pytest.raises(ShapeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: Matrix(1, 1, 3, (0.5,)),
    lambda: Matrix.build(1, 2, 3, [2.5, Fraction(7, 2)]),
    lambda: Matrix.from_rows([[1, 2.0]], 3),
    lambda: FinVect(3).mor_from_flat(1, 1, (Fraction(1),)),
], ids=["checked", "build", "from-rows", "mor-from-flat"])
def test_public_constructors_refuse_non_integer_entries(make):
    """Each refuses the entry, where int() would truncate it or rref
    would fail on it later."""
    with pytest.raises(ShapeError, match="must be integers"):
        make()


def test_public_constructors_accept_boolean_entries():
    assert Matrix(1, 2, 3, (True, False)).entries == (1, 0)
    assert Matrix.build(1, 2, 3, (True, False)).entries == (1, 0)


@pytest.mark.parametrize("make", [
    lambda: Matrix(1, 1, 4, (0,)),
    lambda: Matrix.build(1, 1, 1, (0,)),
    lambda: Matrix.from_rows([[1]], 6),
    lambda: Matrix.zero(1, 1, 9),
    lambda: Matrix.identity(2, 2 ** 31),
    # unhashable moduli: refused by the type check, not by the verdict cache
    lambda: Matrix.build(1, 1, [2], (1,)),
    lambda: Matrix.zero(0, 0, {}),
    lambda: FinVect([2]),
    lambda: Rep(Quiver(1, ()), [3]),
], ids=["checked", "build", "from-rows", "zero", "identity", "build-list",
        "zero-dict", "finvect-list", "rep-list"])
def test_public_constructors_refuse_non_prime_moduli(make):
    with pytest.raises(ValueError, match="modulus"):
        make()


@pytest.mark.parametrize("name,p", [(name, p) for p in sorted(CONTEXTS)
                                    for name in CONTEXTS[p]])
def test_flat_len_counts_zero_morphism_coordinates(name, p):
    cat = CONTEXTS[p][name]
    rng = random.Random(p)
    objs = [cat.zero_object()] + [cat.sample_object(rng, 4) for _ in range(8)]
    for x in objs:
        for y in objs:
            expected = len(cat.mor_flat(cat.zero_morphism(x, y)))
            assert cat.flat_len(x, y) == expected
            assert CategoryInstance.flat_len(cat, x, y) == expected


def _row_sets(rng, p):
    """Seeded row sets of width 0 to 4: the empty set, a set with a zero
    row and a repeated row, and random ones."""
    yield 3, []
    yield 0, [[], []]
    yield 3, [[1, 2 % p, 0], [0, 0, 0], [1, 2 % p, 0]]
    for _ in range(40):
        n = rng.randrange(5)
        yield n, [[rng.randrange(p) for _ in range(n)]
                  for _ in range(rng.randrange(6))]


@pytest.mark.parametrize("p", (2, 3))
def test_from_rows_equals_the_checked_subspace(p):
    deficient = 0
    for n, rows in _row_sets(random.Random(p), p):
        s = Subspace.from_rows(n, p, rows)
        r = rref(Matrix.from_rows(rows, p, cols=n))
        checked = Subspace(n, Matrix.from_rows(
            [r.matrix.row(i) for i in range(r.rank)], p, cols=n))
        assert (s.basis, s.pivots) == (checked.basis, checked.pivots)
        assert s == checked and hash(s) == hash(checked)
        deficient += r.rank < len(rows)
    assert deficient


def _checked(n, p, rows):
    """The subspace spanned by rows, through the public constructors: the
    rows pass Matrix.from_rows and the basis passes Subspace's own check."""
    s = Subspace.from_rows(n, p, rows)
    return Subspace(n, Matrix(s.basis.rows, n, p, s.basis.entries))


def _null_space(a):
    """Every vector v with a v = 0, found by trying them all."""
    return [v for v in itertools.product(range(a.modulus), repeat=a.cols)
            if not any(sum(x * y for x, y in zip(a.row(i), v)) % a.modulus
                       for i in range(a.rows))]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_kernel_and_image_bases_equal_the_checked_subspace(p):
    """On random matrices of each shape up to 4x4, 0xn and nx0 included:
    the kernel against the span of the whole null space, the image
    against the span of the columns."""
    rng = random.Random(p)
    for r in range(5):
        for c in range(5):
            for _ in range(3):
                a = _random(rng, r, c, p)
                for got, want in (
                        (kernel_basis(a), _checked(c, p, _null_space(a))),
                        (image_basis(a), _checked(
                            r, p, [a.col(j) for j in range(c)]))):
                    assert (got.basis, got.pivots) == (want.basis, want.pivots)
                    assert got == want and hash(got) == hash(want)


def _equal_records() -> dict:
    """Pairs of equal records built apart, by class name: one pair per
    class that keeps its hash (Matrix, FinVect, Rep, FunctorSpec and the
    two glued categories), and one per record those hash inside (Budget,
    Quiver)."""
    def build():
        vect = FinVect(3, Budget(max_vectors=512))
        rep = Rep(Quiver(2, ((0, 1),)), 3)
        framing = rep.obj((1, 1), [Matrix.build(1, 1, 3, (1,))])
        return [Budget(max_vectors=512), vect, Quiver(2, ((0, 1),)), rep,
                identity_functor(vect), Matrix.build(1, 1, 3, (2,)),
                CommaCategory(identity_functor(vect), identity_functor(vect)),
                CoCommaCategory(identity_functor(vect),
                                hom_into(rep, framing, vect))]
    return {type(a).__name__: (a, b) for a, b in zip(build(), build())}


@pytest.mark.parametrize("first", (0, 1))
@pytest.mark.parametrize("name", sorted(_equal_records()))
def test_equal_records_hash_and_compare_equal(name, first):
    """Before either is hashed, after one is and after both are."""
    pair = _equal_records()[name]
    a, b = pair[first], pair[1 - first]
    assert a is not b and a == b
    fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
    h = hash(a)
    assert h == hash(fields) == hash(a)
    assert a == b and hash(b) == h
    assert {a: "cached"}[b] == "cached"
    # a kept hash does not travel: it may be another interpreter's
    object.__setattr__(a, "_hash", h + 1)
    restored = pickle.loads(pickle.dumps(a))
    assert restored == a and hash(restored) == h
