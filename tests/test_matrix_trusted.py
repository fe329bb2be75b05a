"""Arithmetic builds its Matrix results without re-running the checks of
the public constructors.  Every such result must still pass those checks,
and the public constructors must still refuse bad input.  Also: each
instance's flat_len agrees with counting the coordinates of a zero
morphism, the default it replaces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.core import CategoryInstance
from commacat.linalg import (
    Matrix,
    ShapeError,
    block_diag,
    hstack,
    kernel_basis,
    kron,
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
           vstack([a, _random(rng, k, c, p)]), block_diag([a, right]), kron(a, right),
           rref(a).matrix, kernel_basis(a).basis]
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
    lambda: Matrix(1, 1, 4, (0,)),
    lambda: Matrix.build(1, 1, 1, (0,)),
    lambda: Matrix.from_rows([[1]], 6),
    lambda: Matrix.zero(1, 1, 9),
    lambda: Matrix.identity(2, 2 ** 31),
], ids=["checked", "build", "from-rows", "zero", "identity"])
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
