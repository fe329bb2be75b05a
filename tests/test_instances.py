"""FinVect and quiver representations: hom-space dimensions against
hand-solved commuting-square systems, subobject sweeps, and the toy
geometry validity rules."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.core import hom_dim, random_hom, verify_biproduct
from commacat.errors import ForeignMorphism
from commacat.instances import (
    ARROW_QUIVER,
    Budget,
    FinVect,
    Quiver,
    Rep,
    ToyGeometryConfig,
)
from commacat.linalg import BudgetExceeded, Matrix

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)

S0, S1 = REP.simples()
P0 = REP.projective(0)


def test_finvect_basics():
    assert VECT.class_vector(3) == (3,)
    assert VECT.simples() == (1,)
    assert VECT.is_zero_object(0)
    assert list(VECT.enumerate_objects(2)) == [0, 1, 2]


def test_finvect_kernel_cokernel_dims():
    m = random_hom(VECT, random.Random(3), 3, 2)
    assert m != VECT.zero_morphism(3, 2)
    k, kmor = VECT.kernel(m)
    c, cmor = VECT.cokernel(m)
    r = 3 - k
    assert c == 2 - r
    assert VECT.is_mono(kmor)
    assert VECT.is_epi(cmor)


def test_finvect_rejects_foreign_matrices():
    from commacat.core import Mor
    bad = Mor(1, 1, Matrix.identity(1, 3))
    with pytest.raises(ForeignMorphism):
        VECT.compose(bad, bad)


def test_quiver_rejects_cycles():
    for vertices, arrows in ((2, ((0, 1), (1, 0))), (1, ((0, 0),)),
                             (3, ((0, 1), (1, 2), (2, 0)))):
        with pytest.raises(ValueError, match="directed cycle"):
            Quiver(vertices, arrows)


def test_quiver_accepts_parallel_arrows():
    assert Quiver(3, ((0, 1), (0, 1), (1, 2))).arrows == ((0, 1), (0, 1), (1, 2))


def test_quiver_rejects_out_of_range_arrow():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 2),))


def test_rep_obj_validates_shapes():
    with pytest.raises(ValueError):
        REP.obj((1, 1), [Matrix.zero(2, 1, 2)])
    with pytest.raises(ValueError):
        REP.obj((1,), [Matrix.zero(1, 1, 2)])


def test_is_object_takes_exactly_the_objects_of_an_instance():
    rep3 = Rep(ARROW_QUIVER, 3)
    assert all(map(VECT.is_object, (0, 1, 5)))
    assert not any(map(VECT.is_object, (-1, True, 1.5, "1", P0)))
    assert all(map(REP.is_object, (REP.zero_object(), S0, S1, P0)))
    assert not any(map(REP.is_object, (
        2, rep3.projective(0), Rep(Quiver(3, ((0, 1),)), 2).simples()[0],
        dataclasses.replace(P0, dims=(1, -1)),
        dataclasses.replace(P0, dims=(1.0, 1)),
        dataclasses.replace(P0, maps=(Matrix.zero(2, 1, 2),)))))


def test_rep_obj_refuses_a_float_dimension():
    with pytest.raises(ValueError):
        REP.obj((1.5, 1), [Matrix.identity(1, 2)])


def test_projective_at_source():
    assert P0.dims == (1, 1)
    assert P0.maps[0].entries == (1,)
    assert REP.projective(1).dims == (0, 1)


# hand-solved: a map P0 -> X is a pair (phi0, phi1) with
# phi1 o arrow_P0 = arrow_X o phi0, and similarly for the others
HOM_DIMS = [
    (P0, S0, 1),
    (P0, S1, 0),
    (S1, P0, 1),
    (P0, P0, 1),
    (S0, P0, 0),
    (S0, S0, 1),
    (S1, S1, 1),
    (S0, S1, 0),
    (S1, S0, 0),
]


@pytest.mark.parametrize("x,y,expected", HOM_DIMS)
def test_rep_hom_dims_frozen(x, y, expected):
    assert hom_dim(REP, x, y) == expected


def test_rep_subobject_counts():
    # full rep (1,1) with identity arrow: 0, S1, whole
    assert len(REP.enumerate_subobjects(P0)) == 3
    # same dims with the zero arrow: S0 joins in
    loose = REP.obj((1, 1), [Matrix.zero(1, 1, 2)])
    assert len(REP.enumerate_subobjects(loose)) == 4


def test_rep_subobjects_are_monos_with_commuting_squares():
    x = REP.obj((2, 1), [Matrix.from_rows([[1, 0]], 2)])
    for s in REP.enumerate_subobjects(x):
        assert REP.is_mono(s.mono)
        assert s.mono.target == x


def test_rep_enumerate_objects_small_sweep():
    objs = list(REP.enumerate_objects(1))
    assert len(objs) == 3  # zero, S0, S1
    dims = sorted(o.dims for o in objs)
    assert dims == [(0, 0), (0, 1), (1, 0)]


def test_rep_enumerates_a_quiver_with_many_vertices():
    """Dimension vectors come from stars and bars, with no recursion per
    vertex, so a 1,200-vertex quiver enumerates its zero object."""
    zero = next(iter(Rep(Quiver(1200, ()), 2).enumerate_objects(0)))
    assert zero.dims == (0,) * 1200


def test_rep_refuses_more_dimension_vectors_than_the_budget():
    """C(1202, 2) dimension vectors of total <= 2 exceed the default
    budget, so the sweep refuses before its first object."""
    with pytest.raises(BudgetExceeded, match="dimension-vector sweep"):
        next(iter(Rep(Quiver(1200, ()), 2).enumerate_objects(2)))


@pytest.mark.parametrize("n", range(6))
def test_rep_enumerates_dimension_vectors_in_lexicographic_order(n):
    """Without arrows each dimension vector is one object.  They come by
    total, each total in lexicographic order: the order of the recursion
    over vertices that stars and bars replaced."""
    want = [v for total in range(7)
            for v in itertools.product(range(total + 1), repeat=n)
            if sum(v) == total]
    rep = Rep(Quiver(n, ()), 2)
    assert [x.dims for x in rep.enumerate_objects(6)] == want


def test_rep_class_vector_is_dimension_vector():
    assert REP.class_vector(P0) == (1, 1)
    assert REP.class_vector(REP.zero_object()) == (0, 0)


def test_rep_biproduct():
    rng = random.Random(11)
    x = REP.sample_object(rng, 2)
    y = REP.sample_object(rng, 2)
    s, _, _ = REP.biproduct(x, y)
    assert s.dims == tuple(a + b for a, b in zip(x.dims, y.dims))
    assert verify_biproduct(REP, x, y) == []


def test_rep_mono_epi_via_vertexwise_rank():
    incl = REP.mor(S1, P0, [Matrix.zero(1, 0, 2), Matrix.identity(1, 2)])
    assert REP.is_mono(incl)
    assert not REP.is_epi(incl)


def test_rep_mor_rejects_non_commuting_square():
    # phi1 o arrow = arrow o phi0 fails for phi = (id, 0) on P0
    with pytest.raises(ValueError):
        REP.mor(P0, P0, [Matrix.identity(1, 2), Matrix.zero(1, 1, 2)])


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_rep_sample_object_is_well_formed(seed):
    x = REP.sample_object(random.Random(seed), 4)
    assert sum(x.dims) <= 4
    REP.obj(x.dims, x.maps)  # re-validates shapes


def test_budget_stops_huge_sweeps():
    tiny = Rep(ARROW_QUIVER, 2, Budget(max_vectors=4))
    with pytest.raises(BudgetExceeded):
        list(tiny.enumerate_objects(4))


# -- toy geometry --------------------------------------------------------


def test_default_geometries():
    g = ToyGeometryConfig.default_coherent()
    assert (g.deg, g.rk, g.dim_gamma) == ((-1, 1), (1, 0), (1,))
    h = ToyGeometryConfig.scan_coherent()
    assert h.rk == (1, 1)


def test_geometry_validity_rules():
    with pytest.raises(ValueError):
        ToyGeometryConfig(deg=(1,), rk=(-1,))
    with pytest.raises(ValueError):
        # rank zero forces positive degree
        ToyGeometryConfig(deg=(0,), rk=(0,))
    with pytest.raises(ValueError):
        ToyGeometryConfig(deg=(1, 1), rk=(1,))
    ToyGeometryConfig(deg=(5,), rk=(0,))  # fine


def test_geometry_scaling():
    g = ToyGeometryConfig.scan_coherent().scaled(3)
    assert g.deg == (-3, 3)
    assert g.rk == (3, 3)
    assert g.dim_gamma == (3,)
    with pytest.raises(ValueError):
        ToyGeometryConfig.scan_coherent().scaled(0)
