"""The covariant triple construction: square validation at build time,
abelian structure with certified universal properties, and the frozen
subobject counts for the arrow instance."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.comma import CommaCategory, component_sequences, verify_comma_abelian
from commacat.core import (
    Mor,
    random_hom,
    subobject_ses,
    verify_biproduct,
    verify_cokernel_universal,
    verify_induced_iso,
    verify_kernel_universal,
    verify_ses,
)
from commacat.errors import CapabilityError, ExactnessViolation
from commacat.functors import (
    arrow_cokernel,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix

VECT = FinVect(2)
ARROW = CommaCategory(identity_functor(VECT), identity_functor(VECT))

seeds = st.integers(0, 10 ** 6)


def vmor(src, tgt, rows):
    return Mor(src, tgt, Matrix.from_rows(rows, 2, cols=src))


def triple(a, b, rows):
    return ARROW.obj(a, b, vmor(a, b, rows))


IDENTITY_MAP = triple(1, 1, [[1]])
ZERO_MAP = triple(1, 1, [[0]])


def test_is_object_takes_exactly_the_triples_of_the_construction():
    from commacat.cocomma import CoCommaObject
    assert ARROW.is_object(IDENTITY_MAP) and ARROW.is_object(ZERO_MAP)
    assert not any(map(ARROW.is_object, (
        1, CoCommaObject(1, 1, IDENTITY_MAP.alpha),
        dataclasses.replace(IDENTITY_MAP, a=-1),
        dataclasses.replace(IDENTITY_MAP, alpha=vmor(1, 2, [[1], [0]])))))
    with pytest.raises(ValueError):
        ARROW.obj(-1, 0, Mor(-1, 0, Matrix.zero(0, 0, 2)))


def test_rejects_contravariant_legs():
    with pytest.raises(ValueError):
        CommaCategory(identity_functor(VECT), hom_into(VECT, 1, VECT))


def test_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        CommaCategory(identity_functor(VECT), identity_functor(FinVect(3)))


def test_obj_validates_structure_map_endpoints():
    with pytest.raises(ValueError):
        ARROW.obj(1, 1, vmor(1, 2, [[1], [0]]))


def test_mor_validates_the_square():
    # (f, g) = (id, 0) around alpha = id: g alpha = 0 but alpha f = id
    with pytest.raises(ValueError):
        ARROW.mor(IDENTITY_MAP, IDENTITY_MAP, vmor(1, 1, [[1]]),
                  vmor(1, 1, [[0]]))


def test_mor_validates_component_endpoints():
    with pytest.raises(ValueError):
        ARROW.mor(IDENTITY_MAP, ZERO_MAP, vmor(1, 2, [[1], [0]]),
                  vmor(1, 1, [[0]]))


def test_abelian_capability_flags():
    assert ARROW.abelian_capable
    guarded = CommaCategory(hom_from(VECT, 1, VECT), identity_functor(VECT))
    # hom_from on vector spaces is exact, but its declaration only
    # claims left exactness, so the left leg fails the requirement
    assert not guarded.abelian_capable
    with pytest.raises(CapabilityError):
        guarded.kernel(guarded.identity(guarded.zero_object()))


def test_assume_abelian_opens_the_interface():
    probed = CommaCategory(hom_from(VECT, 1, VECT), identity_functor(VECT),
                           assume_abelian=True)
    z = probed.zero_object()
    kobj, _ = probed.kernel(probed.identity(z))
    assert probed.is_zero_object(kobj)


def test_kernel_and_cokernel_carriers():
    m = ARROW.mor(ZERO_MAP, ZERO_MAP, vmor(1, 1, [[1]]), vmor(1, 1, [[0]]))
    kobj, kmor = ARROW.kernel(m)
    assert (kobj.a, kobj.b) == (0, 1)
    cobj, cmor = ARROW.cokernel(m)
    assert (cobj.a, cobj.b) == (0, 1)
    rng = random.Random(0)
    assert verify_kernel_universal(ARROW, m, kobj, kmor, rng) == []
    assert verify_cokernel_universal(ARROW, m, cobj, cmor, rng) == []


def test_subobject_count_identity_map():
    assert len(ARROW.enumerate_subobjects(IDENTITY_MAP)) == 3


def test_subobject_count_zero_map():
    assert len(ARROW.enumerate_subobjects(ZERO_MAP)) == 4


def test_subobjects_respect_the_structure_map():
    for s in ARROW.enumerate_subobjects(IDENTITY_MAP):
        # alpha must carry the left part into the right part
        assert ARROW.is_mono(s.mono)
        ses = subobject_ses(ARROW, s)
        assert verify_ses(ARROW, ses.sub, ses.quot) == []


def test_component_sequences_split_a_triple_ses():
    s = next(s for s in ARROW.enumerate_subobjects(ZERO_MAP)
             if (s.obj.a, s.obj.b) == (0, 1))
    ses = subobject_ses(ARROW, s)
    left, right = component_sequences(ARROW, ses)
    assert verify_ses(ARROW.left, left.sub, left.quot) == []
    assert verify_ses(ARROW.right, right.sub, right.quot) == []
    assert left.sub.source == 0 and right.sub.source == 1


def test_biproduct_of_triples():
    s, _, _ = ARROW.biproduct(IDENTITY_MAP, ZERO_MAP)
    assert (s.a, s.b) == (2, 2)
    assert verify_biproduct(ARROW, IDENTITY_MAP, ZERO_MAP) == []


# A workspace may declare flags a functor does not have.  The constructions
# whose square rests on a flag check that square and refuse, instead of
# returning a pair that is not a morphism.

def test_biproduct_refuses_a_non_additive_leg():
    shift = dataclasses.replace(one_plus(VECT), left_exact=True)
    cat = CommaCategory(identity_functor(VECT), shift)
    with pytest.raises(ExactnessViolation,
                       match="^biproduct: structure square does not commute"):
        cat.biproduct(cat.zero_object(), cat.obj(1, 0, vmor(1, 1, [[1]])))


def test_factorization_refuses_a_leg_declared_left_exact_falsely():
    rep = Rep(ARROW_QUIVER, 2)
    coker = dataclasses.replace(arrow_cokernel(rep, 0, VECT), left_exact=True)
    cat = CommaCategory(identity_functor(VECT), coker)
    assert cat.abelian_capable and cat.additive
    point = rep.obj((0, 1), [Matrix.build(1, 0, 2, ())])   # cokernel k
    line = rep.obj((1, 1), [Matrix.build(1, 1, 2, (1,))])  # cokernel 0
    g = rep.mor(point, line, [Matrix.zero(1, 0, 2), Matrix.identity(1, 2)])
    s = cat.obj(1, point, vmor(1, 1, [[1]]))
    t = cat.obj(1, point, vmor(1, 1, [[0]]))
    y = cat.obj(1, line, Mor(1, 0, Matrix.zero(0, 1, 2)))
    mono = cat.mor(s, y, VECT.identity(1), g)
    m = cat.mor(t, y, VECT.identity(1), g)
    assert cat.is_mono(mono)
    # the unique component factorizations are the identities, whose square
    # from t to s fails: the cokernel of g is not mono, so nothing factors
    assert cat.factor_through_mono(mono, m) is None


def test_class_vector_concatenates():
    assert ARROW.class_vector(IDENTITY_MAP) == (1, 1)
    assert ARROW.class_rank == 2


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_universal_properties_on_random_morphisms(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 3)
    y = ARROW.sample_object(rng, 3)
    m = random_hom(ARROW, rng, x, y)
    kobj, kmor = ARROW.kernel(m)
    assert verify_kernel_universal(ARROW, m, kobj, kmor, rng) == []
    cobj, cmor = ARROW.cokernel(m)
    assert verify_cokernel_universal(ARROW, m, cobj, cmor, rng) == []
    assert verify_induced_iso(ARROW, m) == []


@settings(deadline=None, max_examples=15)
@given(seeds)
def test_kernel_components_match_componentwise_kernels(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 3)
    y = ARROW.sample_object(rng, 3)
    m = random_hom(ARROW, rng, x, y)
    f, g = m.data
    kobj, _ = ARROW.kernel(m)
    assert kobj.a == ARROW.left.kernel(f)[0]
    assert kobj.b == ARROW.right.kernel(g)[0]


def test_mixed_instance_context():
    """Left leg tensor on vector spaces, right leg a hom functor out of
    representations; kernels still certify."""
    rep = Rep(ARROW_QUIVER, 2)
    cat = CommaCategory(tensor(VECT, 2), hom_from(rep, rep.projective(0), VECT,),
                        assume_abelian=True)
    rng = random.Random(4)
    for _ in range(10):
        x = cat.sample_object(rng, 3)
        y = cat.sample_object(rng, 3)
        m = random_hom(cat, rng, x, y)
        kobj, kmor = cat.kernel(m)
        assert verify_kernel_universal(cat, m, kobj, kmor, rng) == []


def test_verify_comma_abelian_clean_on_the_arrow_instance():
    report = verify_comma_abelian(ARROW, samples=10)
    assert report.violations == ()
    assert report.checked > 0
