"""The dual-leg construction: left components run backwards, kernels
swap their carriers, and a one-dimensional marked line turns the square
condition into framing intertwining."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.cocomma import CoCommaCategory
from commacat.comma import component_sequences, verify_comma_abelian
from commacat.core import (
    Mor,
    all_homs,
    random_hom,
    subobject_ses,
    verify_biproduct,
    verify_cokernel_universal,
    verify_induced_iso,
    verify_kernel_universal,
    verify_ses,
)
from commacat.errors import CapabilityError
from commacat.functors import (
    apply_on_morphism,
    apply_on_object,
    hom_from,
    hom_into,
    identity_functor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.kgroup import decompose
from commacat.linalg import Matrix

VECT = FinVect(2)
DUAL = hom_into(VECT, 1, VECT)
CAT = CoCommaCategory(identity_functor(VECT), DUAL)

seeds = st.integers(0, 10 ** 6)


def vmor(src, tgt, rows):
    return Mor(src, tgt, Matrix.from_rows(rows, 2, cols=src))


def marked(a, b, rows):
    return CAT.obj(a, b, vmor(a, apply_on_object(DUAL, b), rows))


MARKED_LINE = marked(1, 1, [[1]])
LOOSE_LINE = marked(1, 1, [[0]])


def test_needs_a_contravariant_right_leg():
    with pytest.raises(ValueError):
        CoCommaCategory(identity_functor(VECT), identity_functor(VECT))


def test_needs_a_covariant_left_leg():
    with pytest.raises(ValueError):
        CoCommaCategory(DUAL, DUAL)


def test_mor_left_component_runs_backwards():
    # endpoints as in the covariant construction must be rejected
    with pytest.raises(ValueError):
        CAT.mor(marked(2, 1, [[0, 0]]), MARKED_LINE,
                vmor(2, 1, [[1, 0]]), vmor(1, 1, [[1]]))


def test_composition_reverses_left_components():
    x = marked(1, 1, [[0]])
    y = marked(2, 1, [[0, 0]])
    z = marked(2, 2, [[0, 0], [0, 0]])
    f1, g1 = vmor(2, 1, [[1, 0]]), vmor(1, 1, [[0]])
    f2, g2 = vmor(2, 2, [[1, 0], [0, 1]]), vmor(1, 2, [[0], [0]])
    m1 = CAT.mor(x, y, f1, g1)
    m2 = CAT.mor(y, z, f2, g2)
    out = CAT.compose(m2, m1)
    assert out.data[0] == VECT.compose(f1, f2)
    assert out.data[1] == VECT.compose(g2, g1)


def test_kernel_carrier_swaps_sides():
    x = marked(2, 1, [[0, 0]])
    y = marked(1, 2, [[0], [0]])
    f = vmor(1, 2, [[1], [0]])   # y.a -> x.a, mono not epi
    g = vmor(1, 2, [[1], [0]])   # x.b -> y.b, mono
    m = CAT.mor(x, y, f, g)
    kobj, kmor = CAT.kernel(m)
    assert (kobj.a, kobj.b) == (1, 0)    # (coker f, ker g)
    cobj, cmor = CAT.cokernel(m)
    assert (cobj.a, cobj.b) == (0, 1)    # (ker f, coker g)
    rng = random.Random(0)
    assert verify_kernel_universal(CAT, m, kobj, kmor, rng) == []
    assert verify_cokernel_universal(CAT, m, cobj, cmor, rng) == []


def test_subobject_count_swaps_against_the_covariant_case():
    assert len(CAT.enumerate_subobjects(LOOSE_LINE)) == 4
    assert len(CAT.enumerate_subobjects(MARKED_LINE)) == 3


def test_mono_iff_left_epi_and_right_mono():
    checked = 0
    for x in CAT.enumerate_objects(2):
        for y in CAT.enumerate_objects(2):
            for m in all_homs(CAT, x, y, max_count=512):
                f, g = m.data
                want = CAT.left.is_epi(f) and CAT.right.is_mono(g)
                assert CAT.is_mono(m) == want
                checked += 1
    assert checked > 100


def test_framing_must_be_intertwined_when_the_line_is_fixed():
    """With both marked lines one-dimensional and f = id, the square
    degenerates to phi_x = G(g) o phi_y: g must carry one framing to the
    other."""
    gb = apply_on_object(DUAL, 2)
    phi_y = Mor(1, gb, Matrix.from_rows([[1], [0]], 2))
    g = vmor(2, 2, [[0, 1], [1, 0]])
    pulled = VECT.compose(apply_on_morphism(DUAL, g), phi_y)
    x = CAT.obj(1, 2, pulled)
    y = CAT.obj(1, 2, phi_y)
    m = CAT.mor(x, y, VECT.identity(1), g)
    assert m.data[1] == g
    off_frame = Mor(1, gb, Matrix.from_rows([[1], [1]], 2))
    assert off_frame != pulled
    with pytest.raises(ValueError):
        CAT.mor(CAT.obj(1, 2, off_frame), y, VECT.identity(1), g)


def test_abelian_capability_gate():
    assert CAT.abelian_capable
    guarded = CoCommaCategory(hom_from(VECT, 1, VECT), DUAL)
    assert not guarded.abelian_capable
    with pytest.raises(CapabilityError):
        guarded.kernel(guarded.identity(guarded.zero_object()))


def test_class_vector_concatenates():
    assert CAT.class_vector(marked(2, 1, [[0, 0]])) == (2, 1)


def test_decompose_swaps_the_witness_roles():
    a_cls, b_cls, witness = decompose(CAT, marked(2, 1, [[0, 0]]))
    assert a_cls == (2,)
    assert b_cls == (1,)
    # the a-side triple embeds here, unlike the covariant construction
    assert witness.sub.source.a == 2
    assert witness.sub.source.b == 0


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_universal_properties_on_random_morphisms(seed):
    rng = random.Random(seed)
    x = CAT.sample_object(rng, 3)
    y = CAT.sample_object(rng, 3)
    m = random_hom(CAT, rng, x, y)
    kobj, kmor = CAT.kernel(m)
    assert verify_kernel_universal(CAT, m, kobj, kmor, rng) == []
    cobj, cmor = CAT.cokernel(m)
    assert verify_cokernel_universal(CAT, m, cobj, cmor, rng) == []
    assert verify_induced_iso(CAT, m) == []


@settings(deadline=None, max_examples=10)
@given(seeds)
def test_kernel_components_are_componentwise(seed):
    rng = random.Random(seed)
    x = CAT.sample_object(rng, 3)
    y = CAT.sample_object(rng, 3)
    m = random_hom(CAT, rng, x, y)
    f, g = m.data
    kobj, _ = CAT.kernel(m)
    assert kobj.a == CAT.left.cokernel(f)[0]
    assert kobj.b == CAT.right.kernel(g)[0]


def test_biproduct():
    assert verify_biproduct(CAT, MARKED_LINE, LOOSE_LINE) == []


def test_verify_cocomma_abelian_clean():
    report = verify_comma_abelian(CAT, samples=8)
    assert report.violations == ()


@pytest.mark.parametrize("p, max_dim", ((2, 3), (3, 2)))
@pytest.mark.parametrize("leg", ("dual", "framed"))
def test_component_sequences_reverse_the_left_sequence(p, max_dim, leg):
    """A subobject sequence 0 -> S -> M -> Q -> 0 of triples splits into
    0 -> Q.a -> M.a -> S.a -> 0 on the left and 0 -> S.b -> M.b -> Q.b -> 0
    on the right, both short exact."""
    vect = FinVect(p)
    if leg == "dual":
        g = hom_into(vect, 1, vect)
    else:
        rep = Rep(ARROW_QUIVER, p)
        g = hom_into(rep, rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))]), vect)
    cat = CoCommaCategory(identity_functor(vect), g)
    for x in cat.enumerate_objects(max_dim):
        for s in cat.enumerate_subobjects(x):
            ses = subobject_ses(cat, s)
            left, right = component_sequences(cat, ses)
            assert (left.sub, left.quot) == (ses.quot.data[0], ses.sub.data[0])
            assert verify_ses(cat.left, left.sub, left.quot) == []
            assert (right.sub, right.quot) == (ses.sub.data[1], ses.quot.data[1])
            assert verify_ses(cat.right, right.sub, right.quot) == []
