"""Class vectors, additivity, the induced map on classes, and the
two-component decomposition with its verified witness sequence."""

import random

from commacat.comma import CommaCategory
from commacat.core import random_hom, subobject_ses, verify_ses
from commacat.functors import hom_from, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.kgroup import (
    AdditiveAssignment,
    apply_induced,
    cls,
    decompose,
    induced_hom,
    verify_additivity,
    verify_factorization,
)
from commacat.linalg import Matrix

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)
ARROW = CommaCategory(identity_functor(VECT), identity_functor(VECT))


def toy_system_context():
    """Marked sections mapping into global sections of a sheaf stand-in."""
    probe = REP.projective(0)
    return CommaCategory(identity_functor(VECT), hom_from(REP, probe, VECT),
                         assume_abelian=True)


def test_cls_of_zero_is_the_zero_vector():
    assert cls(VECT, 0) == (0,)
    assert cls(REP, REP.zero_object()) == (0, 0)
    assert cls(ARROW, ARROW.zero_object()) == (0, 0)


def test_cls_of_the_identity_triple():
    x = ARROW.obj(1, 1, VECT.identity(1))
    assert cls(ARROW, x) == (1, 1)


def test_cls_of_the_toy_system():
    cat = toy_system_context()
    bundle = REP.projective(0)   # dimension vector (1, 1)
    # sections space k, any structure map at all
    hom_dim_there = len(VECT.hom_basis(1, 1))
    assert hom_dim_there == 1
    from commacat.core import Mor
    sigma = Mor(1, 1, Matrix.from_rows([[1]], 2))
    system = cat.obj(1, bundle, sigma)
    assert cls(cat, system) == (1, 1, 1)


def test_cls_ignores_the_structure_map():
    rng = random.Random(13)
    base = ARROW.obj(2, 2, VECT.zero_morphism(2, 2))
    want = cls(ARROW, base)
    for _ in range(100):
        alpha = random_hom(VECT, rng, 2, 2)
        assert cls(ARROW, ARROW.obj(2, 2, alpha)) == want


def test_dim_assignment_induces_coordinate_sum():
    a = AdditiveAssignment(simple_values=((1,),))
    assert induced_hom(a) == ((1,),)
    assert apply_induced(a, (5,)) == (5,)


def test_degree_assignment_on_the_arrow_quiver():
    # degree functional of the default toy geometry, valued on the two
    # vertex simples
    a = AdditiveAssignment(simple_values=((-1,), (1,)))
    assert induced_hom(a) == ((-1,), (1,))
    assert apply_induced(a, (2, 3)) == (1,)
    assert apply_induced(a, cls(REP, REP.projective(0))) == (0,)


def test_additivity_over_collected_sequences():
    log = [subobject_ses(ARROW, s) for x in ARROW.enumerate_objects(4)
           if not ARROW.is_zero_object(x)
           for s in ARROW.enumerate_subobjects(x)]
    assert len(log) >= 200
    report = verify_additivity(ARROW, log)
    assert report.clean
    assert report.checked == len(log)


def test_additivity_accepts_bare_sequences_with_cat():
    seqs = [subobject_ses(REP, s)
            for s in REP.enumerate_subobjects(REP.projective(0))]
    report = verify_additivity(REP, seqs)
    assert report.clean


def test_additivity_flags_a_corrupted_sequence():
    from commacat.core import ShortExactSequence
    good = subobject_ses(VECT, VECT.enumerate_subobjects(2)[1])
    broken = ShortExactSequence(good.sub, VECT.identity(2))
    report = verify_additivity(VECT, [broken])
    assert not report.clean


def test_additivity_under_an_assignment():
    """With an assignment the evaluated function is the induced map on
    classes, here the degree d2 - d1 on the arrow quiver."""
    degree = AdditiveAssignment(simple_values=((-1,), (1,)))
    seqs = [subobject_ses(REP, s)
            for s in REP.enumerate_subobjects(REP.projective(0))]
    report = verify_additivity(REP, seqs, degree)
    assert report.clean and report.checked == len(seqs)
    from commacat.core import ShortExactSequence
    broken = ShortExactSequence(seqs[1].sub, REP.identity(REP.projective(0)))
    (where, lhs, rhs), = verify_additivity(REP, [broken], degree).violations
    assert lhs == apply_induced(degree, cls(REP, REP.projective(0)))
    assert lhs != rhs


def test_decompose_zero():
    a_cls, b_cls, witness = decompose(ARROW, ARROW.zero_object())
    assert a_cls == (0,) and b_cls == (0,)
    assert verify_ses(ARROW, witness.sub, witness.quot) == []


def test_decompose_identity_triple():
    x = ARROW.obj(1, 1, VECT.identity(1))
    a_cls, b_cls, witness = decompose(ARROW, x)
    assert (a_cls, b_cls) == ((1,), (1,))
    assert verify_ses(ARROW, witness.sub, witness.quot) == []
    # the right component embeds, the left component quotients
    assert witness.sub.source.a == 0 and witness.sub.source.b == 1
    assert witness.quot.target.a == 1 and witness.quot.target.b == 0


def test_decompose_toy_system():
    cat = toy_system_context()
    bundle = REP.projective(0)
    from commacat.core import Mor
    sigma = Mor(2, 1, Matrix.from_rows([[1, 0]], 2))
    system = cat.obj(2, bundle, sigma)
    a_cls, b_cls, witness = decompose(cat, system)
    assert (a_cls, b_cls) == ((2,), (1, 1))
    assert verify_ses(cat, witness.sub, witness.quot) == []


def test_decompose_witness_verifies_on_samples():
    rng = random.Random(99)
    for _ in range(25):
        x = ARROW.sample_object(rng, 4)
        a_cls, b_cls, witness = decompose(ARROW, x)
        assert tuple(a_cls) + tuple(b_cls) == cls(ARROW, x)
        assert verify_ses(ARROW, witness.sub, witness.quot) == []


def test_factorization_through_classes():
    # direct evaluation must agree with the induced map on class vectors
    deg = AdditiveAssignment(
        simple_values=((-1,), (1,)),
        direct=lambda x: (x.dims[1] - x.dims[0],))
    rng = random.Random(21)
    objs = [REP.sample_object(rng, 4) for _ in range(100)]
    report = verify_factorization(REP, deg, objs)
    assert report.clean
    assert report.checked == 100


def test_factorization_on_triples():
    total_dim = AdditiveAssignment(
        simple_values=((1,), (1,)),
        direct=lambda x: (x.a + x.b,))
    rng = random.Random(22)
    objs = [ARROW.sample_object(rng, 4) for _ in range(100)]
    report = verify_factorization(ARROW, total_dim, objs)
    assert report.clean
