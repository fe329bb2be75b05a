"""Functor application and the exactness checker.

The interesting cases are the dishonest declarations: a functor whose
flags overstate its behaviour must be caught, and the stock hom functors
must witness exactly the violations their flags admit to."""

import random

import dataclasses
import pytest

from commacat.core import Mor, random_hom, short_exact
from commacat.functors import (
    KINDS,
    FunctorSpec,
    apply_on_morphism,
    apply_on_object,
    arrow_cokernel,
    arrow_kernel,
    check_functor,
    constant,
    eval_vertex,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
    zero_functor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)
S0, S1 = REP.simples()
P0 = REP.projective(0)


def projective_cover_ses():
    """0 -> S1 -> P0 -> S0 -> 0, the sequence that separates the vertex
    functors by exactness."""
    incl = REP.mor(S1, P0, [Matrix.zero(1, 0, 2), Matrix.identity(1, 2)])
    proj = REP.mor(P0, S0, [Matrix.identity(1, 2), Matrix.zero(0, 1, 2)])
    return short_exact(REP, incl, proj)


def test_identity_and_zero_are_clean():
    for f in (identity_functor(VECT), zero_functor(REP, VECT)):
        report = check_functor(f, samples=10)
        assert report.flag_mismatches == ()
        assert report.laws.violations == ()


def test_tensor_preserves_composition():
    f = tensor(VECT, 2)
    rng = random.Random(7)
    m1 = random_hom(VECT, rng, 2, 3)
    m2 = random_hom(VECT, rng, 3, 1)
    lhs = apply_on_morphism(f, VECT.compose(m2, m1))
    rhs = VECT.compose(apply_on_morphism(f, m2), apply_on_morphism(f, m1))
    assert lhs == rhs
    assert apply_on_object(f, 3) == 6


def test_eval_vertex_picks_the_dimension():
    f = eval_vertex(REP, 1, VECT)
    assert apply_on_object(f, P0) == 1
    assert apply_on_object(f, S0) == 0
    report = check_functor(f, samples=12)
    assert report.flag_mismatches == ()
    assert report.left_exact.violations == ()
    assert report.right_exact.violations == ()


def test_hom_from_projective_is_exact():
    # P0 is projective, so Hom(P0, -) keeps surjections surjective
    f = hom_from(REP, P0, VECT)
    honest = dataclasses.replace(f, right_exact=True)
    report = check_functor(honest, samples=16,
                           extra_ses=[projective_cover_ses()])
    assert report.flag_mismatches == ()
    assert report.right_exact.violations == ()


def test_hom_from_simple_witnesses_right_exactness_failure():
    f = hom_from(REP, S0, VECT)
    report = check_functor(f, samples=16,
                           extra_ses=[projective_cover_ses()])
    # declared not right exact, and the checker must actually see it fail
    assert not f.right_exact
    assert report.right_exact.violations != ()
    assert report.flag_mismatches == ()
    assert report.left_exact.violations == ()


def test_hom_from_simple_matches_arrow_kernel_on_objects():
    hf = hom_from(REP, S0, VECT)
    ak = arrow_kernel(REP, 0, VECT)
    rng = random.Random(2)
    for _ in range(15):
        x = REP.sample_object(rng, 4)
        assert apply_on_object(hf, x) == apply_on_object(ak, x)


def test_hom_from_sink_simple_matches_vertex_evaluation():
    hf = hom_from(REP, S1, VECT)
    ev = eval_vertex(REP, 1, VECT)
    rng = random.Random(3)
    for _ in range(15):
        x = REP.sample_object(rng, 4)
        assert apply_on_object(hf, x) == apply_on_object(ev, x)


def test_arrow_cokernel_left_exactness_fails_honestly():
    f = arrow_cokernel(REP, 0, VECT)
    report = check_functor(f, samples=16,
                           extra_ses=[projective_cover_ses()])
    assert report.left_exact.violations != ()
    assert report.flag_mismatches == ()


def test_overdeclared_flag_is_caught():
    lying = dataclasses.replace(arrow_cokernel(REP, 0, VECT), left_exact=True)
    report = check_functor(lying, samples=16)
    assert report.flag_mismatches != ()


def test_hom_into_is_contravariant():
    g = hom_into(VECT, 1, VECT)
    rng = random.Random(5)
    m1 = random_hom(VECT, rng, 2, 3)
    m2 = random_hom(VECT, rng, 3, 2)
    # images compose in the reverse order
    lhs = apply_on_morphism(g, VECT.compose(m2, m1))
    rhs = VECT.compose(apply_on_morphism(g, m1), apply_on_morphism(g, m2))
    assert lhs == rhs
    fm = apply_on_morphism(g, m1)
    assert fm.source == apply_on_object(g, 3)
    assert fm.target == apply_on_object(g, 2)


def test_hom_into_duality_dimensions():
    g = hom_into(VECT, 1, VECT)
    assert apply_on_object(g, 4) == 4
    report = check_functor(g, samples=12)
    assert report.flag_mismatches == ()
    assert report.left_exact.violations == ()
    assert report.right_exact.violations == ()


def test_hom_into_rep_loses_output_right_exactness():
    g = hom_into(REP, P0, VECT)
    assert g.contravariant
    assert g.left_exact and not g.right_exact
    report = check_functor(g, samples=16,
                           extra_ses=[projective_cover_ses()])
    assert report.flag_mismatches == ()


def test_one_plus_breaks_everything_it_declares_broken():
    f = one_plus(VECT)
    assert not f.additive
    report = check_functor(f, samples=16)
    assert report.additivity.violations != ()
    assert report.right_exact.violations != ()
    assert report.flag_mismatches == ()
    # composition and identity laws still hold
    assert report.laws.violations == ()


def test_constant_functor_flags_depend_on_the_value():
    triv = constant(REP, VECT, 0)
    assert triv.additive and triv.left_exact
    stuck = constant(REP, VECT, 2)
    assert not stuck.additive
    report = check_functor(stuck, samples=12)
    assert report.flag_mismatches == ()
    assert report.additivity.violations != ()


def _one_of_each_kind():
    specs = [identity_functor(VECT), zero_functor(REP, VECT),
             hom_from(REP, P0, VECT), hom_into(REP, P0, VECT),
             eval_vertex(REP, 0, VECT), arrow_kernel(REP, 0, VECT),
             arrow_cokernel(REP, 0, VECT), tensor(VECT, 2), one_plus(VECT),
             constant(VECT, VECT, 0), constant(VECT, VECT, 1)]
    assert {f.kind for f in specs} == set(KINDS)
    return specs


def test_additivity_follows_the_kind():
    for f in _one_of_each_kind():
        observed = check_functor(f, seed=0).additivity.clean
        assert f.additive == observed, (f.kind, f.params)
    assert "additive" not in {fl.name for fl in dataclasses.fields(FunctorSpec)}


def test_variance_follows_the_kind():
    for f in _one_of_each_kind():
        assert f.contravariant == (f.kind == "hom_into"), f.kind
    assert "contravariant" not in {fl.name for fl in dataclasses.fields(FunctorSpec)}
    # a covariant kind cannot be declared contravariant, nor hom_into
    # covariant
    with pytest.raises(TypeError):
        FunctorSpec("identity", VECT, VECT, contravariant=True)
    with pytest.raises(TypeError):
        dataclasses.replace(hom_into(VECT, 1, VECT), contravariant=False)


def test_functor_images_are_valid_morphisms():
    g = hom_into(REP, P0, VECT)
    rng = random.Random(8)
    for _ in range(10):
        x = REP.sample_object(rng, 3)
        y = REP.sample_object(rng, 3)
        m = random_hom(REP, rng, x, y)
        fm = apply_on_morphism(g, m)
        assert (fm.source, fm.target) == (apply_on_object(g, y),
                                          apply_on_object(g, x))


# specs that break a kind rule, however they are built
BROKEN_SPECS = {
    "identity-into-another-category": lambda: FunctorSpec("identity", REP, VECT),
    "vertex-out-of-range": lambda: FunctorSpec("eval_vertex", REP, VECT,
                                               params=(7,)),
    "tensor-without-its-dim": lambda: FunctorSpec("tensor", VECT, VECT),
    "vertex-a-bool": lambda: dataclasses.replace(eval_vertex(REP, 0, VECT),
                                                 params=(True,)),
    "dim-a-float": lambda: dataclasses.replace(tensor(VECT, 2),
                                               params=(2.0,)),
}


@pytest.mark.parametrize("case", sorted(BROKEN_SPECS))
def test_functor_spec_refuses_a_broken_kind_rule(case):
    with pytest.raises(ValueError):
        BROKEN_SPECS[case]()


# object parameters that are not objects of the category the kind names
FOREIGN_OBJECTS = {
    "constant-negative-dim": lambda: constant(VECT, VECT, -1),
    "constant-a-bool": lambda: constant(VECT, VECT, True),
    "constant-a-rep-object-into-finvect": lambda: constant(REP, VECT, P0),
    "hom-from-a-float": lambda: hom_from(VECT, 1.5, VECT),
    "hom-into-an-int-on-rep": lambda: hom_into(REP, 3, VECT),
    "hom-from-a-short-dimension-vector": lambda: dataclasses.replace(
        hom_from(REP, P0, VECT), params=(Rep(ARROW_QUIVER, 3).projective(0),)),
    "hom-into-the-wrong-field": lambda: hom_into(
        REP, Rep(ARROW_QUIVER, 3).projective(0), VECT),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_OBJECTS))
def test_functor_spec_refuses_an_object_of_another_category(case):
    with pytest.raises(ValueError, match="must be an object of the"):
        FOREIGN_OBJECTS[case]()


def test_an_object_parameter_keeps_its_fields_and_hash():
    """The object check only refuses: a valid spec holds the object it
    was given, and the spec built field by field equals it and hashes
    alike."""
    for f, obj in ((hom_from(REP, P0, VECT), P0), (hom_into(VECT, 2, VECT), 2),
                   (constant(REP, VECT, 0), 0), (constant(VECT, REP, S1), S1)):
        assert f.params == (obj,)
        same = FunctorSpec(f.kind, f.source, f.target, (obj,), f.left_exact,
                           f.right_exact)
        assert same == f and hash(same) == hash(f)


def _kron_identity(w, m):
    """kron(I_w, m), entry by entry."""
    rows, cols = w * m.rows, w * m.cols
    return Matrix.build(rows, cols, m.modulus, (
        m.entry(i % m.rows, j % m.cols) if i // m.rows == j // m.cols else 0
        for i in range(rows) for j in range(cols)))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("w", range(4))
def test_tensor_maps_m_to_kron_of_the_identity_and_m(p, w):
    vect = FinVect(p)
    f = tensor(vect, w)
    rng = random.Random(10 * p + w)
    for x, y in ((0, 0), (0, 2), (2, 0), (1, 3), (3, 2), (2, 2)):
        m = random_hom(vect, rng, x, y)
        fm = apply_on_morphism(f, m)
        assert (fm.source, fm.target) == (w * x, w * y)
        assert fm.data == _kron_identity(w, m.data)
