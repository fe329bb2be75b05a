"""Hom-space solving and the constructive universal-property verifiers,
exercised on the two instance categories."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.core import (
    _combine,
    all_homs,
    factor_between,
    hom_dim,
    image,
    coimage,
    random_hom,
    short_exact,
    solve_right,
    solve_through_epi,
    solve_through_mono,
    subobject_ses,
    try_through_mono,
    verify_biproduct,
    verify_category,
    verify_cokernel_universal,
    verify_induced_iso,
    verify_kernel_universal,
    verify_ses,
)
from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.errors import ExactnessViolation, ForeignMorphism
from commacat.functors import hom_into, identity_functor
from commacat.counterexample import bundled_ses
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix, rank
from commacat.core import Mor

from cone_oracle import hom_kernel, inverse_of

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)

seeds = st.integers(0, 10 ** 6)


def vect_mor(rows):
    m = Matrix.from_rows(rows, 2)
    return Mor(m.cols, m.rows, m)


def test_hom_dim_finvect():
    assert hom_dim(VECT, 2, 3) == 6
    assert hom_dim(VECT, 0, 3) == 0


def test_all_homs_counts_the_whole_space():
    homs = list(all_homs(VECT, 1, 2, max_count=100))
    assert len(homs) == 4
    assert len({VECT.mor_flat(m) for m in homs}) == 4


@given(seeds)
def test_solve_right_round_trip(seed):
    rng = random.Random(seed)
    g = random_hom(VECT, rng, 2, 3)
    u = solve_right(VECT, 2, 3, [(VECT.identity(2), g)])
    assert u == g


def test_try_through_mono_reports_failure():
    # nothing maps into the first axis and lands on the second
    mono = vect_mor([[1], [0]])
    bad = vect_mor([[0], [1]])
    assert try_through_mono(VECT, mono, bad) is None


@given(seeds)
def test_factor_through_mono(seed):
    rng = random.Random(seed)
    mono = vect_mor([[1, 0], [0, 1], [0, 0]])
    inner = random_hom(VECT, rng, 2, 2)
    m = VECT.compose(mono, inner)
    lift = solve_through_mono(VECT, mono, m)
    assert VECT.compose(mono, lift) == m


@given(seeds)
def test_factor_through_epi(seed):
    rng = random.Random(seed)
    epi = vect_mor([[1, 0, 0], [0, 1, 0]])
    outer = random_hom(VECT, rng, 2, 2)
    m = VECT.compose(outer, epi)
    desc = solve_through_epi(VECT, epi, m)
    assert VECT.compose(desc, epi) == m


@given(seeds)
def test_image_factorization(seed):
    rng = random.Random(seed)
    m = random_hom(VECT, rng, 3, 2)
    iobj, into = image(VECT, m)
    cobj, onto = coimage(VECT, m)
    assert VECT.is_mono(into)
    assert VECT.is_epi(onto)
    assert iobj == cobj == 3 - VECT.kernel(m)[0]


@given(seeds)
def test_induced_morphism_is_iso(seed):
    rng = random.Random(seed)
    m = random_hom(REP, rng, REP.sample_object(rng, 3), REP.sample_object(rng, 3))
    assert verify_induced_iso(REP, m) == []


def test_kernel_universal_property_on_instances():
    rng = random.Random(5)
    for inst in (VECT, REP):
        for _ in range(20):
            x = inst.sample_object(rng, 3)
            y = inst.sample_object(rng, 3)
            m = random_hom(inst, rng, x, y)
            kobj, kmor = inst.kernel(m)
            assert verify_kernel_universal(inst, m, kobj, kmor, rng) == []
            cobj, cmor = inst.cokernel(m)
            assert verify_cokernel_universal(inst, m, cobj, cmor, rng) == []


def test_wrong_kernel_is_rejected():
    m = vect_mor([[1, 0]])  # kernel is the second axis
    bad = Mor(1, 2, Matrix.from_rows([[1], [0]], 2))
    rng = random.Random(0)
    assert verify_kernel_universal(VECT, m, 1, bad, rng) != []


@pytest.mark.parametrize("m, bad, message", [
    # does not kill m: the image of m is the first axis
    (vect_mor([[1], [0]]), vect_mor([[1, 0]]),
     "cokernel arrow does not compose to zero"),
    (vect_mor([[1], [0]]), vect_mor([[0, 0]]), "cokernel arrow is not epi"),
    # kills m and is epi, but the cocone [0 1 0] does not factor through it
    (vect_mor([[1], [0], [0]]), vect_mor([[0, 1, 1]]),
     "a cocone killing m does not factor through the cokernel"),
])
def test_wrong_cokernel_is_rejected(m, bad, message):
    violations = verify_cokernel_universal(VECT, m, bad.target, bad,
                                           random.Random(0))
    assert message in violations


def _nonzero_hom(cat, rng, x, y) -> Mor:
    """A random morphism x -> y, redrawn up to 32 times until its
    coordinates are not all zero, else the first basis element."""
    basis = cat.hom_basis(x, y)
    if not basis:
        return cat.zero_morphism(x, y)
    for _ in range(32):
        coords = [rng.randrange(cat.field) for _ in basis]
        if any(coords):
            return _combine(cat, x, y, basis, coords)
    return basis[0]


def _hom_kernel_contexts(p: int) -> dict:
    vect = FinVect(p)
    rep = Rep(ARROW_QUIVER, p)
    framing = rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))])
    return {
        "finvect": vect,
        "rep-arrow-quiver": rep,
        "arrow": CommaCategory(identity_functor(vect), identity_functor(vect)),
        "framed-cocomma": CoCommaCategory(identity_functor(vect),
                                          hom_into(rep, framing, vect)),
    }


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", ("finvect", "rep-arrow-quiver", "arrow",
                                  "framed-cocomma"))
def test_hom_kernel_matches_brute_force(name, p):
    """hom_kernel of post- and pre-composition with a random m is a basis
    of exactly the homs that m kills, counted by sweeping Hom(x, y)."""
    cat = _hom_kernel_contexts(p)[name]
    objs = list(cat.enumerate_objects(2))
    rng = random.Random(p)
    for x, y, z in itertools.product(objs, repeat=3):
        post = _nonzero_hom(cat, rng, y, z)
        pre = _nonzero_hom(cat, rng, z, x)
        for apply, zero in (
                (lambda h: cat.compose(post, h), cat.zero_morphism(x, z)),
                (lambda h: cat.compose(h, pre), cat.zero_morphism(z, y))):
            basis = hom_kernel(cat, x, y, apply)
            assert all(apply(h) == zero for h in basis)
            flats = [cat.mor_flat(h) for h in basis]
            assert rank(Matrix.from_rows(flats, p, cols=cat.flat_len(x, y))) \
                == len(basis)
            killed = sum(apply(h) == zero for h in all_homs(cat, x, y, 10 ** 4))
            assert p ** len(basis) == killed


@pytest.mark.parametrize("name", ("finvect", "rep-arrow-quiver", "arrow",
                                  "framed-cocomma"))
def test_factorization_refuses_mismatched_endpoints(name):
    """m must end where the mono ends (start where the epi starts), on the
    per-component path (an identity) and on the hom-space path (a zero
    endomorphism of a nonzero object).  The pairs include the F_2 arrow
    comma's x = (k, k, 1) and x2 = (k, k, 0), where m: 0 -> x2 once
    factored through the identity of x."""
    cat = _hom_kernel_contexts(2)[name]
    z = cat.zero_object()
    objs = [x for x in cat.enumerate_objects(2) if not cat.is_zero_object(x)]
    for x, x2 in itertools.permutations(objs[:5], 2):
        for arrow in (cat.identity(x), cat.zero_morphism(x, x)):
            for m in (cat.identity(x2), cat.zero_morphism(z, x2)):
                with pytest.raises(ForeignMorphism,
                                   match="endpoints do not match"):
                    cat.factor_through_mono(arrow, m)
            for m in (cat.identity(x2), cat.zero_morphism(x2, z)):
                with pytest.raises(ForeignMorphism,
                                   match="endpoints do not match"):
                    cat.factor_through_epi(arrow, m)


def test_biproduct_laws():
    rng = random.Random(1)
    for inst in (VECT, REP):
        x = inst.sample_object(rng, 2)
        y = inst.sample_object(rng, 2)
        assert verify_biproduct(inst, x, y) == []


def test_bundled_ses_verifies():
    vect, ses = bundled_ses()
    assert verify_ses(vect, ses.sub, ses.quot) == []


def test_short_exact_rejects_non_exact():
    sub = vect_mor([[1], [0]])
    ok = short_exact(VECT, sub, vect_mor([[0, 1]]))
    assert ok.sub is sub
    with pytest.raises(ExactnessViolation):
        # quot does not kill the sub
        short_exact(VECT, sub, vect_mor([[1, 1]]))


def test_subobject_ses_over_every_subrep():
    x = REP.obj((1, 1), [Matrix.from_rows([[1]], 2)])
    for sub in REP.enumerate_subobjects(x):
        ses = subobject_ses(REP, sub)
        assert verify_ses(REP, ses.sub, ses.quot) == []


def test_factor_between_nested_subspaces():
    subs = VECT.enumerate_subobjects(3)
    lines = [s for s in subs if s.obj == 1]
    planes = [s for s in subs if s.obj == 2]
    hits = 0
    for small in lines:
        for big in planes:
            res = factor_between(VECT, small, big)
            if res is None:
                continue
            hits += 1
            incl, fobj, proj = res
            assert VECT.compose(big.mono, incl) == small.mono
            assert fobj == 1
            assert VECT.is_epi(proj)
    # every plane in F_2^3 holds exactly 3 of the 7 lines
    assert hits == 21


@settings(deadline=None)
@given(st.sampled_from([2, 3]))
def test_verify_category_clean_finvect(p):
    report = verify_category(FinVect(p), samples=12, max_dim=3)
    assert report.violations == ()
    assert report.checked > 0


@settings(deadline=None, max_examples=5)
@given(seeds)
def test_verify_category_clean_rep(seed):
    report = verify_category(REP, samples=8, seed=seed, max_dim=3)
    assert report.violations == ()


def test_inverse_of_mono_that_is_not_epi_is_none():
    """A mono that is not epi has many left inverses, none of them a
    two-sided inverse: inverse_of answers None instead of raising."""
    incl = Mor(1, 2, Matrix.from_rows([[1], [0]], 2))
    assert inverse_of(VECT, incl) is None
    assert verify_induced_iso(VECT, incl) == []
    iso = Mor(2, 2, Matrix.from_rows([[1, 1], [0, 1]], 2))
    assert VECT.compose(inverse_of(VECT, iso), iso) == VECT.identity(2)


def test_inverse_of_comma_mono_that_is_not_epi_is_none():
    arrow = CommaCategory(identity_functor(VECT), identity_functor(VECT))
    line = arrow.obj(1, 1, VECT.identity(1))
    plane = arrow.obj(2, 2, VECT.identity(2))
    incl = Mor(1, 2, Matrix.from_rows([[1], [0]], 2))
    mono = arrow.mor(line, plane, incl, incl)
    assert arrow.is_mono(mono) and not arrow.is_epi(mono)
    assert inverse_of(arrow, mono) is None
    assert inverse_of(arrow, arrow.identity(plane)) == arrow.identity(plane)
