"""Isomorphisms and images read off component ranks.

verify_induced_iso decides that coim(m) -> im(m) is invertible by the
componentwise rank tests is_mono and is_epi; the solved two-sided inverse
of tests/cone_oracle.py is the reference.  exact_at_middle reads the image
of any map off subobject_key; building the image by ker(coker) is the
reference.
"""

import random

import pytest

import commacat.core
from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import (
    exact_at_middle,
    image,
    induced_morphism,
    random_hom,
    verify_induced_iso,
)
from commacat.errors import ExactnessViolation
from commacat.functors import (
    arrow_cokernel,
    arrow_kernel,
    hom_into,
    identity_functor,
    one_plus,
    zero_functor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix

from cone_oracle import inverse_of
from test_universal_rank import certify_items

SAMPLES = 100
SAMPLE_DIM = 3


def _sampled_contexts(p: int) -> dict:
    """The contexts opened by assume_abelian whose legs lack the flags the
    gate reads, and the two instance categories, over F_p."""
    vect = FinVect(p)
    rep = Rep(ARROW_QUIVER, p)
    return {
        "one-plus/zero": CommaCategory(one_plus(vect), zero_functor(vect, vect),
                                       assume_abelian=True),
        "identity/arrow-cokernel": CommaCategory(
            identity_functor(vect), arrow_cokernel(rep, 0, vect),
            assume_abelian=True),
        "arrow-kernel/identity": CommaCategory(
            arrow_kernel(rep, 0, vect), identity_functor(vect),
            assume_abelian=True),
        "finvect": vect,
        "rep-arrow-quiver": rep,
    }


def _sampled_morphisms(cat, rng):
    """SAMPLES seeded morphisms, every other one an endomorphism so that
    isomorphisms are common among them."""
    for k in range(SAMPLES):
        x = cat.sample_object(rng, SAMPLE_DIM)
        y = x if k % 2 else cat.sample_object(rng, SAMPLE_DIM)
        yield random_hom(cat, rng, x, y)


def _agree(cat, m, seen) -> None:
    """The rank verdict equals the solved inverse's on m and, where the
    induced morphism exists, on mbar, and verify_induced_iso passes
    exactly when mbar is invertible."""
    iso = cat.is_mono(m) and cat.is_epi(m)
    assert iso == (inverse_of(cat, m) is not None)
    seen.add(iso)
    try:
        _, mbar, _ = induced_morphism(cat, m)
    except ExactnessViolation:
        return
    iso = cat.is_mono(mbar) and cat.is_epi(mbar)
    assert iso == (inverse_of(cat, mbar) is not None)
    assert (verify_induced_iso(cat, m) == []) == iso


@pytest.mark.parametrize("p", (2, 3))
def test_rank_verdict_matches_the_inverse_on_certify_items(p):
    seen = set()
    for seed in range(3):
        for cat, m, _, _ in certify_items(p, seed):
            _agree(cat, m, seen)
    assert seen == {True, False}


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", sorted(_sampled_contexts(2)))
def test_rank_verdict_matches_the_inverse_on_sampled_morphisms(name, p):
    cat = _sampled_contexts(p)[name]
    seen = set()
    for m in _sampled_morphisms(cat, random.Random(p)):
        _agree(cat, m, seen)
    assert seen == {True, False}


def _plane_contexts() -> dict:
    """A category with an object x of dimension 2 in each component."""
    vect = FinVect(2)
    arrow = CommaCategory(identity_functor(vect), identity_functor(vect))
    rep = Rep(ARROW_QUIVER, 2)
    return {
        "finvect": (vect, 2),
        "rep-arrow-quiver": (rep, rep.obj((2, 2), [Matrix.identity(2, 2)])),
        "arrow": (arrow, arrow.obj(2, 2, vect.identity(2))),
    }


def _not_invertible(cat, x) -> dict:
    """Zero on x, and the inclusion and the projection of a proper nonzero
    subobject of x: neither mono nor epi, mono only, epi only."""
    s = next(s for s in cat.enumerate_subobjects(x)
             if not (cat.is_zero_object(s.obj) or cat.is_epi(s.mono)))
    return {"zero": cat.zero_morphism(x, x), "mono": s.mono,
            "epi": cat.cokernel(s.mono)[1]}


@pytest.mark.parametrize("kind", ("zero", "mono", "epi"))
@pytest.mark.parametrize("name", sorted(_plane_contexts()))
def test_a_non_invertible_induced_morphism_is_rejected(name, kind, monkeypatch):
    """With induced_morphism patched to return a middle map that is not
    invertible, the rank test rejects it."""
    cat, x = _plane_contexts()[name]
    q, _, i = induced_morphism(cat, cat.identity(x))
    bad = _not_invertible(cat, x)[kind]
    assert inverse_of(cat, bad) is None
    monkeypatch.setattr(commacat.core, "induced_morphism",
                        lambda inst, m: (q, bad, i))
    assert verify_induced_iso(cat, cat.identity(x)) == [
        "induced coimage->image morphism is not invertible"]


def _subobject_contexts(p: int) -> dict:
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


@pytest.mark.parametrize("p, max_dim", ((2, 3), (3, 2)))
@pytest.mark.parametrize("name", sorted(_subobject_contexts(2)))
def test_exact_at_middle_matches_the_image(name, p, max_dim):
    """0 -> s -> x -> x/t is exact at x exactly when s = t, and the verdict
    that reads the key off the map equals the one that builds its image by
    ker(coker), for the mono s and for the non-mono s + s -> x."""
    cat = _subobject_contexts(p)[name]
    for x in cat.enumerate_objects(max_dim):
        subs = cat.enumerate_subobjects(x)
        cokernels = [cat.cokernel(t.mono)[1] for t in subs]
        for s in subs:
            image_key = cat.subobject_key(image(cat, s.mono)[1])
            _, _, (p1, _) = cat.biproduct(s.obj, s.obj)
            doubled = cat.compose(s.mono, p1)
            assert cat.subobject_key(doubled) == cat.subobject_key(
                image(cat, doubled)[1]) == image_key
            for t, c in zip(subs, cokernels):
                kernel_key = cat.subobject_key(cat.kernel(c)[1])
                verdict = exact_at_middle(cat, s.mono, c)
                assert verdict == (image_key == kernel_key) == (s.key == t.key)
                assert exact_at_middle(cat, doubled, c) == verdict
