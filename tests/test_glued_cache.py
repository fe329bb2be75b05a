"""The glued kernel and cokernel caches of comma.py.

CommaCategory.kernel and cokernel keep a few recent constructions, so that
the coimage and the image of m read back the ker m and coker m a caller has
just built.  A second call returns the very pair the first one built; a
construction that raises is not kept and raises again; and the abelian
gate runs before the cache is asked.
"""

import itertools
import random

import pytest

from commacat import comma
from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import Mor, all_homs, coimage, image
from commacat.errors import CapabilityError, ExactnessViolation
from commacat.functors import arrow_cokernel, arrow_kernel, hom_into, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep

from test_induced_iso import _sampled_morphisms
from test_universal_rank import certify_items

SIDES = ("kernel", "cokernel")
SITES = {"kernel": comma._glued_kernel, "cokernel": comma._glued_cokernel}


@pytest.mark.parametrize("p", (2, 3))
def test_a_second_call_returns_the_pair_just_built(p):
    kinds = set()
    for cat, m, _, _ in certify_items(p, 0):
        kinds.add(type(cat))
        kernel, cokernel = cat.kernel(m), cat.cokernel(m)
        # an equal morphism built apart keys the same entry
        twin = Mor(m.source, m.target, m.data)
        assert cat.kernel(m) is cat.kernel(twin) is kernel
        assert cat.cokernel(m) is cat.cokernel(twin) is cokernel
        # what certify_morphism asks after ker m and coker m
        assert coimage(cat, m)[1] is cat.cokernel(kernel[1])[1]
        assert image(cat, m)[1] is cat.kernel(cokernel[1])[1]
        assert cat.kernel(m) is kernel and cat.cokernel(m) is cokernel
    assert kinds == {CommaCategory, CoCommaCategory}


def _unchecked_contexts(p: int) -> dict:
    vect = FinVect(p)
    return {
        "comma": CommaCategory(identity_functor(vect), identity_functor(vect)),
        "cocomma": CoCommaCategory(identity_functor(vect),
                                   hom_into(vect, 1, vect)),
    }


def _first_raising(cat, side: str) -> Mor:
    """The first component pair over objects of total dimension at most 2,
    built without the square check, whose kernel (cokernel) construction
    raises: its structure map has no solution."""
    objects = list(cat.enumerate_objects(2))
    for x, y in itertools.product(objects, repeat=2):
        for fa in all_homs(cat.left, *cat.left_ends(x, y), 100):
            for gb in all_homs(cat.right, x.b, y.b, 100):
                m = Mor(x, y, (fa, gb))
                try:
                    getattr(cat, side)(m)
                except ExactnessViolation:
                    return m
    raise AssertionError(f"no {side} construction raises")


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", ("comma", "cocomma"))
def test_a_construction_that_raises_raises_again(name, p, side):
    cat = _unchecked_contexts(p)[name]
    m = _first_raising(cat, side)
    site = SITES[side]
    for _ in range(2):
        misses = site.cache_info().misses
        with pytest.raises(ExactnessViolation) as exc:
            getattr(cat, side)(m)
        assert "no morphism satisfies" in str(exc.value)
        assert site.cache_info().misses == misses + 1


def _twins(p: int, name: str, assume_abelian: bool):
    """Contexts whose legs lack the flags the gate reads."""
    vect, rep = FinVect(p), Rep(ARROW_QUIVER, p)
    if name == "comma":
        return CommaCategory(identity_functor(vect), arrow_cokernel(rep, 0, vect),
                             assume_abelian=assume_abelian)
    return CoCommaCategory(arrow_kernel(rep, 0, vect), hom_into(vect, 1, vect),
                           assume_abelian=assume_abelian)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", ("comma", "cocomma"))
def test_the_gate_runs_before_the_cache(name, p):
    """A context that is not abelian refuses a morphism whose kernel and
    cokernel its assume_abelian twin has just built."""
    opened, closed = _twins(p, name, True), _twins(p, name, False)
    built = 0
    for m in _sampled_morphisms(opened, random.Random(p)):
        for side in SIDES:
            try:
                getattr(opened, side)(m)
            except ExactnessViolation:
                continue
            built += 1
            with pytest.raises(CapabilityError):
                getattr(closed, side)(m)
    assert built
