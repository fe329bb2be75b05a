"""apply_on_morphism keeps its most recent images.  The memoized map must
be the bare map on every kind, and a call that raises must not be kept."""

import pytest

from commacat.core import all_homs
from commacat.errors import ExactnessViolation
from commacat.functors import (
    APPLY_ON_MORPHISM,
    KINDS,
    apply_on_morphism,
    arrow_cokernel,
    arrow_kernel,
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

MAX_TOTAL_DIM = 3


def _specs(p: int) -> list:
    """At least one functor of each kind over F_p, on FinVect and on
    representations of the arrow quiver."""
    vect, rep = FinVect(p), Rep(ARROW_QUIVER, p)
    p0 = rep.projective(0)
    specs = [identity_functor(vect), identity_functor(rep),
             zero_functor(rep, vect), hom_from(rep, p0, vect),
             hom_from(vect, 2, vect), hom_into(rep, p0, vect),
             hom_into(vect, 1, vect), eval_vertex(rep, 1, vect),
             arrow_kernel(rep, 0, vect), arrow_cokernel(rep, 0, vect),
             tensor(vect, 2), one_plus(vect), constant(rep, vect, 1)]
    assert {f.kind for f in specs} == set(KINDS)
    return specs


def _morphisms(inst):
    """Every morphism x -> y with dim x + dim y <= MAX_TOTAL_DIM."""
    objs = list(inst.enumerate_objects(MAX_TOTAL_DIM))
    for x in objs:
        for y in objs:
            if inst.dim_total(x) + inst.dim_total(y) <= MAX_TOTAL_DIM:
                yield from all_homs(inst, x, y, inst.budget.max_vectors)


@pytest.mark.parametrize("p", (2, 3))
def test_the_memo_is_the_bare_map_on_every_kind(p):
    """Each image is compared with the bare map's twice: when the memo
    builds it and when the memo returns it again."""
    bare = apply_on_morphism.__wrapped__
    apply_on_morphism.cache_clear()
    seen = 0
    for f in _specs(p):
        morphisms = list(_morphisms(f.source))
        for _ in range(2):
            for m in morphisms:
                assert apply_on_morphism(f, m) == bare(f, m), (f.kind, m)
                seen += 1
    info = apply_on_morphism.cache_info()
    assert info.hits and info.maxsize == APPLY_ON_MORPHISM
    assert seen == info.hits + info.misses
    apply_on_morphism.cache_clear()


def test_a_call_that_raises_raises_again():
    """A flat built without the check, whose vertex maps do not commute
    with the arrows: the identity at the tail does not carry the kernel
    of the zero map into the kernel of the identity, which is zero."""
    rep = Rep(ARROW_QUIVER, 2)
    x = rep.obj((1, 1), [Matrix.build(1, 1, 2, (0,))])
    y = rep.obj((1, 1), [Matrix.build(1, 1, 2, (1,))])
    m = rep.build_from_flat(x, y, (1, 0))
    f = arrow_kernel(rep, 0, FinVect(2))
    apply_on_morphism.cache_clear()
    for _ in range(2):
        with pytest.raises(ExactnessViolation, match="does not carry"):
            apply_on_morphism(f, m)
    info = apply_on_morphism.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
