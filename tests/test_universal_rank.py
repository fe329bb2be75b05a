"""The rank-identity kernel and cokernel verifiers against the sampled-cone
oracle, on seeded morphisms of the glued contexts the certify benchmark
uses, over F_2 and F_3."""

import random

import pytest

from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import (
    random_hom,
    verify_cokernel_universal,
    verify_kernel_universal,
)
from commacat.functors import hom_from, hom_into, identity_functor, tensor
from commacat.instances import FinVect, Quiver, Rep
from commacat.linalg import Matrix

from cone_oracle import oracle_cokernel_universal, oracle_kernel_universal

PER_CONTEXT = 20
MAX_DIM = 4


def certify_contexts(p: int) -> list:
    """The four comma contexts of abelian-universality and the framed
    co-comma context, over F_p."""
    vect = FinVect(p)
    rep = Rep(Quiver(2, ((0, 1),)), p)
    sink = rep.obj((0, 1), [Matrix.build(1, 0, p, ())])
    framing = rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))])
    out = [CommaCategory(left, right)
           for left in (identity_functor(vect), tensor(vect, 2))
           for right in (identity_functor(vect), hom_from(rep, sink, vect))]
    out.append(CoCommaCategory(identity_functor(vect),
                               hom_into(rep, framing, vect)))
    return out


def certify_items(p: int, seed: int):
    """(cat, m, out_of_x, into_y): a seeded m: x -> y and two more seeded
    morphisms, one out of x and one into y."""
    rng = random.Random(seed)
    for cat in certify_contexts(p):
        for _ in range(PER_CONTEXT):
            x = cat.sample_object(rng, MAX_DIM)
            y = cat.sample_object(rng, MAX_DIM)
            m = random_hom(cat, rng, x, y)
            out_of_x = random_hom(cat, rng, x, cat.sample_object(rng, MAX_DIM))
            into_y = random_hom(cat, rng, cat.sample_object(rng, MAX_DIM), y)
            yield cat, m, out_of_x, into_y


def _kernel_candidates(cat, m, other):
    """The true kernel, then the zero object, a non-mono arrow into the
    source and the kernel of a different morphism."""
    kobj, kmor = cat.kernel(m)
    zero = cat.zero_object()
    double, _, (p1, _) = cat.biproduct(kobj, kobj)
    return (kobj, kmor), [(zero, cat.zero_morphism(zero, m.source)),
                          (double, cat.compose(kmor, p1)),
                          cat.kernel(other)]


def _cokernel_candidates(cat, m, other):
    """The dual of _kernel_candidates, out of the target."""
    cobj, cmor = cat.cokernel(m)
    zero = cat.zero_object()
    double, (i1, _), _ = cat.biproduct(cobj, cobj)
    return (cobj, cmor), [(zero, cat.zero_morphism(m.target, zero)),
                          (double, cat.compose(i1, cmor)),
                          cat.cokernel(other)]


def _contains_socle(cat, x, kernel_key, key) -> bool:
    """Whether the subobject key of x lies between the socle of the kernel
    (the sum of its simple subobjects) and the kernel itself."""
    leq = cat.subobject_key_leq
    return leq(key, kernel_key) and all(
        leq(s.key, key) for s in cat.enumerate_subobjects(x)
        if sum(cat.class_vector(s.obj)) == 1 and leq(s.key, kernel_key))


def _inside_radical(cat, y, image_key, key) -> bool:
    """The dual of _contains_socle for quotients of y by key: whether key
    contains the image and lies in every maximal subobject containing it,
    so that y / key keeps every simple quotient of the cokernel."""
    leq = cat.subobject_key_leq
    whole = sum(cat.class_vector(y))
    return leq(image_key, key) and all(
        leq(key, s.key) for s in cat.enumerate_subobjects(y)
        if whole - sum(cat.class_vector(s.obj)) == 1 and leq(image_key, s.key))


# per side: candidates, rank check, oracle, the mono whose key names the
# candidate, and the band of wrong candidates no simple can tell apart
SIDES = {
    "kernel": (_kernel_candidates, verify_kernel_universal,
               oracle_kernel_universal, lambda cat, arrow: arrow,
               _contains_socle),
    "cokernel": (_cokernel_candidates, verify_cokernel_universal,
                 oracle_cokernel_universal,
                 lambda cat, arrow: cat.kernel(arrow)[1], _inside_radical),
}


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("p", (2, 3))
def test_rank_check_rejects_what_the_oracle_rejects(p, side):
    """Correct answers pass both verifiers.  A seeded wrong answer fails the
    rank check when the oracle rejects it, and when its subobject differs
    from the true one outside the known limit: a kernel candidate between
    the socle of the kernel and the kernel (dually, a cokernel candidate
    with the same simple quotients) is seen by no simple test object."""
    candidates, rank_check, oracle, sub, limit = SIDES[side]
    rejected = 0
    for i, (cat, m, out_of_x, into_y) in enumerate(certify_items(p, seed=p)):
        truth, wrong = candidates(cat, m, out_of_x if side == "kernel" else into_y)
        assert rank_check(cat, m, *truth, random.Random(i)) == []
        assert oracle(cat, m, *truth, random.Random(i)) == []
        ambient = sub(cat, truth[1]).target
        true_key = cat.subobject_key(sub(cat, truth[1]))
        for obj, arrow in wrong:
            found = rank_check(cat, m, obj, arrow, random.Random(i))
            if oracle(cat, m, obj, arrow, random.Random(i)):
                assert found, (i, cat.describe_object(obj))
            mono = sub(cat, arrow)
            if cat.is_mono(mono):
                key = cat.subobject_key(mono)
                if key != true_key and not limit(cat, ambient, true_key, key):
                    assert found, (i, cat.describe_object(obj))
            rejected += bool(found)
    assert rejected > 0


@pytest.mark.parametrize("p", (2, 3))
def test_zero_candidate_is_rejected_for_a_nonzero_answer(p):
    """A nonzero kernel has a simple subobject and a nonzero cokernel a
    simple quotient, so the zero object fails on that simple even when
    neither the candidate, the source or target, nor the sampled object
    sees the difference."""
    rng = random.Random(101 + p)
    checked = 0
    for cat in certify_contexts(p):
        for i in range(40):
            x = cat.sample_object(rng, 2)
            y = cat.sample_object(rng, 2)
            m = random_hom(cat, rng, x, y)
            zero = cat.zero_object()
            kobj, _ = cat.kernel(m)
            if not cat.is_zero_object(kobj):
                checked += 1
                assert verify_kernel_universal(
                    cat, m, zero, cat.zero_morphism(zero, x),
                    random.Random(i)) != [], cat.describe_object(kobj)
            cobj, _ = cat.cokernel(m)
            if not cat.is_zero_object(cobj):
                checked += 1
                assert verify_cokernel_universal(
                    cat, m, zero, cat.zero_morphism(y, zero),
                    random.Random(i)) != [], cat.describe_object(cobj)
    assert checked > 0
