"""Battery work done once.

certify_morphism builds and certifies the kernel and the cokernel of a
morphism and certifies its induced coimage-image map in one pass; the
five-step sequence it replaced (kernel, its verifier, cokernel, its
verifier, verify_induced_iso) is the reference.  The co-comma criterion
reads the cancellation verdict of every morphism off the composites of the
hom basis; composing with each morphism (tests/cone_oracle.py) is the
reference.
"""

import random

import pytest

from commacat.acceptance import _cancellation_sweep
from commacat.cocomma import CoCommaCategory
from commacat.core import (
    certify_morphism,
    verify_cokernel_universal,
    verify_induced_iso,
    verify_kernel_universal,
)
from commacat.errors import ExactnessViolation
from commacat.functors import hom_into, identity_functor
from commacat.instances import FinVect

from cone_oracle import postcomposition_injective
from test_induced_iso import _sampled_contexts, _sampled_morphisms
from test_universal_rank import certify_items


def _five_steps(cat, m, rng):
    kobj, kmor = cat.kernel(m)
    kernel = verify_kernel_universal(cat, m, kobj, kmor, rng)
    cobj, cmor = cat.cokernel(m)
    cokernel = verify_cokernel_universal(cat, m, cobj, cmor, rng)
    return (kobj, kmor), (cobj, cmor), {
        "kernel": kernel, "cokernel": cokernel,
        "induced": verify_induced_iso(cat, m)}


def _outcome(certify, cat, m, seed):
    """What certify returns and the state of the rng it was handed
    afterwards, or the exception it raises and None."""
    rng = random.Random(seed)
    try:
        return certify(cat, m, rng), rng.getstate()
    except ExactnessViolation as exc:
        return (type(exc), str(exc)), None


def _built(cat, m, seed) -> bool:
    """Both give the same on m; whether the kernel and cokernel exist."""
    once = _outcome(certify_morphism, cat, m, seed)
    assert once == _outcome(_five_steps, cat, m, seed)
    return once[1] is not None


@pytest.mark.parametrize("p", (2, 3))
def test_certify_morphism_matches_the_five_steps_on_certify_items(p):
    for seed in range(3):
        for i, (cat, m, _, _) in enumerate(certify_items(p, seed)):
            assert _built(cat, m, f"{seed}:{i}")


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", sorted(_sampled_contexts(2)))
def test_certify_morphism_matches_the_five_steps_on_sampled_morphisms(name, p):
    """Over legs without the flags the gate reads, a kernel or cokernel
    construction may raise; then both raise the same."""
    cat = _sampled_contexts(p)[name]
    morphisms = _sampled_morphisms(cat, random.Random(p))
    assert any([_built(cat, m, i) for i, m in enumerate(morphisms)])


def _framed_sweep(p: int, max_dim: int):
    """The co-comma criterion's context over F_p and its test objects."""
    vect = FinVect(p)
    cat = CoCommaCategory(identity_functor(vect), hom_into(vect, 1, vect))
    return cat, list(cat.enumerate_objects(max_dim))


@pytest.mark.parametrize("p, max_dim, morphisms, monos",
                         ((2, 3, 3271, 595), (3, 2, 364, 144)))
def test_linear_sweep_matches_composing_with_each_morphism(
        p, max_dim, morphisms, monos):
    """Over F_3 the coefficient 2 is exercised as well."""
    cat, tests = _framed_sweep(p, max_dim)
    verdicts = list(_cancellation_sweep(cat, tests))
    for m, injective in verdicts:
        assert injective == postcomposition_injective(cat, m, tests)
    assert len(verdicts) == morphisms
    assert sum(injective for _, injective in verdicts) == monos


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", ("finvect", "rep-arrow-quiver"))
def test_certify_morphism_matches_the_five_steps_on_a_wrong_kernel(
        name, p, monkeypatch):
    """With kernel patched to return the zero subobject, so that the kernel
    check, and the induced map through the image ker(coker m) with it, fail
    wherever m is not mono, both report the same violations."""
    cat = _sampled_contexts(p)[name]
    monkeypatch.setattr(type(cat), "kernel", lambda self, m: (
        self.zero_object(), self.zero_morphism(self.zero_object(), m.source)))
    failed = set()
    for i, m in enumerate(_sampled_morphisms(cat, random.Random(p))):
        assert _built(cat, m, i)
        (_, _, found), _ = _outcome(certify_morphism, cat, m, i)
        failed |= {check for check, violations in found.items() if violations}
    assert failed == {"kernel", "induced"}
