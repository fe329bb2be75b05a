"""The component certificate of the induced map coim(m) -> im(m) against
the solve-path verdict of tests/cone_oracle.py.

verify_induced_iso(cat, m) asks CommaCategory.induced_iso_certificate
first and falls back to induced_morphism where the certificate does not
hold; either way it must return the oracle's verdict word for word.
"""

import random

import pytest

from commacat.comma import CommaCategory
from commacat.core import Mor, verify_induced_iso
from commacat.errors import CapabilityError
from commacat.functors import arrow_cokernel, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix

from cone_oracle import induced_iso_oracle
from test_induced_iso import _sampled_contexts, _sampled_morphisms
from test_universal_rank import certify_items

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", (2, 3))
def test_certificate_holds_on_certify_items(p, seed):
    """Every seeded morphism of the certify contexts, whose legs are exact,
    is certified without a glued construction, and the oracle agrees."""
    for cat, m, _, _ in certify_items(p, seed):
        assert cat.induced_iso_certificate(m)
        assert verify_induced_iso(cat, m) == induced_iso_oracle(cat, m) == []


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", sorted(_sampled_contexts(2)))
def test_verdict_matches_the_solve_path_on_sampled_morphisms(name, p):
    """The contexts opened by assume_abelian, where rank reads decline and
    the solve path words the verdict, and the two instance categories,
    which have no certificate."""
    cat = _sampled_contexts(p)[name]
    for m in _sampled_morphisms(cat, random.Random(p)):
        assert verify_induced_iso(cat, m) == induced_iso_oracle(cat, m)


def _kernel_losing_morphism(assume_abelian: bool):
    """A morphism over the right leg arrow_cokernel, which does not keep
    kernels: m = (k -> 0, (k = k) -> (k -> 0)).  Its kernel has the right
    component 0 -> k, whose image under the leg is k -> 0, not mono, so
    the structure map of ker m is solved through a map that kills
    everything."""
    vect, rep = FinVect(2), Rep(ARROW_QUIVER, 2)
    cat = CommaCategory(identity_functor(vect), arrow_cokernel(rep, 0, vect),
                        assume_abelian=assume_abelian)
    one, empty = Matrix.identity(1, 2), Matrix.build(0, 1, 2, ())
    xb, yb = rep.obj((1, 1), [one]), rep.obj((1, 0), [empty])
    x = cat.obj(1, xb, vect.zero_morphism(1, 0))
    y = cat.obj(0, yb, vect.zero_morphism(0, 0))
    mb = rep.mor(xb, yb, (one, Matrix.build(0, 1, 2, ())))
    return cat, cat.mor(x, y, vect.zero_morphism(1, 0), mb)


def test_a_declined_read_returns_the_oracle_violation():
    cat, m = _kernel_losing_morphism(assume_abelian=True)
    assert not cat.induced_iso_certificate(m)
    assert verify_induced_iso(cat, m) == induced_iso_oracle(cat, m) == [
        "induced morphism does not exist: connecting-map system has a "
        "non-trivial solution space; the construction this solve supports "
        "is not valid here"]


def test_a_square_that_does_not_commute_takes_the_solve_path():
    """(id, 0): (k, k, 0) -> (k, k, id) in the arrow category, built
    without the square check: every rank read holds, but the cokernel's
    structure map has no solution, as the square of m is needed for it."""
    vect = FinVect(2)
    cat = CommaCategory(identity_functor(vect), identity_functor(vect))
    x = cat.obj(1, 1, vect.zero_morphism(1, 1))
    y = cat.obj(1, 1, vect.identity(1))
    m = Mor(x, y, (vect.identity(1), vect.zero_morphism(1, 1)))
    assert not cat.induced_iso_certificate(m)
    assert verify_induced_iso(cat, m) == induced_iso_oracle(cat, m) == [
        "induced morphism does not exist: no morphism satisfies the "
        "requested post-composition equations; a declared exactness "
        "property fails on this data"]


def test_a_context_that_is_not_abelian_still_refuses():
    cat, m = _kernel_losing_morphism(assume_abelian=False)
    with pytest.raises(CapabilityError):
        cat.induced_iso_certificate(m)
    with pytest.raises(CapabilityError):
        verify_induced_iso(cat, m)


def test_a_supplied_arrow_takes_the_solve_path(monkeypatch):
    """With the kernel or the cokernel arrow supplied, the certificate is
    not asked, since the supplied arrow's square is not known to commute."""
    cat, m, _, _ = next(certify_items(2, 0))
    monkeypatch.setattr(type(cat), "induced_iso_certificate",
                        lambda *_: pytest.fail("certificate asked"))
    kmor, cmor = cat.kernel(m)[1], cat.cokernel(m)[1]
    assert verify_induced_iso(cat, m, kmor, None) == []
    assert verify_induced_iso(cat, m, None, cmor) == []
