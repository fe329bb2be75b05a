"""The component certificate of glued kernels and cokernels against the two
verifiers it replaces on the hot path: the rank identity of
core._rank_violations, which it falls back to, and the sampled-cone oracle
of tests/cone_oracle.py."""

import itertools
import random
from unittest import mock

import pytest

from commacat import core
from commacat.comma import CommaCategory
from commacat.core import Mor, all_homs, verify_cokernel_universal, verify_kernel_universal
from commacat.errors import ExactnessViolation
from commacat.functors import apply_on_morphism, arrow_cokernel, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep

from test_universal_rank import SIDES, certify_items

SEEDS = (0, 1, 2)


class _RankCalls:
    """Counts the calls of core._rank_violations while it is patched in."""

    def __init__(self):
        self.count = 0
        self._rank = core._rank_violations

    def __call__(self, *args):
        self.count += 1
        return self._rank(*args)

    def patch(self):
        return mock.patch.object(core, "_rank_violations", self)


def by_rank(verify, *args) -> list:
    """verify with the class certificate unavailable, so that every mono
    (epi) candidate that kills m takes the rank identity."""
    with mock.patch.object(core, "_class_violations", lambda *_: None):
        return verify(*args)


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", (2, 3))
def test_component_certificate_rejects_what_either_verifier_rejects(p, seed, side):
    """Every true answer passes the component certificate, the rank
    verifier and the oracle, every one on the component path.  A wrong
    candidate that the component certificate accepts is accepted by both
    of the others, so whatever either rejects it rejects too."""
    candidates, verify, oracle, _, _ = SIDES[side]
    rank_calls = _RankCalls()
    rejected = accepted = 0
    for i, (cat, m, out_of_x, into_y) in enumerate(certify_items(p, seed)):
        truth, wrong = candidates(cat, m, out_of_x if side == "kernel" else into_y)
        with rank_calls.patch():
            assert verify(cat, m, *truth, random.Random(i)) == []
        assert by_rank(verify, cat, m, *truth, random.Random(i)) == []
        assert oracle(cat, m, *truth, random.Random(i)) == []
        for obj, arrow in wrong:
            with rank_calls.patch():
                if verify(cat, m, obj, arrow, random.Random(i)):
                    rejected += 1
                    continue
            accepted += 1
            assert by_rank(verify, cat, m, obj, arrow, random.Random(i)) == [], i
            assert oracle(cat, m, obj, arrow, random.Random(i)) == [], i
    assert rank_calls.count == 0
    assert rejected and accepted, (rejected, accepted)


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("p", (2, 3))
def test_every_wrong_subobject_is_rejected(p, side):
    """The items of test_universal_rank.py, without its socle and radical
    exemption: every mono (epi) candidate whose subobject key differs from
    the true one is rejected."""
    candidates, verify, _, sub, _ = SIDES[side]
    differing = 0
    for i, (cat, m, out_of_x, into_y) in enumerate(certify_items(p, seed=p)):
        truth, wrong = candidates(cat, m, out_of_x if side == "kernel" else into_y)
        true_key = cat.subobject_key(sub(cat, truth[1]))
        for obj, arrow in wrong:
            mono = sub(cat, arrow)
            if cat.is_mono(mono) and cat.subobject_key(mono) != true_key:
                differing += 1
                assert verify(cat, m, obj, arrow, random.Random(i)), \
                    (i, cat.describe_object(obj))
    assert differing > 0


def test_socle_band_kernel_is_rejected_with_its_classes():
    """F_3 item 70 of test_universal_rank.py: the kernel of another
    morphism, (k^0, rep(1, 1)), sits between the socle of the true kernel
    (k^0, rep(2, 1)) and the kernel.  No test object of the rank verifier
    or of the oracle tells them apart; the class of the right component
    does, and the violation names it."""
    _, verify, oracle, _, _ = SIDES["kernel"]
    cat, m, out_of_x, _ = next(itertools.islice(certify_items(3, seed=3), 70, None))
    kobj, _ = cat.kernel(m)
    obj, arrow = cat.kernel(out_of_x)
    assert (cat.describe_object(obj), cat.describe_object(kobj)) == \
        ("(k^0, rep(1, 1))", "(k^0, rep(2, 1))")
    assert by_rank(verify, cat, m, obj, arrow, random.Random(70)) == []
    assert oracle(cat, m, obj, arrow, random.Random(70)) == []
    assert verify(cat, m, obj, arrow, random.Random(70)) == [
        "a cone killed by m does not factor through the kernel",
        "right component: class (1, 1), kernel class (2, 1)"]


def test_rank_identity_decides_where_the_leg_image_does_not_cancel():
    """comma(identity, arrow_cokernel) opened by assume_abelian: the right
    leg takes some monos to non-monos.  Every kernel and cokernel between
    objects up to total dimension 2 is verified.  The rank identity runs
    exactly where the leg image of the candidate does not cancel, and
    every verdict equals the rank verifier's."""
    vect = FinVect(2)
    rep = Rep(ARROW_QUIVER, 2)
    cat = CommaCategory(identity_functor(vect), arrow_cokernel(rep, 0, vect),
                        assume_abelian=True)
    cone = cat.cone
    cases = (
        (cat.kernel, verify_kernel_universal, lambda arrow: cone.is_mono(
            apply_on_morphism(cat.right_functor, arrow.data[1]))),
        (cat.cokernel, verify_cokernel_universal, lambda arrow: cone.is_epi(
            apply_on_morphism(cat.left_functor, arrow.data[0]))))
    objs = list(cat.enumerate_objects(2))
    paths = {"component": 0, "rank": 0}
    for x, y in itertools.product(objs, repeat=2):
        for m in all_homs(cat, x, y, 4096):
            for construct, verify, cancels in cases:
                try:
                    obj, arrow = construct(m)
                except ExactnessViolation:
                    continue
                rank_calls = _RankCalls()
                with rank_calls.patch():
                    found = verify(cat, m, obj, arrow, random.Random(0))
                assert rank_calls.count == (not cancels(arrow))
                paths["rank" if rank_calls.count else "component"] += 1
                assert found == by_rank(verify, cat, m, obj, arrow, random.Random(0))
    assert paths["rank"] and paths["component"], paths


def test_a_candidate_whose_square_fails_is_rejected():
    """kernel and cokernel build their square unchecked, so the certificate
    checks it: identity components onto the split object (k, k, 0) kill
    the zero morphism, are mono and epi and have the right classes, yet
    are no morphism of the arrow category."""
    vect = FinVect(2)
    cat = CommaCategory(identity_functor(vect), identity_functor(vect))
    x = cat.obj(1, 1, vect.identity(1))
    split = cat.split(1, 1)
    ids = (vect.identity(1), vect.identity(1))
    zero = cat.zero_object()
    assert verify_kernel_universal(
        cat, cat.zero_morphism(x, zero), split, Mor(split, x, ids),
        random.Random(0)) == [
            "kernel arrow is not a morphism: structure square does not commute"]
    assert verify_cokernel_universal(
        cat, cat.zero_morphism(zero, x), split, Mor(x, split, ids),
        random.Random(0)) == [
            "cokernel arrow is not a morphism: structure square does not commute"]
