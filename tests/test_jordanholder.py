"""Composition series: simplicity detection, policy independence of the
factor multiset, and length additivity across the two components."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import Mor
from commacat.errors import CertificateFailure
from commacat.functors import hom_into, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.jordanholder import (
    comma_simples,
    is_simple,
    jh_filtration,
    length,
)
from commacat.linalg import Matrix
from commacat.stability import SubobjectLattice

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)
ARROW = CommaCategory(identity_functor(VECT), identity_functor(VECT))

seeds = st.integers(0, 10 ** 6)


def triple(a, b, rows):
    return ARROW.obj(a, b, Mor(a, b, Matrix.from_rows(rows, 2, cols=a)))


def test_is_simple_finvect():
    assert is_simple(VECT, 1)
    assert not is_simple(VECT, 0)
    assert not is_simple(VECT, 2)


def test_is_simple_rep():
    s0, s1 = REP.simples()
    assert is_simple(REP, s0)
    assert is_simple(REP, s1)
    assert not is_simple(REP, REP.projective(0))


def test_jh_on_a_plain_space():
    jh = jh_filtration(VECT, 3)
    assert jh.length == 3
    assert jh.factor_classes == ((1,), (1,), (1,))


def test_jh_zero_object_is_empty():
    assert jh_filtration(ARROW, ARROW.zero_object()).length == 0


def test_jh_identity_triple_factors():
    jh = jh_filtration(ARROW, triple(1, 1, [[1]]))
    assert jh.factor_multiset() == ((0, 1), (1, 0))


def test_canonical_chain_fills_the_right_side_first():
    """Every nonzero identity-identity arrow object a -> b up to total
    dimension 4 over F_2 and 3 over F_3 (77 objects): the canonical series
    runs through the classes (0, 0) ... (0, dim b), (1, dim b) ...
    (dim a, dim b)."""
    seen = 0
    for p, max_dim in ((2, 4), (3, 3)):
        vect = FinVect(p)
        cat = CommaCategory(identity_functor(vect), identity_functor(vect))
        for x in cat.enumerate_objects(max_dim):
            if cat.is_zero_object(x):
                continue
            seen += 1
            a, b = cat.class_vector(x)
            expected = [(0, j) for j in range(b + 1)] + \
                [(i, b) for i in range(1, a + 1)]
            steps = jh_filtration(cat, x).steps
            assert [cat.class_vector(s.obj) for s in steps] == expected
    assert seen == 77


def test_jh_refuses_a_stage_with_nothing_above_it():
    lat = SubobjectLattice(VECT, 2)
    lat.least_above = lambda i: iter(())
    for policy in ("canonical", "random"):
        with pytest.raises(CertificateFailure,
                           match="no strictly larger subobject found"):
            jh_filtration(VECT, 2, policy, lattice=lat)


def test_policy_validation():
    """The zero object too, though its series is empty."""
    for cat, x in ((VECT, 2), (ARROW, ARROW.zero_object())):
        with pytest.raises(ValueError):
            jh_filtration(cat, x, policy="sorted")


def test_lattice_guard_rejects_foreign_lattices():
    lat = SubobjectLattice(VECT, 2)
    for x in (3, 0):
        with pytest.raises(ValueError):
            jh_filtration(VECT, x, lattice=lat)


def _reference_step_keys(lat, policy, seed):
    """The JH walk over the whole up-set, the oracle for least_above: rank
    all of strictly_above(i) by length jump, then take the first of the
    least jumps, or a seeded draw among them."""
    rng = random.Random(seed)
    chain = [lat.zero_index]
    while chain[-1] != lat.whole_index:
        cur = chain[-1]
        above = lat.strictly_above(cur)
        jumps = [sum(lat.diff(t, cur)) for t in above]
        least = min(jumps)
        options = [t for t, n in zip(above, jumps) if n == least]
        chain.append(options[0] if policy == "canonical"
                     else rng.choice(options))
    return [lat.keys[i] for i in chain]


def _oracle_contexts():
    """The identity-identity arrow context and the framed co-comma context,
    each with its largest total dimension: 4 over F_2 and 3 over F_3."""
    for p, max_dim in ((2, 4), (3, 3)):
        vect = FinVect(p)
        rep = Rep(ARROW_QUIVER, p)
        framing = rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))])
        yield CommaCategory(identity_functor(vect),
                            identity_functor(vect)), max_dim
        yield CoCommaCategory(identity_functor(vect),
                              hom_into(rep, framing, vect)), max_dim


def test_jh_steps_match_the_walk_over_the_whole_up_set():
    """jh_filtration reads each step from least_above; on each of the 278
    nonzero objects of those contexts, its steps are the reference walk's,
    key for key, under the canonical policy and three random seeds."""
    seen = 0
    for cat, max_dim in _oracle_contexts():
        for x in cat.enumerate_objects(max_dim):
            if cat.is_zero_object(x):
                continue
            seen += 1
            lat = SubobjectLattice(cat, x)
            for policy, seed in (("canonical", 0), ("random", 1),
                                 ("random", 7), ("random", 12)):
                got = jh_filtration(cat, x, policy, seed, lattice=lat)
                assert [s.key for s in got.steps] == \
                    _reference_step_keys(lat, policy, seed)
    assert seen == 278


@settings(deadline=None, max_examples=15)
@given(seeds)
def test_factor_multiset_is_policy_independent(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 4)
    if ARROW.is_zero_object(x):
        return
    lat = SubobjectLattice(ARROW, x)
    want = jh_filtration(ARROW, x, lattice=lat).factor_multiset()
    for probe_seed in range(5):
        got = jh_filtration(ARROW, x, policy="random", seed=probe_seed,
                            lattice=lat).factor_multiset()
        assert got == want


@settings(deadline=None, max_examples=15)
@given(seeds)
def test_length_is_additive_over_components(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 4)
    if ARROW.is_zero_object(x):
        return
    total = length(ARROW, x)
    left_len = 0 if x.a == 0 else length(ARROW.left, x.a)
    right_len = 0 if x.b == 0 else length(ARROW.right, x.b)
    assert total == left_len + right_len


def test_jh_factors_are_simple_classes():
    rng = random.Random(31)
    for _ in range(10):
        x = ARROW.sample_object(rng, 4)
        if ARROW.is_zero_object(x):
            continue
        jh = jh_filtration(ARROW, x)
        for c in jh.factor_classes:
            assert sorted(c) == [0, 1]


def test_comma_simples_re_verifies():
    out = comma_simples(ARROW)
    assert len(out) == 2
    for s in out:
        assert is_simple(ARROW, s)
    classes = sorted(ARROW.class_vector(s) for s in out)
    assert classes == [(0, 1), (1, 0)]
