"""Factoring through a mono or an epi one component at a time gives what
the hom-space solve it replaced gives, which stays here as the oracle: the
same morphism, the same None, the same raise.  Also: every morphism built
without the morphism check passes that check when rebuilt."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import (
    all_homs,
    induced_morphism,
    random_hom,
    try_solve_left,
    try_solve_right,
)
from commacat.errors import CapabilityError, ExactnessViolation
from commacat.functors import (
    arrow_cokernel,
    arrow_kernel,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix

MAX_DIM = {2: 3, 3: 2}
seeds = st.integers(0, 10 ** 6)


def _contexts(p: int) -> dict:
    """FinVect, Rep on the arrow quiver, the four comma contexts of the
    abelian-universality criterion and the framed hom_into co-comma."""
    vect = FinVect(p)
    rep = Rep(ARROW_QUIVER, p)
    sink = rep.obj((0, 1), [Matrix.build(1, 0, p, ())])
    framing = rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))])
    out = {"finvect": vect, "rep-arrow-quiver": rep}
    for lname, left in (("identity", identity_functor(vect)),
                        ("tensor", tensor(vect, 2))):
        for rname, right in (("identity", identity_functor(vect)),
                             ("hom-from-sink", hom_from(rep, sink, vect))):
            out[f"{lname}/{rname}"] = CommaCategory(left, right)
    out["framed-cocomma"] = CoCommaCategory(identity_functor(vect),
                                            hom_into(rep, framing, vect))
    return out


CONTEXTS = {p: _contexts(p) for p in MAX_DIM}
CASES = [(name, p) for p in sorted(MAX_DIM) for name in CONTEXTS[p]]


def _outcome(solve):
    try:
        return solve()
    except (ExactnessViolation, CapabilityError) as exc:
        return type(exc), str(exc)


def _kind(outcome) -> str:
    if outcome is None:
        return "none"
    return "raise" if isinstance(outcome, tuple) else "morphism"


def _mono_pair(cat, rng, max_dim):
    """A kernel arrow or an arbitrary morphism into x, and a morphism into
    x that factors through it half of the time."""
    x = cat.sample_object(rng, max_dim)
    if rng.random() < 0.5:
        y = cat.sample_object(rng, max_dim)
        _, mono = cat.kernel(random_hom(cat, rng, x, y))
    else:
        mono = random_hom(cat, rng, cat.sample_object(rng, max_dim), x)
    t = cat.sample_object(rng, max_dim)
    if rng.random() < 0.5:
        return mono, cat.compose(mono, random_hom(cat, rng, t, mono.source))
    return mono, random_hom(cat, rng, t, x)


def _epi_pair(cat, rng, max_dim):
    x = cat.sample_object(rng, max_dim)
    if rng.random() < 0.5:
        y = cat.sample_object(rng, max_dim)
        _, epi = cat.cokernel(random_hom(cat, rng, y, x))
    else:
        epi = random_hom(cat, rng, x, cat.sample_object(rng, max_dim))
    t = cat.sample_object(rng, max_dim)
    if rng.random() < 0.5:
        return epi, cat.compose(random_hom(cat, rng, epi.target, t), epi)
    return epi, random_hom(cat, rng, x, t)


def _compare(cat, rng, max_dim) -> Counter:
    """Both factorizations of one sampled mono pair and one epi pair."""
    kinds = Counter()
    mono, m = _mono_pair(cat, rng, max_dim)
    direct = _outcome(lambda: cat.factor_through_mono(mono, m))
    generic = _outcome(lambda: try_solve_left(cat, m.source, mono.source,
                                              [(mono, m)]))
    assert direct == generic
    kinds["mono-" + _kind(direct)] += 1
    epi, m = _epi_pair(cat, rng, max_dim)
    direct = _outcome(lambda: cat.factor_through_epi(epi, m))
    generic = _outcome(lambda: try_solve_right(cat, epi.target, m.target,
                                               [(epi, m)]))
    assert direct == generic
    kinds["epi-" + _kind(direct)] += 1
    return kinds


@pytest.mark.parametrize("name, p", CASES)
@settings(deadline=None, max_examples=30)
@given(seed=seeds)
def test_direct_factorization_matches_hom_space_solve(name, p, seed):
    _compare(CONTEXTS[p][name], random.Random(seed), MAX_DIM[p])


@pytest.mark.parametrize("name, p", CASES)
def test_fixed_seeds_reach_every_outcome(name, p):
    """On a fixed seed range the comparison sees a morphism, a None and a
    raise on each side, so no outcome goes untested."""
    cat = CONTEXTS[p][name]
    kinds = Counter()
    for seed in range(200):
        kinds += _compare(cat, random.Random(seed), MAX_DIM[p])
    assert set(kinds) == {f"{side}-{kind}" for side in ("mono", "epi")
                          for kind in ("morphism", "none", "raise")}, kinds


def test_non_additive_leg_defers_to_hom_space_solve():
    """A one_plus leg makes the square nonlinear: the direct factorization
    hands over to the hom-space solve, and refuses where it refuses."""
    vect = FinVect(2)
    cat = CommaCategory(one_plus(vect), identity_functor(vect),
                        assume_abelian=True)
    kinds = Counter()
    for x in cat.enumerate_objects(2):
        try:
            subs = cat.enumerate_subobjects(x)
        except ExactnessViolation:
            continue
        whole = cat.identity(x)
        for s in subs:
            for mono, m in ((whole, s.mono), (s.mono, s.mono)):
                direct = _outcome(lambda: cat.factor_through_mono(mono, m))
                generic = _outcome(lambda: try_solve_left(
                    cat, m.source, mono.source, [(mono, m)]))
                assert direct == generic
                kinds[_kind(direct)] += 1
        direct = _outcome(lambda: cat.factor_through_epi(whole, whole))
        assert direct == _outcome(lambda: try_solve_right(
            cat, x, x, [(whole, whole)]))
        kinds[_kind(direct)] += 1
    assert kinds["morphism"] and kinds["raise"], kinds


def _assumed_contexts() -> dict:
    """Contexts opened by assume_abelian where a leg fails the exactness
    that lets the square be cancelled, each with the side (mono or epi) on
    which the square then decides: a comma right leg that loses monos, a
    comma left leg that loses epis, a co-comma left leg that loses epis."""
    vect = FinVect(2)
    rep = Rep(ARROW_QUIVER, 2)
    framing = rep.obj((1, 1), [Matrix.build(1, 1, 2, (1,))])
    return {
        "identity/arrow-cokernel": (CommaCategory(
            identity_functor(vect), arrow_cokernel(rep, 0, vect),
            assume_abelian=True), "mono"),
        "arrow-kernel/identity": (CommaCategory(
            arrow_kernel(rep, 0, vect), identity_functor(vect),
            assume_abelian=True), "epi"),
        "arrow-kernel/framed-cocomma": (CoCommaCategory(
            arrow_kernel(rep, 0, vect), hom_into(rep, framing, vect),
            assume_abelian=True), "mono"),
    }


ASSUMED = _assumed_contexts()


def _components_factor(cat, arrow, m, side: str) -> bool:
    """Whether both components of m factor through those of arrow; the
    co-comma left component runs backwards, so it factors the other way."""
    left_side = side
    if isinstance(cat, CoCommaCategory):
        left_side = "epi" if side == "mono" else "mono"
    fa = getattr(cat.left, "factor_through_" + left_side)(arrow.data[0], m.data[0])
    gb = getattr(cat.right, "factor_through_" + side)(arrow.data[1], m.data[1])
    return fa is not None and gb is not None


@pytest.mark.parametrize("name", sorted(ASSUMED))
def test_square_decides_where_a_leg_loses_monos_or_epis(name):
    """Every mono and epi pair up to total dimension 2, exhaustively.  An
    assume_abelian context without the flags that cancel the square still
    factors per component and checks the square of the unique component
    pair: it agrees with the hom-space solve, and finds no morphism for
    pairs whose components factor but whose square fails."""
    cat, side = ASSUMED[name]
    objs = list(cat.enumerate_objects(2))
    decided_by_square = Counter()
    for x, k, t in itertools.product(objs, repeat=3):
        for mono in all_homs(cat, k, x, 4096):
            if not cat.is_mono(mono):
                continue
            for m in all_homs(cat, t, x, 4096):
                u = cat.factor_through_mono(mono, m)
                assert u == try_solve_left(cat, t, k, [(mono, m)])
                if u is None and _components_factor(cat, mono, m, "mono"):
                    decided_by_square["mono"] += 1
        for epi in all_homs(cat, x, k, 4096):
            if not cat.is_epi(epi):
                continue
            for m in all_homs(cat, x, t, 4096):
                u = cat.factor_through_epi(epi, m)
                assert u == try_solve_right(cat, k, t, [(epi, m)])
                if u is None and _components_factor(cat, epi, m, "epi"):
                    decided_by_square["epi"] += 1
    assert decided_by_square[side], decided_by_square


# -- trusted constructions pass the checked one --------------------------


def _rebuilt(cat, m):
    """m rebuilt through the public constructor that checks it."""
    if isinstance(cat, (CommaCategory, CoCommaCategory)):
        return cat.mor(m.source, m.target, _rebuilt(cat.left, m.data[0]),
                       _rebuilt(cat.right, m.data[1]))
    if isinstance(cat, Rep):
        return cat.mor(m.source, m.target, m.data)
    # a FinVect morphism is any matrix of the right shape
    return cat.mor_from_flat(m.source, m.target, cat.mor_flat(m))


def _factorizations(cat, rng, max_dim) -> list:
    """The morphisms that factoring one sampled mono pair and one sampled
    epi pair returns; a None or a raise returns none."""
    mono, m = _mono_pair(cat, rng, max_dim)
    epi, n = _epi_pair(cat, rng, max_dim)
    made = [_outcome(lambda: cat.factor_through_mono(mono, m)),
            _outcome(lambda: cat.factor_through_epi(epi, n))]
    return [u for u in made if _kind(u) == "morphism"]


@pytest.mark.parametrize("name, p", CASES)
def test_trusted_morphisms_pass_the_checked_constructor(name, p):
    """Linear combinations (also through mor_from_flat, since an additive
    instance builds them directly), kernel and cokernel arrows, induced
    maps, hom-basis elements, subobject monos, biproduct arrows and
    factorizations through a mono or an epi, on sampled objects; and the
    subobject monos of every object up to MAX_DIM, which in the
    identity/identity context are the objects of the lattice benchmark."""
    cat = CONTEXTS[p][name]
    rng = random.Random(p)
    built = Counter()
    for _ in range(12):
        x = cat.sample_object(rng, MAX_DIM[p])
        y = cat.sample_object(rng, MAX_DIM[p])
        f = random_hom(cat, rng, x, y)
        g = random_hom(cat, rng, x, y)
        _, injections, projections = cat.biproduct(x, y)
        made = {
            "linear": [f, g, cat.add(f, g), cat.negate(f), cat.scale(p - 1, g)],
            "universal": [cat.kernel(f)[1], cat.cokernel(f)[1],
                          *induced_morphism(cat, f)],
            "hom-basis": cat.hom_basis(x, y),
            "subobject": [s.mono for z in (x, y)
                          for s in cat.enumerate_subobjects(z)],
            "biproduct": [*injections, *projections],
            "factorization": _factorizations(cat, rng, MAX_DIM[p]),
        }
        for kind, ms in made.items():
            for m in ms:
                assert _rebuilt(cat, m) == m, kind
                built[kind] += 1
        # an additive instance builds linear combinations without a check
        for m in made["linear"]:
            assert cat.mor_from_flat(m.source, m.target, cat.mor_flat(m)) == m
    for x in cat.enumerate_objects(MAX_DIM[p]):
        for s in cat.enumerate_subobjects(x):
            assert _rebuilt(cat, s.mono) == s.mono
            built["enumerated"] += 1
    assert built["linear"] == 12 * 5 and built["universal"] == 12 * 5
    assert built["biproduct"] == 12 * 4
    assert built["hom-basis"] and built["subobject"] and built["enumerated"]
    assert built["factorization"], built


def test_combinations_stay_checked_over_a_non_additive_leg():
    """With a one_plus leg the square is not linear, so a sum of two
    morphisms can break it; add must refuse it, not trust it."""
    vect = FinVect(2)
    cat = CommaCategory(one_plus(vect), identity_functor(vect),
                        assume_abelian=True)
    x = cat.obj(0, 1, cat.cone.identity(1))
    with pytest.raises(ExactnessViolation,
                       match="^linear combination: structure square does not commute"):
        cat.add(cat.identity(x), cat.identity(x))
