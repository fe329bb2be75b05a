"""The subobject order compares canonical keys; the hom-space solve it
replaced is kept here as the oracle.  Also the raises that guard exactness
where a solve finds nothing, which must survive `python -O`."""

import random

import pytest

from commacat import functors, instances
from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import subobject_leq, try_solve_left
from commacat.errors import ExactnessViolation
from commacat.functors import (
    apply_on_morphism,
    arrow_cokernel,
    arrow_kernel,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.jordanholder import is_simple, jh_filtration
from commacat.linalg import Matrix
from commacat.stability import (
    GaussianRational,
    StabilityFunction,
    SubobjectLattice,
    hn_filtration,
    is_semistable,
    slope,
)

MAX_DIM = {2: 3, 3: 2}


def _contexts(p: int) -> dict:
    vect = FinVect(p)
    rep = Rep(ARROW_QUIVER, p)
    sink = rep.obj((0, 1), [Matrix.build(1, 0, p, ())])
    framing = rep.obj((1, 1), [Matrix.build(1, 1, p, (1,))])
    return {
        "finvect": vect,
        "rep-arrow-quiver": rep,
        "arrow": CommaCategory(identity_functor(vect), identity_functor(vect)),
        "rep-arrow": CommaCategory(identity_functor(rep), identity_functor(rep)),
        "tensor-hom-from": CommaCategory(tensor(vect, 2),
                                         hom_from(rep, sink, vect)),
        "framed-cocomma": CoCommaCategory(identity_functor(vect),
                                          hom_into(rep, framing, vect)),
        # assume_abelian without the leg flag: key order is confirmed by solve
        "identity-arrow-cokernel": CommaCategory(
            identity_functor(vect), arrow_cokernel(rep, 0, vect),
            assume_abelian=True),
        "arrow-kernel-framed-cocomma": CoCommaCategory(
            arrow_kernel(rep, 0, vect), hom_into(rep, framing, vect),
            assume_abelian=True),
    }


EXACT = ("finvect", "rep-arrow-quiver", "arrow", "rep-arrow",
         "tensor-hom-from", "framed-cocomma")
CONFIRMED = ("identity-arrow-cokernel", "arrow-kernel-framed-cocomma")


@pytest.mark.parametrize("p", sorted(MAX_DIM))
@pytest.mark.parametrize("name", EXACT + CONFIRMED)
def test_key_order_matches_solve(name, p):
    cat = _contexts(p)[name]
    assert cat.subobject_key_order_exact == (name in EXACT)
    objects = pairs = 0
    for x in cat.enumerate_objects(MAX_DIM[p]):
        try:
            subs = cat.enumerate_subobjects(x)
        except ExactnessViolation:
            # an assume_abelian context may fail to enumerate an object;
            # that is its witness, not a statement about the order
            assert name in CONFIRMED
            continue
        objects += 1
        for s in subs:
            assert s.key == cat.subobject_key(s.mono)
        for inner in subs:
            for outer in subs:
                want = try_solve_left(cat, inner.obj, outer.obj,
                                      [(outer.mono, inner.mono)]) is not None
                assert cat.subobject_key_leq(inner.key, outer.key) or not want
                assert subobject_leq(cat, inner, outer) == want
                pairs += 1
    assert objects and pairs


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", EXACT + CONFIRMED)
def test_pruned_up_sets_match_the_order(name, p):
    """strictly_above asks leq only where the classes allow a strict
    inclusion; it must still list every j != i with leq(i, j), in order.
    The co-comma contexts read their left side through _Opposite."""
    cat = _contexts(p)[name]
    objects = 0
    for x in cat.enumerate_objects(3):
        try:
            lat = SubobjectLattice(cat, x)
        except ExactnessViolation:
            assert name in CONFIRMED
            continue
        objects += 1
        for i in range(len(lat.subs)):
            assert lat.strictly_above(i) == [
                j for j in range(len(lat.subs)) if j != i and lat.leq(i, j)]
    assert objects


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", EXACT + CONFIRMED)
def test_best_above_is_the_best_scoring_slice_of_the_up_set(name, p):
    """best_above asks the order only in the best-scoring classes with a
    member above i.  Under minus the length it must list exactly the
    members of strictly_above(i) of least total length; under an HN score,
    the slope of the jump under a charge of the context's rank and then
    its length, exactly the highest-scoring members.  Both in order, and
    nothing where strictly_above(i) is empty."""
    cat = _contexts(p)[name]
    z = _stability_functions(cat.class_rank, 1)[0]

    def hn_score(c, below):
        jump = tuple(q - r for q, r in zip(c, below))
        return slope(z, jump), sum(jump)

    objects = 0
    for x in cat.enumerate_objects(3):
        try:
            lat = SubobjectLattice(cat, x)
        except ExactnessViolation:
            assert name in CONFIRMED
            continue
        objects += 1
        for i in range(len(lat.subs)):
            above = lat.strictly_above(i)
            for score in (lambda c, below: -sum(c), hn_score):
                scores = [score(lat.classes[j], lat.classes[i])
                          for j in above]
                best = max(scores, default=None)
                assert list(lat.best_above(i, score)) == [
                    j for j, s in zip(above, scores) if s == best]
    assert objects


@pytest.mark.parametrize("p", sorted(MAX_DIM))
@pytest.mark.parametrize("name", EXACT + CONFIRMED)
def test_lattice_whole_is_the_identity_subobject(name, p):
    """The lattice finds x among its subobjects by class; that subobject
    is the one whose key is the key of the identity."""
    cat = _contexts(p)[name]
    objects = 0
    for x in cat.enumerate_objects(MAX_DIM[p]):
        try:
            lat = SubobjectLattice(cat, x)
        except ExactnessViolation:
            assert name in CONFIRMED
            continue
        objects += 1
        assert lat.subs[lat.whole_index].key == \
            cat.subobject_key(cat.identity(x))
    assert objects


def _stability_functions(rank: int, count: int = 3) -> list:
    """count seeded stability functions of the given rank: imaginary parts
    0 to 2, and a purely real coefficient strictly negative."""
    rng = random.Random(rank)
    out = []
    for _ in range(count):
        coeffs = []
        for _ in range(rank):
            im = rng.randint(0, 2)
            coeffs.append(GaussianRational(
                rng.randint(-3, 3) if im else rng.randint(-3, -1), im))
        out.append(StabilityFunction(tuple(coeffs)))
    return out


def _factor_objects(lat, filt) -> list:
    """The factor objects of a filtration whose steps come from lat."""
    keys = [t.key for t in lat.subs]
    chain = [keys.index(s.key) for s in filt.steps]
    return [lat.factor_object(i, j) for i, j in zip(chain, chain[1:])]


@pytest.mark.parametrize("p", sorted(MAX_DIM))
@pytest.mark.parametrize("name", EXACT)
def test_greedy_factors_pass_their_own_lattices(name, p):
    """The factor check that hn_filtration and jh_filtration skip in an
    abelian_capable context, kept as their oracle: each HN factor is
    semistable, and each JH factor simple, in the lattice of the factor
    object that factor_object builds by cokernel."""
    cat = _contexts(p)[name]
    assert cat.abelian_capable
    zs = _stability_functions(cat.class_rank)
    factors = 0
    for x in cat.enumerate_objects(MAX_DIM[p]):
        if cat.is_zero_object(x):
            continue
        lat = SubobjectLattice(cat, x)
        for z in zs:
            for f in _factor_objects(lat, hn_filtration(cat, z, x, lat)):
                assert is_semistable(cat, z, f)
                factors += 1
        for policy in ("canonical", "random"):
            filt = jh_filtration(cat, x, policy, lattice=lat)
            for f in _factor_objects(lat, filt):
                assert is_simple(cat, f)
                factors += 1
    assert factors


def test_lattice_without_zero_subobject_raises():
    vect = FinVect(2)
    cat = CommaCategory(one_plus(vect), identity_functor(vect),
                        assume_abelian=True)
    refused = 0
    for x in cat.enumerate_objects(2):
        try:
            SubobjectLattice(cat, x)
        except ExactnessViolation as exc:
            assert cat.describe_object(x) in str(exc)
            refused += 1
    assert refused == 6


def _arrow_object(rep):
    return rep.obj((1, 1), [Matrix.build(1, 1, 2, (1,))])


def test_rep_kernel_raises_when_restriction_fails(monkeypatch):
    rep = Rep(ARROW_QUIVER, 2)
    x = _arrow_object(rep)
    monkeypatch.setattr(instances, "solve", lambda *args: None)
    with pytest.raises(ExactnessViolation):
        rep.kernel(rep.identity(x))


def test_rep_cokernel_raises_when_descent_fails(monkeypatch):
    rep = Rep(ARROW_QUIVER, 2)
    x = _arrow_object(rep)
    monkeypatch.setattr(instances, "solve_left", lambda *args: None)
    with pytest.raises(ExactnessViolation):
        rep.cokernel(rep.zero_morphism(x, x))


@pytest.fixture
def cold_functor_memo():
    """apply_on_morphism keeps recent images.  A test that patches what a
    kind's morphism map calls starts with none, so that no image an earlier
    test left answers in place of the patched map, and ends with none, so
    that no image built under the patch outlives it."""
    apply_on_morphism.cache_clear()
    yield
    apply_on_morphism.cache_clear()


@pytest.mark.parametrize("make, solver", [(arrow_kernel, "solve"),
                                          (arrow_cokernel, "solve_left")])
def test_arrow_functors_raise_when_solve_fails(monkeypatch, cold_functor_memo,
                                                make, solver):
    rep = Rep(ARROW_QUIVER, 2)
    f = make(rep, 0, FinVect(2))
    monkeypatch.setattr(functors, solver, lambda *args: None)
    with pytest.raises(ExactnessViolation):
        apply_on_morphism(f, rep.identity(_arrow_object(rep)))


def test_interval_read_needs_an_abelian_capable_context():
    """An exact key order does not make the interval read sound.  This
    context has one but is opened by assume_abelian: the factor of x by its
    subobject (rep(0,1), k^0) has no unique cokernel, while the interval
    [(rep(0,1), k^0), x] still lists two classes.  factor_proper_classes
    must raise there rather than return them."""
    rep = Rep(ARROW_QUIVER, 2)
    vect = FinVect(2)
    cat = CommaCategory(arrow_kernel(rep, 0, vect), identity_functor(vect),
                        assume_abelian=True)
    assert cat.subobject_key_order_exact and not cat.abelian_capable
    a = _arrow_object(rep)
    x = cat.obj(a, 1, vect.zero_morphism(0, 1))
    lat = SubobjectLattice(cat, x)
    i = lat.classes.index((0, 1, 0))
    j = lat.whole_index
    assert [lat.diff(t, i) for t in lat.strictly_above(i)
            if t != j and lat.leq(t, j)] == [(0, 0, 1), (1, 0, 0)]
    with pytest.raises(ExactnessViolation, match="non-trivial solution"):
        lat.factor_object(i, j)
    with pytest.raises(ExactnessViolation, match="non-trivial solution"):
        lat.factor_proper_classes(i, j)


def test_hn_checks_each_factor_where_the_context_is_not_abelian_capable():
    """Outside an abelian_capable context the greedy step proves nothing
    about a factor, so hn_filtration still builds each one.  With the
    middle simple of the context above steepest and the other two of equal
    slope, the greedy chain jumps from (rep(0,1), k^0) straight to x, whose
    factor has no unique cokernel."""
    rep = Rep(ARROW_QUIVER, 2)
    vect = FinVect(2)
    cat = CommaCategory(arrow_kernel(rep, 0, vect), identity_functor(vect),
                        assume_abelian=True)
    x = cat.obj(_arrow_object(rep), 1, vect.zero_morphism(0, 1))
    z = StabilityFunction((GaussianRational(0, 1), GaussianRational(-5, 1),
                           GaussianRational(0, 1)))
    with pytest.raises(ExactnessViolation, match="non-trivial solution"):
        hn_filtration(cat, z, x)
