"""Stability data: half-plane validity, exact slopes, greedy against
brute-force filtrations, and the wall scan on the two-step system."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commacat.comma import CommaCategory
from commacat.core import Mor, subobject_ses
from commacat.errors import CertificateFailure
from commacat.functors import hom_from, identity_functor
from commacat.instances import ARROW_QUIVER, FinVect, Rep, ToyGeometryConfig
from commacat.jordanholder import jh_filtration
from commacat.linalg import Matrix
from commacat.stability import (
    ZERO,
    GaussianRational,
    Slope,
    StabilityFunction,
    SubobjectLattice,
    alpha_grid_probe,
    alpha_scan,
    evaluate,
    exhaustive_hn_search,
    hn_filtration,
    hn_type,
    is_semistable,
    is_stable,
    make_comma_stability,
    nested_factor_classes,
    restrict_comma_stability,
    slope,
    stability_from_geometry,
    wall_candidates,
)

from test_jordanholder import _oracle_contexts

VECT = FinVect(2)
REP = Rep(ARROW_QUIVER, 2)
ARROW = CommaCategory(identity_functor(VECT), identity_functor(VECT))

# the arrow-instance charge: left simples weigh -1, right simples weigh i
Z = StabilityFunction((GaussianRational(-1, 0), GaussianRational(0, 1)))

seeds = st.integers(0, 10 ** 6)


def triple(a, b, rows):
    return ARROW.obj(a, b, Mor(a, b, Matrix.from_rows(rows, 2, cols=a)))


IDENTITY_MAP = triple(1, 1, [[1]])
ZERO_MAP = triple(1, 1, [[0]])


# -- values and slopes ---------------------------------------------------


def test_gaussian_rational_arithmetic():
    v = GaussianRational(Fraction(1, 2), 3) + GaussianRational(Fraction(-1, 2), -3)
    assert v == ZERO
    assert str(GaussianRational(1, -2)) == "1-2i"


def test_half_plane_validity():
    with pytest.raises(ValueError):
        StabilityFunction((GaussianRational(0, -1),))
    with pytest.raises(ValueError):
        StabilityFunction((GaussianRational(1, 0),))
    with pytest.raises(ValueError):
        StabilityFunction((GaussianRational(0, 0),))
    StabilityFunction((GaussianRational(-3, 0),))  # fine


def test_evaluate_is_linear():
    assert evaluate(Z, (2, 3)) == GaussianRational(-2, 3)
    with pytest.raises(ValueError):
        evaluate(Z, (1,))


def test_slope_values():
    assert slope(Z, (1, 0)) == Slope.infinite()
    assert slope(Z, (0, 1)) == Slope.of(0)
    assert slope(Z, (1, 1)) == Slope.of(1)
    with pytest.raises(ValueError):
        slope(Z, (0, 0))


def _fraction_slope(z, vec):
    """The slope through evaluate, in Fractions: the reference."""
    val = evaluate(z, vec)
    if val == ZERO:
        raise ValueError("the zero class has no slope")
    if val.im == 0:
        return Slope.infinite()
    return Slope.of(-val.re / val.im)


def _random_function(rng, rank):
    """Rational coefficients; real_share of them purely real and negative,
    the rest with positive imaginary part."""
    real_share = rng.choice((0.0, 0.5, 1.0))
    coeffs = []
    for _ in range(rank):
        im = 0 if rng.random() < real_share else \
            Fraction(rng.randint(1, 9), rng.randint(1, 6))
        re = Fraction(rng.randint(-9, 9) if im else rng.randint(-9, -1),
                      rng.randint(1, 6))
        coeffs.append(GaussianRational(re, im))
    return StabilityFunction(tuple(coeffs))


@settings(deadline=None, max_examples=80)
@given(seeds)
def test_integer_slope_matches_the_fraction_slope(seed):
    rng = random.Random(seed)
    z = _random_function(rng, rng.randint(1, 4))
    if rng.random() < 0.5:
        z = make_comma_stability(
            z, _random_function(rng, rng.randint(1, 3)),
            Fraction(rng.randint(1, 9), rng.randint(1, 6)),
            Fraction(rng.randint(1, 9), rng.randint(1, 6)))
    vecs = [(0,) * z.rank] + [tuple(rng.randint(-3, 3) for _ in range(z.rank))
                             for _ in range(16)]
    for v in vecs:
        try:
            want = _fraction_slope(z, v)
        except ValueError:
            with pytest.raises(ValueError):
                slope(z, v)
            continue
        # equal Slopes, so the integer slopes order classes as the
        # reference does
        got = slope(z, v)
        assert got == want and str(got) == str(want)
    for bad in (vecs[1][:-1], vecs[1] + (1,)):
        with pytest.raises(ValueError):
            slope(z, bad)
        with pytest.raises(ValueError):
            _fraction_slope(z, bad)


def test_slope_ordering():
    inf = Slope.infinite()
    assert Slope.of(5) < inf
    assert not inf < inf
    assert Slope.of(Fraction(1, 3)) < Slope.of(Fraction(1, 2))
    assert max(Slope.of(2), inf, Slope.of(-7)) == inf


def test_weighted_sum_and_restriction_round_trip():
    za = StabilityFunction((GaussianRational(-1, 0),))
    zb = StabilityFunction((GaussianRational(0, 1), GaussianRational(-2, 1)))
    z = make_comma_stability(za, zb)
    assert z.rank == 3
    assert z.left_rank == 1
    ra, rb = restrict_comma_stability(z)
    assert ra.coefficients == za.coefficients
    assert rb.coefficients == zb.coefficients
    with pytest.raises(ValueError):
        make_comma_stability(za, zb, x=0)
    with pytest.raises(ValueError):
        restrict_comma_stability(StabilityFunction(za.coefficients))


@pytest.mark.parametrize("coeffs,left_rank", [
    (2, 5), (1, -3), (2, True), (2, 1.0), (0, 1)])
def test_left_rank_outside_0_to_rank_is_refused(coeffs, left_rank):
    with pytest.raises(ValueError, match="left_rank"):
        StabilityFunction((GaussianRational(-1, 0),) * coeffs,
                          left_rank=left_rank)


def test_left_rank_at_either_end_splits():
    c = (GaussianRational(-1, 0), GaussianRational(0, 1))
    for k in (0, 2):
        ra, rb = restrict_comma_stability(StabilityFunction(c, left_rank=k))
        assert ra.coefficients + rb.coefficients == c
        assert ra.rank == k


def test_weighted_sum_scales_components():
    za = StabilityFunction((GaussianRational(-1, 0),))
    zb = StabilityFunction((GaussianRational(0, 1),))
    z = make_comma_stability(za, zb, x=2, y=3)
    assert z.coefficients[0] == GaussianRational(-2, 0)
    assert z.coefficients[1] == GaussianRational(0, 3)


# -- semistability and filtrations ---------------------------------------


def test_simples_are_stable():
    for s in ARROW.simples():
        assert is_stable(ARROW, Z, s)


def test_identity_triple_is_stable():
    assert is_stable(ARROW, Z, IDENTITY_MAP)
    assert is_semistable(ARROW, Z, IDENTITY_MAP)


def test_zero_structure_map_destabilizes():
    # the left axis sits inside with infinite slope
    assert not is_semistable(ARROW, Z, ZERO_MAP)


def test_hn_of_the_split_triple():
    hn = hn_filtration(ARROW, Z, ZERO_MAP)
    assert hn.factor_classes == ((1, 0), (0, 1))
    assert hn.factor_slopes == (Slope.infinite(), Slope.of(0))
    assert hn.length == 2


def test_hn_of_a_semistable_object_is_one_step():
    hn = hn_filtration(ARROW, Z, IDENTITY_MAP)
    assert hn.length == 1
    assert hn.factor_slopes == (Slope.of(1),)


def test_hn_classes_sum_to_the_total():
    rng = random.Random(17)
    for _ in range(20):
        x = ARROW.sample_object(rng, 4)
        if ARROW.is_zero_object(x):
            continue
        hn = hn_filtration(ARROW, Z, x)
        total = tuple(sum(c) for c in zip(*hn.factor_classes))
        assert total == ARROW.class_vector(x)


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_hn_slopes_strictly_decrease(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 4)
    if ARROW.is_zero_object(x):
        return
    hn = hn_filtration(ARROW, Z, x)
    for s1, s2 in zip(hn.factor_slopes, hn.factor_slopes[1:]):
        assert s2 < s1


@settings(deadline=None, max_examples=12)
@given(seeds)
def test_greedy_matches_the_brute_force_search(seed):
    rng = random.Random(seed)
    x = ARROW.sample_object(rng, 4)
    if ARROW.is_zero_object(x):
        return
    assert hn_type(ARROW, Z, x) == exhaustive_hn_search(ARROW, Z, x)


def test_hn_refuses_a_stage_with_nothing_above_it():
    lat = SubobjectLattice(ARROW, ZERO_MAP)
    lat.classes_above = lambda i: []
    with pytest.raises(CertificateFailure,
                       match="no strictly larger subobject found"):
        hn_filtration(ARROW, Z, ZERO_MAP, lattice=lat)


def test_hn_rejects_the_zero_object():
    with pytest.raises(ValueError):
        hn_filtration(ARROW, Z, ARROW.zero_object())


def test_hn_refuses_factor_slopes_that_do_not_decrease():
    """A chain whose factor classes (0, 1), (1, 0) have slopes 0, then
    inf under Z."""
    lat = SubobjectLattice(ARROW, ZERO_MAP)
    lat.chain = lambda *args: ((), ((0, 1), (1, 0)))
    with pytest.raises(CertificateFailure,
                       match="factor slopes are not strictly decreasing"):
        hn_filtration(ARROW, Z, ZERO_MAP, lattice=lat)


class _RepeatedZero(FinVect):
    """Enumerates the zero subobject twice."""

    def enumerate_subobjects(self, x):
        subs = super().enumerate_subobjects(x)
        return subs + tuple(s for s in subs if s.obj == 0)


def test_lattice_refuses_a_repeated_subobject_key():
    with pytest.raises(CertificateFailure,
                       match="subobject enumeration repeated a key"):
        SubobjectLattice(_RepeatedZero(2), 2)


def test_lattice_reuse_gives_identical_answers():
    lat = SubobjectLattice(ARROW, ZERO_MAP)
    assert hn_type(ARROW, Z, ZERO_MAP, lat) == hn_type(ARROW, Z, ZERO_MAP)


def test_equal_factor_class_sequences_are_one_tuple():
    """A sweep that keeps many filtrations holds each distinct sequence
    of factor classes once: IDENTITY_MAP and ZERO_MAP have one JH
    sequence, and two HN filtrations of ZERO_MAP, each on its own
    lattice, return one tuple."""
    jh_identity = jh_filtration(ARROW, IDENTITY_MAP).factor_classes
    jh_zero = jh_filtration(ARROW, ZERO_MAP).factor_classes
    assert jh_identity == jh_zero == ((0, 1), (1, 0))
    assert jh_identity is jh_zero
    first, second = (hn_filtration(ARROW, Z, triple(1, 1, [[0]]))
                     for _ in range(2))
    assert first.factor_classes == ((1, 0), (0, 1))
    assert first.factor_classes is second.factor_classes


@pytest.mark.parametrize("build", [
    lambda x, lat: hn_filtration(ARROW, Z, x, lattice=lat),
    lambda x, lat: jh_filtration(ARROW, x, lattice=lat),
], ids=["hn", "jh"])
def test_a_lattice_of_another_object_is_refused(build):
    """Read through a lattice of ZERO_MAP, (k^0, k^1) would get the
    factors of ZERO_MAP; both filtrations refuse the foreign lattice."""
    x = triple(0, 1, [[]])
    with pytest.raises(ValueError, match="different object"):
        build(x, SubobjectLattice(ARROW, ZERO_MAP))
    assert build(x, SubobjectLattice(ARROW, x)).factor_classes == ((0, 1),)


def test_seesaw_inequality_over_subobject_sequences():
    """On each short exact sequence the middle slope sits between the
    outer two."""
    z_rep = StabilityFunction((GaussianRational(1, 1), GaussianRational(-1, 1)))
    checked = 0
    for x in REP.enumerate_objects(3):
        if REP.is_zero_object(x):
            continue
        for s in REP.enumerate_subobjects(x):
            ses = subobject_ses(REP, s)
            parts = [ses.sub.source, ses.quot.target]
            if any(REP.is_zero_object(p) for p in parts):
                continue
            mus = slope(z_rep, REP.class_vector(ses.sub.source))
            muq = slope(z_rep, REP.class_vector(ses.quot.target))
            mum = slope(z_rep, REP.class_vector(x))
            assert min(mus, muq) <= mum <= max(mus, muq)
            checked += 1
    assert checked > 50


# -- the parameter scan --------------------------------------------------


def scan_setup():
    """Sections k mapping into the global sections of a rank-two bundle
    stand-in; one genuine wall inside (1/2, 4)."""
    probe = REP.projective(0)
    cat = CommaCategory(identity_functor(VECT), hom_from(REP, probe, VECT),
                        assume_abelian=True)
    bundle = REP.obj((1, 2), [Matrix.from_rows([[1], [0]], 2)])
    sigma = Mor(1, 1, Matrix.from_rows([[1]], 2))
    system = cat.obj(1, bundle, sigma)
    geometry = ToyGeometryConfig.scan_coherent()
    return cat, system, geometry


def test_geometry_stability_needs_positive_alpha():
    with pytest.raises(ValueError):
        stability_from_geometry(ToyGeometryConfig.scan_coherent(), 0)


def test_scan_range_validation():
    cat, system, geometry = scan_setup()
    with pytest.raises(ValueError):
        alpha_scan(cat, system, geometry, 2, 1)
    with pytest.raises(ValueError):
        alpha_scan(cat, system, geometry, 0, 1)
    for lo, hi in ((2, 1), (1, 1), (0, 1)):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            alpha_grid_probe(cat, system, geometry, lo, hi)


def test_wall_candidates_frozen():
    cat, system, geometry = scan_setup()
    lat = SubobjectLattice(cat, system)
    assert len(lat.subs) == 9
    cands = wall_candidates(lat, geometry, Fraction(1, 2), 4)
    assert cands == (Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(2))


def test_scan_certifies_exactly_one_wall():
    cat, system, geometry = scan_setup()
    report = alpha_scan(cat, system, geometry, Fraction(1, 2), 4)
    assert report.walls == (Fraction(2),)
    cert = next(c for c in report.certificates if c.alpha == 2)
    assert cert.type_below == ((0, 0, 2), (1, 1, 0))
    assert cert.type_at == ((1, 1, 2),)
    assert cert.type_above == ((1, 1, 1), (0, 0, 1))
    # candidates that certify as non-walls keep the same type both sides
    for c in report.certificates:
        if not c.is_wall:
            assert c.type_below == c.type_above


def test_grid_oracle_agrees():
    cat, system, geometry = scan_setup()
    report = alpha_scan(cat, system, geometry, Fraction(1, 2), 4)
    oracle = alpha_grid_probe(cat, system, geometry, Fraction(1, 2), 4)
    assert tuple(sorted(report.walls)) == oracle


def test_scaling_the_geometry_moves_nothing():
    cat, system, geometry = scan_setup()
    base = alpha_scan(cat, system, geometry, Fraction(1, 2), 4)
    doubled = alpha_scan(cat, system, geometry.scaled(2), Fraction(1, 2), 4)
    assert base.walls == doubled.walls
    assert base.candidates == doubled.candidates


def test_rank_degenerate_geometry_has_candidates_but_no_walls():
    cat, system, _ = scan_setup()
    flat = ToyGeometryConfig.default_coherent()
    report = alpha_scan(cat, system, flat, Fraction(1, 2), 4)
    assert set(report.candidates) == {Fraction(1), Fraction(2)}
    assert report.walls == ()


def test_nested_factor_classes_cover_the_total():
    cat, system, _ = scan_setup()
    lat = SubobjectLattice(cat, system)
    classes = nested_factor_classes(lat)
    assert (1, 1, 2) in classes
    assert all(any(c) for c in classes)


# -- the greedy step against the walk over the whole up-set -------------


def _reference_steepest(lat, z, cur):
    """The HN step over the whole up-set, the oracle for hn_filtration's
    step: score every member of strictly_above(cur) and keep the best,
    refusing a tie."""
    best = best_score = None
    for t in lat.strictly_above(cur):
        diff = lat.diff(t, cur)
        score = (slope(z, diff), sum(diff))
        if best_score is None or score > best_score:
            best, best_score, ties = t, score, 1
        elif score == best_score:
            ties += 1
    if best is not None and ties != 1:
        raise CertificateFailure(
            "maximal destabilizing subobject is not unique; "
            "the greedy invariant is broken")
    return best


def _reference_hn(lat, z):
    """The step keys and factor classes of the reference walk."""
    chain = [lat.zero_index]
    while chain[-1] != lat.whole_index:
        chain.append(_reference_steepest(lat, z, chain[-1]))
    return ([lat.subs[i].key for i in chain],
            tuple(lat.diff(j, i) for i, j in zip(chain, chain[1:])))


def _hn_outcome(walk):
    """What a walk returns, or the message of the CertificateFailure it
    raises."""
    try:
        return walk()
    except CertificateFailure as exc:
        return str(exc)


class _DoubledLattice(SubobjectLattice):
    """Every member of each class above a stage listed twice.  The
    inherited strictly_above reads classes_above, so both walks see each
    subobject twice, and every step has a tie at the top."""

    def classes_above(self, i):
        return [(c, members * 2)
                for c, members in super().classes_above(i)]


def _dim_charge(cat):
    """-dim on each left simple, i*dim on each right one."""
    za = StabilityFunction((GaussianRational(-1, 0),) * cat.left.class_rank)
    zb = StabilityFunction((GaussianRational(0, 1),) * cat.right.class_rank)
    return make_comma_stability(za, zb)


# the scan geometry for each rank of the right-hand class lattice
GEOMETRIES = {1: ToyGeometryConfig(deg=(1,), rk=(1,)),
              2: ToyGeometryConfig.scan_coherent()}


def _scan_charges(cat, x, geometry, lo=Fraction(1, 8), hi=8):
    """stability_from_geometry at lo, at hi, and at every candidate that
    alpha_scan reports in (lo, hi) and half the least gap either side of
    it.  The candidates are where two factor slopes cross, so they hold
    every wall, and they are where a tie is likeliest."""
    report = alpha_scan(cat, x, geometry, lo, hi)
    pts = (Fraction(lo), *report.candidates, Fraction(hi))
    eps = min(q - p for p, q in zip(pts, pts[1:])) / 2
    alphas = {pts[0], pts[-1]}
    for w in report.candidates:
        alphas |= {w - eps, w, w + eps}
    return len(report.walls), [stability_from_geometry(geometry, a)
                               for a in sorted(alphas)]


def test_hn_steps_match_the_walk_over_the_whole_up_set():
    """hn_filtration scores each class above a stage once and asks the
    order only in the first score group with a member above it.  On each
    of the 278 nonzero objects of the arrow and framed co-comma contexts,
    and on the scan system, which has a genuine wall, its step keys and
    factor classes are the reference walk's under the dim charge and
    under the scan geometry around every candidate.  With every member
    listed twice, both refuse the tie with the same message."""
    cases = [scan_setup()]
    for cat, max_dim in _oracle_contexts():
        cases += [(cat, x, GEOMETRIES[cat.right.class_rank])
                  for x in cat.enumerate_objects(max_dim)
                  if not cat.is_zero_object(x)]
    walls = 0
    for cat, x, geometry in cases:
        lat = SubobjectLattice(cat, x)
        seen, charges = _scan_charges(cat, x, geometry)
        walls += seen
        for z in [_dim_charge(cat), *charges]:
            hn = hn_filtration(cat, z, x, lattice=lat)
            assert ([s.key for s in hn.steps], hn.factor_classes) == \
                _reference_hn(lat, z)
        doubled = _DoubledLattice(cat, x)
        z = _dim_charge(cat)
        refusal = _hn_outcome(lambda: _reference_hn(doubled, z))
        assert refusal.startswith("maximal destabilizing subobject is not")
        assert _hn_outcome(
            lambda: hn_filtration(cat, z, x, lattice=doubled)) == refusal
    assert len(cases) == 279 and walls >= 1
