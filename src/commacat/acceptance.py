"""Executable acceptance suite.

Each criterion is a standalone runner returning a deterministic result:
a stable key, a pass flag, counters describing how much work was
certified, and the failure messages when something broke.  The CLI
selftest and the test suite both call these runners, so a report line
and a test assertion always agree.

Every expected value here is either recomputed by an independent oracle
inside the criterion (brute-force filtration search, rational grid walk,
categorical cancellation) or is a structural identity checked by
recomposition.  Nothing is compared against a hardcoded transcript.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .cocomma import CoCommaCategory
from .comma import CommaCategory
from .core import (
    _hom_action,
    all_homs,
    certify_morphism,
    hom_dim,
    random_hom,
    subobject_ses,
    verify_cokernel_universal,
    verify_kernel_universal,
)
from .counterexample import run_counterexample
from .errors import CertificateFailure
from .functors import hom_from, hom_into, identity_functor, tensor
from .instances import ARROW_QUIVER, FinVect, Rep
from .jordanholder import jh_filtration, length
from .kgroup import cls, decompose, verify_additivity
from .linalg import Matrix, _made, rank
from .stability import (
    GaussianRational,
    StabilityFunction,
    SubobjectLattice,
    alpha_grid_probe,
    alpha_scan,
    exhaustive_hn_search,
    hn_filtration,
    make_comma_stability,
    restrict_comma_stability,
)
from .workspace import bundled_workspace_path, load_workspace


@dataclass(frozen=True)
class CriterionResult:
    key: str
    details: dict
    failures: tuple
    elapsed: float          # wall clock, reported on stderr only

    @property
    def passed(self) -> bool:
        return not self.failures


def _finish(key, t0, failures, details, budget=0.0) -> CriterionResult:
    """budget is the criterion's runtime bound in seconds; 0 means none."""
    elapsed = time.monotonic() - t0
    if budget and elapsed > budget:
        failures = list(failures)
        failures.append(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s bound")
    return CriterionResult(key, dict(details), tuple(failures), elapsed)


def _arrow_quiver_rep() -> Rep:
    return Rep(ARROW_QUIVER, 2)


def _arrow_context() -> CommaCategory:
    vect = FinVect(2)
    return CommaCategory(identity_functor(vect), identity_functor(vect))


def _dim_charge() -> StabilityFunction:
    # Z_A = -dim on the section side, Z_B = i*dim on the other
    za = StabilityFunction((GaussianRational(Fraction(-1), Fraction(0)),))
    zb = StabilityFunction((GaussianRational(Fraction(0), Fraction(1)),))
    return make_comma_stability(za, zb)


# 1: kernels, cokernels, and induced isomorphisms across four contexts


def abelian_universality(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    vect = FinVect(2)
    rep = _arrow_quiver_rep()
    sink_proj = rep.obj((0, 1), [Matrix.build(1, 0, 2, ())])
    lefts = [identity_functor(vect), tensor(vect, 2)]
    rights = [identity_functor(vect), hom_from(rep, sink_proj, vect)]
    rng = random.Random(9176 + seed)
    # what the verifiers draw must not move the sampled morphisms
    check_rng = random.Random(9176 + seed)
    failures = []
    checked = 0
    per_context = 125
    for left in lefts:
        for right in rights:
            cat = CommaCategory(left, right)
            for _ in range(per_context):
                x = cat.sample_object(rng, 4)
                y = cat.sample_object(rng, 4)
                m = random_hom(cat, rng, x, y)
                *_, found = certify_morphism(cat, m, check_rng)
                for check, violations in found.items():
                    failures += [f"{check}: {v}" for v in violations]
                checked += 1
    return _finish("abelian-universality", t0, failures,
                   {"contexts": 4, "morphisms": checked}, budget=60.0)


# 2: class vectors are additive, blind to the structure map, and split


def class_additivity(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    cat = _arrow_context()
    vect = cat.left
    failures = []
    sequences = [subobject_ses(cat, s) for x in cat.enumerate_objects(4)
                 for s in cat.enumerate_subobjects(x)]
    report = verify_additivity(cat, sequences)
    if report.checked < 200:
        failures.append(f"only {report.checked} sequences were constructed")
    for v in report.violations:
        failures.append(f"additivity: {v}")

    rng = random.Random(40961 + seed)
    alpha_draws = 100
    for _ in range(alpha_draws):
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - a)
        alpha = random_hom(vect, rng, a, b)
        x = cat.obj(a, b, alpha)
        base = cat.split(a, b)
        if cls(cat, x) != cls(cat, base):
            failures.append(
                f"class of {cat.describe_object(x)} noticed the structure map")

    decomposed = 0
    for x in cat.enumerate_objects(3):
        if cat.is_zero_object(x):
            continue
        # the witness is built by short_exact, which raises on a violation
        a_cls, b_cls, _ = decompose(cat, x)
        if a_cls + b_cls != cls(cat, x):
            failures.append("decompose parts do not concatenate to the class")
        decomposed += 1
    return _finish("class-additivity", t0, failures,
                   {"sequences": report.checked, "alpha_draws": alpha_draws,
                    "decompositions": decomposed}, budget=30.0)


# 3: greedy filtration equals the unique brute-force one, exhaustively


def hn_exhaustive(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    cat = _arrow_context()
    z = _dim_charge()
    failures = []
    checked = 0
    for x in cat.enumerate_objects(4):
        if cat.is_zero_object(x):
            continue
        lat = SubobjectLattice(cat, x)
        try:
            greedy = hn_filtration(cat, z, x, lattice=lat)
            brute = exhaustive_hn_search(cat, z, x)
        except CertificateFailure as exc:
            failures.append(f"{cat.describe_object(x)}: {exc}")
            continue
        if greedy.factor_classes != brute:
            failures.append(
                f"{cat.describe_object(x)}: greedy {greedy.factor_classes} "
                f"!= brute force {brute}")
        checked += 1
    return _finish("hn-exhaustive", t0, failures,
                   {"objects": checked}, budget=120.0)


# 4: filtering a one-sided object matches filtering its component


def hn_restriction(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    failures = []
    checked = 0

    def compare(cat, component_cat, z, pad):
        nonlocal checked
        z_a, _ = restrict_comma_stability(z)
        for a in component_cat.enumerate_objects(4):
            if component_cat.is_zero_object(a):
                continue
            x = cat.split(a, cat.right.zero_object())
            inside = hn_filtration(cat, z, x)
            direct = hn_filtration(component_cat, z_a, a)
            got_steps = tuple(cat.class_vector(s.obj) for s in inside.steps)
            want_steps = tuple(component_cat.class_vector(s.obj) + (0,) * pad
                               for s in direct.steps)
            if got_steps != want_steps:
                failures.append(
                    f"{component_cat.describe_object(a)}: embedded steps "
                    f"{got_steps} != component steps {want_steps}")
            if inside.factor_slopes != direct.factor_slopes:
                failures.append(
                    f"{component_cat.describe_object(a)}: factor slopes differ")
            checked += 1

    cat = _arrow_context()
    compare(cat, cat.left, _dim_charge(), pad=1)

    # a left component with two simples, so the embedded filtration has
    # genuinely distinct steps rather than a single semistable jump
    rep = _arrow_quiver_rep()
    rep_cat = CommaCategory(identity_functor(rep), identity_functor(rep))
    z_rep_a = StabilityFunction((GaussianRational(Fraction(1), Fraction(1)),
                                 GaussianRational(Fraction(-1), Fraction(1))))
    z_rep_b = StabilityFunction((GaussianRational(Fraction(0), Fraction(1)),
                                 GaussianRational(Fraction(0), Fraction(1))))
    compare(rep_cat, rep, make_comma_stability(z_rep_a, z_rep_b), pad=2)
    return _finish("hn-restriction", t0, failures,
                   {"objects": checked}, budget=0.0)


# 5: composition series: policy-independent factors, additive length


def composition_series(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    cat = _arrow_context()
    vect = cat.left
    failures = []
    objects = 0
    policies = 5
    for x in cat.enumerate_objects(4):
        if cat.is_zero_object(x):
            continue
        lat = SubobjectLattice(cat, x)
        try:
            canonical = jh_filtration(cat, x, "canonical", lattice=lat)
            for s in range(1, policies + 1):
                probe = jh_filtration(cat, x, "random", seed=seed + s,
                                      lattice=lat)
                if probe.factor_multiset() != canonical.factor_multiset():
                    failures.append(
                        f"{cat.describe_object(x)}: seed {seed + s} factor "
                        "multiset differs from the canonical one")
            total = length(cat, x, lattice=lat)
        except CertificateFailure as exc:
            failures.append(f"{cat.describe_object(x)}: {exc}")
            continue
        left_len = length(vect, x.a) if not vect.is_zero_object(x.a) else 0
        right_len = length(vect, x.b) if not vect.is_zero_object(x.b) else 0
        if total != left_len + right_len:
            failures.append(
                f"{cat.describe_object(x)}: length {total} != "
                f"{left_len} + {right_len}")
        objects += 1
    return _finish("composition-series", t0, failures,
                   {"objects": objects, "seeded_policies": policies},
                   budget=60.0)


# 6: the non-additive left leg breaks exactness, yet its glued category
# with a zero right leg is still abelian (the product)


def counterexample(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    report = run_counterexample(seed=seed)
    failures = []
    if not report.right_exactness_witnessed:
        failures.append("no right-exactness violation was witnessed")
    if report.functor_report.flag_mismatches:
        failures.append("declared flags disagree with observations: "
                        + "; ".join(report.functor_report.flag_mismatches))
    for v in report.abelian_report.violations:
        failures.append(f"abelian suite: {v}")
    if not report.equivalence.clean:
        failures.append("product comparison failed: "
                        + "; ".join(report.equivalence.violations))
    return _finish("counterexample", t0, failures,
                   {"witnessed_violations":
                        len(report.functor_report.right_exact.violations),
                    "equivalence_objects": report.equivalence.objects,
                    "equivalence_hom_checks": report.equivalence.hom_checks,
                    "equivalence_composition_checks":
                        report.equivalence.composition_checks},
                   budget=0.0)


# 7: the dual construction: swapped carriers and the mono criterion


def _cancellation_sweep(cat, tests):
    """Every morphism m: x -> y for x, y in tests, in the order of
    all_homs, with whether m cancels on the left: no nonzero cone from a
    test object is killed by m, that is, composing with m on Hom(t, x) has
    full column rank for every t in tests.

    Composition is bilinear, so for m = sum c_k e_k on the hom basis e_k
    of Hom(x, y) the matrix of composing with m is sum c_k A_k, with A_k
    that of composing with e_k.  Each A_k is composed once per test
    object, when a morphism first needs it, and the test objects are tried
    in order until one fails.
    """
    p = cat.field
    for x in tests:
        for y in tests:
            basis = cat.hom_basis(x, y)
            # t -> the shape of the A_k and their entries (A_k[i])_k
            actions = {}

            def injective(coords, t):
                if t not in actions:
                    mats = [_hom_action(cat, t, x, partial(cat.compose, e))
                            for e in basis]
                    rows, cols = cat.flat_len(t, y), hom_dim(cat, t, x)
                    actions[t] = rows, cols, (list(zip(*(a.entries for a in mats)))
                                              or [()] * (rows * cols))
                rows, cols, per_entry = actions[t]
                entries = tuple(sum(map(operator.mul, coords, e)) % p
                                for e in per_entry)
                return rank(_made(rows, cols, p, entries)) == cols

            coordinates = itertools.product(range(p), repeat=len(basis))
            for coords, m in zip(coordinates, all_homs(
                    cat, x, y, cat.budget.max_vectors)):
                yield m, all(injective(coords, t) for t in tests)


def cocomma_suite(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    vect = FinVect(2)
    cat = CoCommaCategory(identity_functor(vect), hom_into(vect, 1, vect))
    rng = random.Random(55313 + seed)
    check_rng = random.Random(55313 + seed)  # as in abelian_universality
    failures = []
    sampled = 125
    for _ in range(sampled):
        x = cat.sample_object(rng, 4)
        y = cat.sample_object(rng, 4)
        m = random_hom(cat, rng, x, y)
        f, g = m.data
        kobj, kmor = cat.kernel(m)
        coker_f_obj, coker_f = cat.left.cokernel(f)
        ker_g_obj, ker_g = cat.right.kernel(g)
        if kobj.a != coker_f_obj or kobj.b != ker_g_obj:
            failures.append("kernel carrier is not (coker f, ker g)")
        if (kmor.data[0].source, kmor.data[0].target) != (x.a, kobj.a) or \
                kmor.data[0] != coker_f:
            failures.append("kernel left component is not the cokernel of f")
        if kmor.data[1] != ker_g:
            failures.append("kernel right component is not the kernel of g")
        for v in verify_kernel_universal(cat, m, kobj, kmor, check_rng):
            failures.append(f"kernel: {v}")
        cobj, cmor = cat.cokernel(m)
        ker_f_obj, ker_f = cat.left.kernel(f)
        coker_g_obj, coker_g = cat.right.cokernel(g)
        if cobj.a != ker_f_obj or cobj.b != coker_g_obj:
            failures.append("cokernel carrier is not (ker f, coker g)")
        if cmor.data[0] != ker_f:
            failures.append("cokernel left component is not the kernel of f")
        if cmor.data[1] != coker_g:
            failures.append("cokernel right component is not the cokernel of g")
        for v in verify_cokernel_universal(cat, m, cobj, cmor, check_rng):
            failures.append(f"cokernel: {v}")

    exhaustive = 0
    tests = list(cat.enumerate_objects(3))
    for m, categorical in _cancellation_sweep(cat, tests):
        f, g = m.data
        componentwise = cat.left.is_epi(f) and cat.right.is_mono(g)
        if componentwise != categorical:
            failures.append(
                f"mono mismatch on {cat.describe_object(m.source)} -> "
                f"{cat.describe_object(m.target)}: componentwise "
                f"{componentwise}, cancellation {categorical}")
        exhaustive += 1
    return _finish("cocomma-suite", t0, failures,
                   {"sampled_morphisms": sampled,
                    "exhaustive_morphisms": exhaustive}, budget=0.0)


# 8: wall set confirmed by a grid oracle and scale invariance


def bundled_toy_system():
    """The packaged two-step system used by the scan criterion."""
    ws = load_workspace(bundled_workspace_path("coherent_systems"))
    ctx_name = ws.scans["default"]["context"]
    obj_name = ws.scans["default"]["object"]
    cat = ws.contexts[ctx_name]
    obj = ws.objects[obj_name][1]
    geometry = ws.geometries[ws.scans["default"]["geometry"]]
    return cat, obj, geometry, ws.scans["default"]["lo"], ws.scans["default"]["hi"]


def wall_scan(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    cat, system, geometry, lo, hi = bundled_toy_system()
    failures = []
    report = alpha_scan(cat, system, geometry, lo, hi)
    walls = tuple(report.walls)
    try:
        oracle = alpha_grid_probe(cat, system, geometry, lo, hi)
    except CertificateFailure as exc:
        oracle = None
        failures.append(f"grid oracle: {exc}")
    if oracle is not None and walls != oracle:
        failures.append(f"scan walls {walls} != grid oracle walls {oracle}")
    scaled = alpha_scan(cat, system, geometry.scaled(2), lo, hi)
    if tuple(scaled.walls) != walls:
        failures.append(
            f"scaling the functionals by 2 moved the walls: "
            f"{tuple(scaled.walls)} != {walls}")
    if not walls:
        failures.append("the bundled system produced no wall at all")
    return _finish("wall-scan", t0, failures,
                   {"candidates": len(report.candidates),
                    "walls": len(walls)}, budget=60.0)


ALL_CRITERIA = (
    abelian_universality,
    class_additivity,
    hn_exhaustive,
    hn_restriction,
    composition_series,
    counterexample,
    cocomma_suite,
    wall_scan,
)


def run_all(seed: int = 0):
    return tuple(fn(seed) for fn in ALL_CRITERIA)
