"""Inputs, per-item work and output checks of the in-process workloads.

Traced calls go through module attributes (`stability.hn_filtration`, not
a name imported at load time), so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from commacat import (cocomma, comma, core, functors, instances, jordanholder,
                      kgroup, linalg, stability)

# lattice: every nonzero object of the identity-identity arrow category up
# to these total dimensions, per field
LATTICE_BOUNDS = ((2, 5), (3, 4))
# lattice: HN filtrations of objects up to this total dimension are checked
# against the exhaustive search oracle
ORACLE_MAX_DIM = 3
# certify: morphisms certified per pass
CERTIFY_ITEMS = 2000
CERTIFY_MAX_DIM = 4


# The contexts and the charge below repeat private helpers of
# commacat.acceptance on purpose: a refactor of the battery must not change
# what this benchmark measures.


def dim_charge():
    """Z_A = -dim on the left component, Z_B = i*dim on the right."""
    g = stability.GaussianRational
    za = stability.StabilityFunction((g(Fraction(-1), Fraction(0)),))
    zb = stability.StabilityFunction((g(Fraction(0), Fraction(1)),))
    return stability.make_comma_stability(za, zb)


def arrow_context(p: int):
    vect = instances.FinVect(p)
    return comma.CommaCategory(functors.identity_functor(vect),
                               functors.identity_functor(vect))


def certify_contexts(p: int) -> list:
    """The four comma contexts of the abelian-universality criterion
    (identity or tensor left leg, identity or hom_from the sink projective
    on the right) and the framed-modules co-comma context, over F_p."""
    vect = instances.FinVect(p)
    rep = instances.Rep(instances.Quiver(2, ((0, 1),)), p)
    sink = rep.obj((0, 1), [linalg.Matrix.build(1, 0, p, ())])
    framing = rep.obj((1, 1), [linalg.Matrix.build(1, 1, p, (1,))])
    out = []
    for left in (functors.identity_functor(vect), functors.tensor(vect, 2)):
        for right in (functors.identity_functor(vect),
                      functors.hom_from(rep, sink, vect)):
            out.append(comma.CommaCategory(left, right))
    out.append(cocomma.CoCommaCategory(functors.identity_functor(vect),
                                       functors.hom_into(rep, framing, vect)))
    return out


def build_contexts(workload: str) -> list:
    if workload == "lattice":
        return [arrow_context(p) for p, _ in LATTICE_BOUNDS]
    if workload == "certify":
        return certify_contexts(2) + certify_contexts(3)
    return []


# -- lattice --------------------------------------------------------------


class Lattice:
    """Subobject lattice, dim-charge HN filtration and canonical JH series
    of every small arrow-category object, in a seeded order."""

    def __init__(self, seed: int, bounds=LATTICE_BOUNDS):
        self.z = dim_charge()
        items = []
        for p, max_dim in bounds:
            cat = arrow_context(p)
            items += [(cat, x) for x in cat.enumerate_objects(max_dim)
                      if not cat.is_zero_object(x)]
        # the object set is exhaustive; the seed fixes the order, and with
        # it which cache entries each object finds warm
        random.Random(seed).shuffle(items)
        self.items = items
        self.oracle = {}

    def run_item(self, item):
        cat, x = item
        lat = stability.SubobjectLattice(cat, x)
        hn = stability.hn_filtration(cat, self.z, x, lattice=lat)
        jh = jordanholder.jh_filtration(cat, x, "canonical", lattice=lat)
        return hn.factor_classes, jh.factor_classes, len(lat.subs)

    def check(self, item, result) -> list:
        cat, x = item
        hn_classes, jh_classes, _ = result
        whole = kgroup.cls(cat, x)
        problems = []
        if _sum(hn_classes, len(whole)) != whole:
            problems.append("HN factor classes do not sum to the class")
        if _sum(jh_classes, len(whole)) != whole:
            problems.append("JH factor classes do not sum to the class")
        if len(jh_classes) != cat.dim_total(x):
            problems.append("JH length differs from the total dimension")
        if cat.dim_total(x) <= ORACLE_MAX_DIM:
            key = (cat.field, x)
            if key not in self.oracle:
                self.oracle[key] = stability.exhaustive_hn_search(cat, self.z, x)
            if self.oracle[key] != hn_classes:
                problems.append("HN factor classes differ from exhaustive search")
        return problems

    def describe(self, results) -> dict:
        return {"objects": len(self.items),
                "subobjects": sum(r[2] for r in results if r is not None)}


def _sum(vectors, n: int) -> tuple:
    return tuple(sum(v[i] for v in vectors) for i in range(n))


# -- certify --------------------------------------------------------------


class Certify:
    """Kernels and cokernels of seeded random morphisms, each certified by
    the universal-property verifiers and the coimage-image isomorphism."""

    def __init__(self, seed: int, count: int = CERTIFY_ITEMS):
        contexts = certify_contexts(2) + certify_contexts(3)
        rng = random.Random(seed)
        items = []
        for i in range(count):
            cat = contexts[i % len(contexts)]
            # sweep the pair of total dimensions so that every seed does
            # comparable work; the seed draws the objects and the morphism
            k = i // len(contexts)
            d = CERTIFY_MAX_DIM + 1
            x = _object_of_dim(cat, rng, k % d)
            y = _object_of_dim(cat, rng, (k // d) % d)
            items.append((cat, core.random_hom(cat, rng, x, y), f"{seed}:{i}"))
        self.items = items

    def run_item(self, item):
        cat, m, rng_seed = item
        rng = random.Random(rng_seed)
        kobj, kmor = cat.kernel(m)
        violations = core.verify_kernel_universal(cat, m, kobj, kmor, rng)
        cobj, cmor = cat.cokernel(m)
        violations += core.verify_cokernel_universal(cat, m, cobj, cmor, rng)
        violations += core.verify_induced_iso(cat, m)
        return violations

    def check(self, item, result) -> list:
        return list(result)

    def describe(self, results) -> dict:
        return {"morphisms": len(self.items)}


def _object_of_dim(cat, rng, dim: int):
    while True:
        x = cat.sample_object(rng, CERTIFY_MAX_DIM)
        if cat.dim_total(x) == dim:
            return x
