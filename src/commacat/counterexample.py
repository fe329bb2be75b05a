"""The converse direction fails, reproducibly.

Abelianness of the triple construction follows from exactness of the two
legs, but not conversely: with the non-additive prepend-a-line functor on
the left and the zero functor on the right, every structure map is forced
to be zero, the construction collapses to a plain product of abelian
categories (hence abelian), and yet the left leg visibly fails
right-exactness on a two-step sequence of vector spaces.

This module packages that demonstration: the witness sequence, the functor
audit that must flag the failure, the full abelian audit of the collapsed
construction, and an exhaustive small-dimension equivalence check against
the honest product category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .comma import CommaCategory, verify_comma_abelian
from .core import CheckReport, Mor, hom_dim, short_exact
from .functors import FunctorReport, check_functor, one_plus, zero_functor
from .instances import FinVect
from .linalg import Matrix


def bundled_ses(field: int = 2):
    """0 -> k -> k^2 -> k -> 0: include the first axis, project the second."""
    vect = FinVect(field)
    sub = Mor(1, 2, Matrix.build(2, 1, field, (1, 0)))
    quot = Mor(2, 1, Matrix.build(1, 2, field, (0, 1)))
    return vect, short_exact(vect, sub, quot)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing the collapsed construction with the product
    category: object counts, hom dimensions, and componentwise
    composition, exhaustively below a dimension bound."""

    objects: int
    hom_checks: int
    composition_checks: int
    violations: tuple

    @property
    def clean(self) -> bool:
        return not self.violations


def product_equivalence_check(cat: CommaCategory, max_dim: int = 2) -> EquivalenceReport:
    """Exhaustively certify that cat behaves as the product of its two
    component categories.

    Checks, for all objects of total dimension <= max_dim: the hom-space
    dimension equals the sum of the component hom dimensions, identities
    are component identities, and composition agrees componentwise on
    every pair of composable basis morphisms.
    """
    violations = []
    objs = list(cat.enumerate_objects(max_dim))
    expected = sum(1
                   for a in cat.left.enumerate_objects(max_dim)
                   for _ in cat.right.enumerate_objects(
                       max_dim - cat.left.dim_total(a)))
    if len(objs) != expected:
        violations.append(
            f"object sweep found {len(objs)} triples, expected {expected} "
            "component pairs")
    hom_checks = 0
    for x in objs:
        ident = cat.identity(x)
        if ident.data != (cat.left.identity(x.a), cat.right.identity(x.b)):
            violations.append(f"identity at {cat.describe_object(x)} is not "
                              "componentwise")
        for y in objs:
            hom_checks += 1
            got = len(cat.hom_basis(x, y))
            want = hom_dim(cat.left, x.a, y.a) + hom_dim(cat.right, x.b, y.b)
            if got != want:
                violations.append(
                    f"hom {cat.describe_object(x)} -> {cat.describe_object(y)}"
                    f" has dimension {got}, product predicts {want}")
    composition_checks = 0
    for x in objs:
        for y in objs:
            for z in objs:
                for m1 in cat.hom_basis(x, y):
                    for m2 in cat.hom_basis(y, z):
                        composed = cat.compose(m2, m1)
                        left = cat.left.compose(m2.data[0], m1.data[0])
                        right = cat.right.compose(m2.data[1], m1.data[1])
                        composition_checks += 1
                        if composed.data != (left, right):
                            violations.append(
                                "composition is not componentwise at "
                                f"{cat.describe_object(x)} -> "
                                f"{cat.describe_object(z)}")
    return EquivalenceReport(len(objs), hom_checks, composition_checks,
                             tuple(violations))


@dataclass(frozen=True)
class CounterexampleReport:
    functor_report: FunctorReport
    abelian_report: CheckReport
    equivalence: EquivalenceReport

    @property
    def right_exactness_witnessed(self) -> bool:
        return bool(self.functor_report.right_exact.violations)

    @property
    def clean(self) -> bool:
        return (self.right_exactness_witnessed
                and not self.functor_report.flag_mismatches
                and self.abelian_report.clean
                and self.equivalence.clean)


def run_counterexample(field: int = 2, seed: int = 0) -> CounterexampleReport:
    """Assemble the whole demonstration.

    The left leg must be caught violating right-exactness on the bundled
    sequence, while the collapsed construction must pass both the abelian
    audit (forced open, since the declared flags refuse it) and the
    product-equivalence sweep.
    """
    vect, ses = bundled_ses(field)
    functor_report = check_functor(one_plus(vect), seed=seed,
                                   extra_ses=(ses,))
    cat = CommaCategory(one_plus(vect), zero_functor(vect, vect),
                        assume_abelian=True)
    abelian_report = verify_comma_abelian(cat, samples=24, seed=seed,
                                          max_dim=2)
    equivalence = product_equivalence_check(cat, max_dim=2)
    return CounterexampleReport(functor_report, abelian_report, equivalence)
