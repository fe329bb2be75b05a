"""The sampled-cone verifiers, the solved two-sided inverse, the
solve-path verdict on the induced map and the per-morphism cancellation
test, kept as the references that the rank-identity verifiers, the
componentwise iso test and the component certificate of commacat.core and
the linear cancellation sweep of the co-comma criterion are compared
against.

At each test object the oracle builds the basis of the cones that m kills,
samples a few of them, solves for their factorization through the
candidate and recomposes it.  It tests the same objects as the package
verifiers: the candidate, the source or target of m, every simple and one
sampled object.
"""

from typing import Optional

from commacat.core import (
    CategoryInstance,
    Mor,
    _combine,
    _hom_action,
    induced_morphism,
    try_through_epi,
    try_through_mono,
)
from commacat.errors import ExactnessViolation
from commacat.linalg import kernel_basis, rank

CONES_PER_OBJECT = 2


def hom_kernel(inst, x, y, apply) -> list:
    """Basis of {h in Hom(x, y) : apply(h) = 0} for a linear map apply on
    Hom(x, y), read off the kernel of apply on the hom basis."""
    basis = inst.hom_basis(x, y)
    null = kernel_basis(_hom_action(inst, x, y, apply))
    return [_combine(inst, x, y, basis, null.basis.row(i)) for i in range(null.dim)]


def _cone_samples(inst, rng, cone_basis):
    """A few basis cones and one random combination of all of them."""
    picked = list(cone_basis[:CONES_PER_OBJECT])
    if cone_basis:
        coords = [rng.randrange(inst.field) for _ in cone_basis]
        if any(coords):
            b = cone_basis[0]
            picked.append(_combine(inst, b.source, b.target, cone_basis, coords))
    return picked


def _cone_violations(inst, rng, tests, cones_of, factor, recompose,
                     name: str, cone: str) -> list:
    violations = []
    for t in (*tests, *inst.simples(), inst.sample_object(rng, 2)):
        for h in _cone_samples(inst, rng, cones_of(t)):
            try:
                u = factor(h)
            except ExactnessViolation:
                violations.append(f"factorization through {name} not unique")
                continue
            if u is None:
                violations.append(f"{cone} does not factor through the {name}")
            elif recompose(u) != h:
                violations.append(f"{name} factorization does not recompose")
    return violations


def oracle_kernel_universal(inst, m, kobj, kmor, rng) -> list:
    violations = []
    if inst.compose(m, kmor) != inst.zero_morphism(kobj, m.target):
        violations.append("kernel arrow does not compose to zero")
    if not inst.is_mono(kmor):
        violations.append("kernel arrow is not mono")
    return violations + _cone_violations(
        inst, rng, (kobj, m.source),
        lambda t: hom_kernel(inst, t, m.source, lambda h: inst.compose(m, h)),
        lambda h: try_through_mono(inst, kmor, h),
        lambda u: inst.compose(kmor, u),
        "kernel", "a cone killed by m")


def oracle_cokernel_universal(inst, m, cobj, cmor, rng) -> list:
    violations = []
    if inst.compose(cmor, m) != inst.zero_morphism(m.source, cobj):
        violations.append("cokernel arrow does not compose to zero")
    if not inst.is_epi(cmor):
        violations.append("cokernel arrow is not epi")
    return violations + _cone_violations(
        inst, rng, (cobj, m.target),
        lambda t: hom_kernel(inst, m.target, t, lambda h: inst.compose(h, m)),
        lambda h: try_through_epi(inst, cmor, h),
        lambda u: inst.compose(u, cmor),
        "cokernel", "a cocone killing m")


def inverse_of(inst: CategoryInstance, m: Mor) -> Optional[Mor]:
    """Two-sided inverse of m, or None when m is not invertible."""
    try:
        u = try_through_epi(inst, m, inst.identity(m.source))
    except ExactnessViolation:
        # left inverses exist but are not unique, so m is not epi
        return None
    if u is None:
        return None
    if inst.compose(m, u) != inst.identity(m.target):
        return None
    return u


def induced_iso_oracle(inst: CategoryInstance, m: Mor) -> list:
    """The solve-path verdict on coim(m) -> im(m): the induced map built
    by the glued constructions and solves of induced_morphism, tested by
    its solved two-sided inverse, in the words of verify_induced_iso."""
    try:
        _, mbar, _ = induced_morphism(inst, m)
    except ExactnessViolation as exc:
        return [f"induced morphism does not exist: {exc}"]
    if inverse_of(inst, mbar) is None:
        return ["induced coimage->image morphism is not invertible"]
    return []


def postcomposition_injective(cat, m, tests) -> bool:
    """Categorical cancellation: no nonzero cone is killed by m, that is,
    composing with m on Hom(t, m.source) has full column rank for every t
    in tests."""
    for t in tests:
        action = _hom_action(cat, t, m.source, lambda h: cat.compose(m, h))
        if rank(action) != action.cols:
            return False
    return True
