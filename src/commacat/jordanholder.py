"""Composition series.

An object is simple when its subobject lattice holds only the zero
subobject and the whole object.  A composition series is grown by
repeatedly picking a minimal nonzero subobject above the current stage;
the chosen one is either the first in canonical enumeration order or a
seeded-random pick, and the factor multiset is provably independent of
that choice, which the tests exercise rather than assume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import CategoryInstance
from .errors import CertificateFailure
from .stability import SubobjectLattice, lattice_for


def is_simple(cat: CategoryInstance, x) -> bool:
    """Nonzero with no proper nontrivial subobject."""
    return not cat.is_zero_object(x) and \
        not SubobjectLattice(cat, x).proper_classes()


@dataclass(frozen=True)
class JHFiltration:
    """steps runs from the zero subobject to x; factor i is the simple
    steps[i + 1] / steps[i], of class factor_classes[i]."""

    steps: tuple
    factor_classes: tuple

    @property
    def length(self) -> int:
        return len(self.factor_classes)

    def factor_multiset(self) -> tuple:
        return tuple(sorted(self.factor_classes))


def jh_filtration(cat: CategoryInstance, x, policy: str = "canonical",
                  seed: int = 0,
                  lattice: Optional[SubobjectLattice] = None) -> JHFiltration:
    """Build a composition series for nonzero x.

    policy "canonical" takes, at each stage, the first strictly larger
    subobject of minimal positive length jump; "random" draws uniformly
    among those, seeded.  Both read them from SubobjectLattice.best_above
    under minus the length, which asks the order only at the least length
    with a member above the stage.  A minimal jump is exactly a simple
    factor: SubobjectLattice.chain says why, and checks it where the
    context is not abelian_capable.
    """
    if policy not in ("canonical", "random"):
        raise ValueError("policy must be 'canonical' or 'random'")
    if cat.is_zero_object(x):
        if lattice is not None:
            lattice_for(cat, x, lattice)
        return JHFiltration((), ())
    rng = random.Random(seed)
    lat = lattice_for(cat, x, lattice)

    def pick(found):
        if policy == "canonical":
            return next(found, None)
        options = list(found)
        return rng.choice(options) if options else None

    steps, factor_classes = lat.chain(
        lambda c, below: -sum(c), pick, lambda cls, proper: not proper,
        "composition factor is not simple")
    return JHFiltration(steps, factor_classes)


def length(cat: CategoryInstance, x,
           lattice: Optional[SubobjectLattice] = None) -> int:
    """Composition length; checked independent of the selection policy."""
    canonical = jh_filtration(cat, x, "canonical", lattice=lattice)
    probe = jh_filtration(cat, x, "random", seed=1, lattice=lattice)
    if probe.length != canonical.length:
        raise CertificateFailure("composition length depended on the policy")
    return canonical.length


def comma_simples(cat) -> tuple:
    """The one-sided triples over component simples, each re-verified to
    have no proper nontrivial subobject."""
    out = []
    for x in cat.simples():
        if not is_simple(cat, x):
            raise CertificateFailure(
                f"declared simple {cat.describe_object(x)} has a proper "
                "nontrivial subobject")
        out.append(x)
    return tuple(out)
