"""The dual-leg construction: triples (a, b, alpha: F a -> G b) with a
covariant left functor and a contravariant right functor, where morphisms
reverse the left component.

A morphism x -> y carries (f: y.a -> x.a, g: x.b -> y.b) subject to
x.alpha o F(f) = G(g) o y.alpha.  This is the comma construction with the
left component read in the opposite category, and CommaCategory runs it:
the kernel of a morphism is built from the cokernel of f and the kernel of
g, and dually for cokernels, and a subobject is a pair (quotient of a,
subobject of b) whose structure map solves through the quotient.

The abelian gate wants the left leg right exact and the right leg to send
cokernels to kernels, which is what the contravariant left_exact flag
declares here (hom-into functors always qualify).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .comma import CommaCategory, CommaObject, glued_hom_basis, glued_subobjects
from .functors import FunctorSpec


@dataclass(frozen=True)
class CoCommaObject(CommaObject):
    """Left object, right object, and structure map F(a) -> G(b)."""


class CoCommaCategory(CommaCategory):
    """Triples over a covariant F and a contravariant G, reversed on the
    left: a morphism x -> y is (f: y.a -> x.a, g: x.b -> y.b)."""

    _object_class = CoCommaObject
    left_reversed = True

    def _check_variance(self, f: FunctorSpec, g: FunctorSpec) -> None:
        if f.contravariant:
            raise ValueError("left functor must be covariant")
        if not g.contravariant:
            raise ValueError("right functor must be contravariant; "
                             "use the plain comma construction otherwise")

    # each glued class holds its own entry points and caches, so that
    # perfbench/tracing.py times the two constructions apart
    mor = CommaCategory.mor
    mor_from_flat = CommaCategory.mor_from_flat
    kernel = CommaCategory.kernel
    cokernel = CommaCategory.cokernel

    def hom_basis(self, x, y) -> tuple:
        return _cocomma_hom_basis(self, x, y)

    def enumerate_subobjects(self, x) -> tuple:
        self._require_abelian()
        return _cocomma_subobjects(self, x)


@cache
def _cocomma_hom_basis(cat: CoCommaCategory, x: CoCommaObject,
                       y: CoCommaObject) -> tuple:
    return glued_hom_basis(cat, x, y)


@cache
def _cocomma_subobjects(cat: CoCommaCategory, x: CoCommaObject) -> tuple:
    return glued_subobjects(cat, x)
