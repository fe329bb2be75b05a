"""The comma construction over a pair of covariant functors with a common
target.

An object is a triple (a, b, alpha) with alpha a morphism F(a) -> G(b) in
the shared target; a morphism is a pair of component morphisms whose
structure square commutes, checked at construction time.  When the left
functor is right exact and the right functor is left exact the construction
is abelian, and kernels, cokernels, and biproducts are computed
componentwise with the connecting structure map recovered by an exact
linear solve.  A failed or ambiguous solve raises instead of patching the
result: that is the mechanism by which missing exactness surfaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Any

from .core import (
    CategoryInstance,
    Mor,
    ShortExactSequence,
    Subobject,
    _combine,
    all_homs,
    hom_dim,
    random_hom,
    short_exact,
    solve_right,
    solve_through_epi,
    solve_through_mono,
    try_through_mono,
    verify_category,
)
from .errors import CapabilityError, ForeignMorphism
from .functors import FunctorSpec, apply_on_morphism, apply_on_object
from .instances import DEFAULT_BUDGET, Budget
from .linalg import Matrix, Subspace, kernel_basis


@dataclass(frozen=True)
class CommaObject:
    """Left object, right object, and the structure map between their
    images in the shared target category."""

    a: Any
    b: Any
    alpha: Mor


@dataclass(frozen=True)
class CommaCategory(CategoryInstance):
    """Category of triples (a, b, alpha: F a -> G b) over covariant F, G.

    assume_abelian forces the abelian interface open even when the
    declared functor flags do not justify it; the connecting-map solves
    then act as live witnesses, raising when a construction fails.
    """

    left_functor: FunctorSpec
    right_functor: FunctorSpec
    budget: Budget = DEFAULT_BUDGET
    assume_abelian: bool = False

    def __post_init__(self):
        f, g = self.left_functor, self.right_functor
        if f.contravariant or g.contravariant:
            raise ValueError("this construction needs covariant functors; "
                             "the dual wrapper handles a contravariant right leg")
        if f.target != g.target:
            raise ValueError("functor targets disagree")
        if f.source.field != g.source.field or f.source.field != f.target.field:
            raise ValueError("all three categories must share one prime field")

    # component categories

    @property
    def left(self) -> CategoryInstance:
        return self.left_functor.source

    @property
    def right(self) -> CategoryInstance:
        return self.right_functor.source

    @property
    def cone(self) -> CategoryInstance:
        return self.left_functor.target

    @property
    def field(self) -> int:
        return self.left_functor.target.field

    @property
    def abelian_capable(self) -> bool:
        return self.left_functor.right_exact and self.right_functor.left_exact

    @property
    def additive(self) -> bool:
        """Whether both legs are additive, which makes the structure-square
        condition linear in the component morphisms."""
        return self.left_functor.additive and self.right_functor.additive

    def _require_abelian(self) -> None:
        if not (self.abelian_capable or self.assume_abelian):
            raise CapabilityError(
                "abelian structure needs a right-exact left leg and a "
                "left-exact right leg; pass assume_abelian to probe anyway")

    # construction helpers

    def obj(self, a, b, alpha: Mor) -> CommaObject:
        fa = apply_on_object(self.left_functor, a)
        gb = apply_on_object(self.right_functor, b)
        if alpha.source != fa or alpha.target != gb:
            raise ValueError("structure map endpoints disagree with the "
                             "functor images of the component objects")
        return CommaObject(a, b, alpha)

    def mor(self, x: CommaObject, y: CommaObject, fa: Mor, gb: Mor) -> Mor:
        if (fa.source, fa.target) != (x.a, y.a):
            raise ValueError("left component has wrong endpoints")
        if (gb.source, gb.target) != (x.b, y.b):
            raise ValueError("right component has wrong endpoints")
        if not self._square_commutes(x, y, fa, gb):
            raise ValueError("structure square does not commute")
        return Mor(x, y, (fa, gb))

    def _square_commutes(self, x, y, fa: Mor, gb: Mor) -> bool:
        c = self.cone
        return (c.compose(y.alpha, apply_on_morphism(self.left_functor, fa))
                == c.compose(apply_on_morphism(self.right_functor, gb), x.alpha))

    def _factored(self, x, y, fa, gb):
        """The morphism (fa, gb) from unique component factorizations, or
        None when one is missing or the pair breaks the square.  Any
        factorization restricts to these components, so None is exact."""
        if fa is None or gb is None or not self._square_commutes(x, y, fa, gb):
            return None
        return Mor(x, y, (fa, gb))

    # objects

    @property
    def class_rank(self) -> int:
        return self.left.class_rank + self.right.class_rank

    def zero_object(self) -> CommaObject:
        a0 = self.left.zero_object()
        b0 = self.right.zero_object()
        fa = apply_on_object(self.left_functor, a0)
        gb = apply_on_object(self.right_functor, b0)
        return CommaObject(a0, b0, self.cone.zero_morphism(fa, gb))

    def is_zero_object(self, x) -> bool:
        return self.left.is_zero_object(x.a) and self.right.is_zero_object(x.b)

    def dim_total(self, x) -> int:
        return self.left.dim_total(x.a) + self.right.dim_total(x.b)

    def class_vector(self, x) -> tuple:
        return self.left.class_vector(x.a) + self.right.class_vector(x.b)

    def simples(self) -> tuple:
        out = []
        b0 = self.right.zero_object()
        for s in self.left.simples():
            fa = apply_on_object(self.left_functor, s)
            gb = apply_on_object(self.right_functor, b0)
            out.append(CommaObject(s, b0, self.cone.zero_morphism(fa, gb)))
        a0 = self.left.zero_object()
        fa0 = apply_on_object(self.left_functor, a0)
        for t in self.right.simples():
            gb = apply_on_object(self.right_functor, t)
            out.append(CommaObject(a0, t, self.cone.zero_morphism(fa0, gb)))
        return tuple(out)

    def enumerate_objects(self, max_total_dim: int):
        for a in self.left.enumerate_objects(max_total_dim):
            rest = max_total_dim - self.left.dim_total(a)
            fa = apply_on_object(self.left_functor, a)
            for b in self.right.enumerate_objects(rest):
                gb = apply_on_object(self.right_functor, b)
                for alpha in all_homs(self.cone, fa, gb, self.budget.max_vectors):
                    yield CommaObject(a, b, alpha)

    def sample_object(self, rng: random.Random, max_total_dim: int) -> CommaObject:
        a = self.left.sample_object(rng, max_total_dim)
        rest = max_total_dim - self.left.dim_total(a)
        b = self.right.sample_object(rng, rest)
        fa = apply_on_object(self.left_functor, a)
        gb = apply_on_object(self.right_functor, b)
        return CommaObject(a, b, random_hom(self.cone, rng, fa, gb))

    def describe_object(self, x) -> str:
        return (f"({self.left.describe_object(x.a)}, "
                f"{self.right.describe_object(x.b)})")

    # morphisms

    def _own(self, m: Mor) -> None:
        if not isinstance(m.source, CommaObject) or not isinstance(m.target, CommaObject):
            raise ForeignMorphism("endpoints are not comma objects")
        if not isinstance(m.data, tuple) or len(m.data) != 2:
            raise ForeignMorphism("carrier is not a component pair")

    def identity(self, x) -> Mor:
        return Mor(x, x, (self.left.identity(x.a), self.right.identity(x.b)))

    def zero_morphism(self, x, y) -> Mor:
        return Mor(x, y, (self.left.zero_morphism(x.a, y.a),
                          self.right.zero_morphism(x.b, y.b)))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        self._own(m1)
        self._own(m2)
        if m1.target != m2.source:
            raise ForeignMorphism("endpoints do not match for composition")
        return Mor(m1.source, m2.target,
                   (self.left.compose(m2.data[0], m1.data[0]),
                    self.right.compose(m2.data[1], m1.data[1])))

    def hom_basis(self, x, y) -> tuple:
        return _comma_hom_basis(self, x, y)

    def mor_flat(self, m: Mor) -> tuple:
        return self.left.mor_flat(m.data[0]) + self.right.mor_flat(m.data[1])

    def flat_len(self, x, y) -> int:
        return self.left.flat_len(x.a, y.a) + self.right.flat_len(x.b, y.b)

    def mor_from_flat(self, x, y, flat: tuple) -> Mor:
        k = self.left.flat_len(x.a, y.a)
        fa = self.left.mor_from_flat(x.a, y.a, tuple(flat[:k]))
        gb = self.right.mor_from_flat(x.b, y.b, tuple(flat[k:]))
        return self.mor(x, y, fa, gb)

    def span_from_flat(self, x, y, flat: tuple) -> Mor:
        if not self.additive:
            return self.mor_from_flat(x, y, flat)
        k = self.left.flat_len(x.a, y.a)
        return Mor(x, y, (self.left.span_from_flat(x.a, y.a, tuple(flat[:k])),
                          self.right.span_from_flat(x.b, y.b, tuple(flat[k:]))))

    def factor_through_mono(self, mono: Mor, m: Mor):
        """The u with mono o u = m, solved once per component.

        Needs additive legs and both components of mono mono, so that each
        component factorization is unique; one square check then decides.
        Otherwise the hom-space solve decides.
        """
        self._own(mono)
        self._own(m)
        if not (self.additive and self.left.is_mono(mono.data[0])
                and self.right.is_mono(mono.data[1])):
            return super().factor_through_mono(mono, m)
        fa = self.left.factor_through_mono(mono.data[0], m.data[0])
        gb = None if fa is None else \
            self.right.factor_through_mono(mono.data[1], m.data[1])
        return self._factored(m.source, mono.source, fa, gb)

    def factor_through_epi(self, epi: Mor, m: Mor):
        """The u with u o epi = m, solved once per component; the mirror of
        factor_through_mono, with both components of epi epi."""
        self._own(epi)
        self._own(m)
        if not (self.additive and self.left.is_epi(epi.data[0])
                and self.right.is_epi(epi.data[1])):
            return super().factor_through_epi(epi, m)
        fa = self.left.factor_through_epi(epi.data[0], m.data[0])
        gb = None if fa is None else \
            self.right.factor_through_epi(epi.data[1], m.data[1])
        return self._factored(epi.target, m.target, fa, gb)

    # abelian structure

    def kernel(self, m: Mor):
        self._require_abelian()
        x = m.source
        ka_obj, ka = self.left.kernel(m.data[0])
        kb_obj, kb = self.right.kernel(m.data[1])
        c = self.cone
        rest = c.compose(x.alpha, apply_on_morphism(self.left_functor, ka))
        beta = solve_through_mono(c, apply_on_morphism(self.right_functor, kb), rest)
        kobj = CommaObject(ka_obj, kb_obj, beta)
        return kobj, self.mor(kobj, x, ka, kb)

    def cokernel(self, m: Mor):
        self._require_abelian()
        y = m.target
        ca_obj, ca = self.left.cokernel(m.data[0])
        cb_obj, cb = self.right.cokernel(m.data[1])
        c = self.cone
        rest = c.compose(apply_on_morphism(self.right_functor, cb), y.alpha)
        gamma = solve_through_epi(c, apply_on_morphism(self.left_functor, ca), rest)
        cobj = CommaObject(ca_obj, cb_obj, gamma)
        return cobj, self.mor(y, cobj, ca, cb)

    def biproduct(self, x, y):
        self._require_abelian()
        sa, (ia1, ia2), (pa1, pa2) = self.left.biproduct(x.a, y.a)
        sb, (ib1, ib2), (pb1, pb2) = self.right.biproduct(x.b, y.b)
        c = self.cone
        fl, gl = self.left_functor, self.right_functor
        beta = solve_right(
            c, apply_on_object(fl, sa), apply_on_object(gl, sb),
            [(apply_on_morphism(fl, ia1),
              c.compose(apply_on_morphism(gl, ib1), x.alpha)),
             (apply_on_morphism(fl, ia2),
              c.compose(apply_on_morphism(gl, ib2), y.alpha))])
        s = CommaObject(sa, sb, beta)
        return s, (self.mor(x, s, ia1, ib1), self.mor(y, s, ia2, ib2)), \
            (self.mor(s, x, pa1, pb1), self.mor(s, y, pa2, pb2))

    def enumerate_subobjects(self, x) -> tuple:
        self._require_abelian()
        return _comma_subobjects(self, x)

    def subobject_key(self, mono: Mor):
        return (self.left.subobject_key(mono.data[0]),
                self.right.subobject_key(mono.data[1]))

    def subobject_key_leq(self, inner_key, outer_key) -> bool:
        return (self.left.subobject_key_leq(inner_key[0], outer_key[0])
                and self.right.subobject_key_leq(inner_key[1], outer_key[1]))

    @property
    def subobject_key_order_exact(self) -> bool:
        # component factorizations u_a, u_b form a comma morphism once
        # G(outer mono) can be cancelled from the square, i.e. G keeps
        # monos mono
        return self.right_functor.left_exact

    def is_mono(self, m: Mor) -> bool:
        return self.left.is_mono(m.data[0]) and self.right.is_mono(m.data[1])

    def is_epi(self, m: Mor) -> bool:
        return self.left.is_epi(m.data[0]) and self.right.is_epi(m.data[1])


@cache
def _comma_hom_basis(cat: CommaCategory, x: CommaObject, y: CommaObject) -> tuple:
    """Canonical basis of the comma hom space.

    Additive legs make the structure-square condition linear in hom
    coordinates, so the basis is the kernel of one constraint matrix.  A
    trivial cone hom space makes the condition vacuous and the basis is
    the full component product.  Anything else has no linear hom space to
    offer and is refused.
    """
    a_cat, b_cat, c = cat.left, cat.right, cat.cone
    fa_basis = a_cat.hom_basis(x.a, y.a)
    gb_basis = b_cat.hom_basis(x.b, y.b)
    if cat.left_functor.additive and cat.right_functor.additive:
        pair_len = cat.flat_len(x, y)
        cols = []
        for phi in fa_basis:
            cols.append(c.mor_flat(
                c.compose(y.alpha, apply_on_morphism(cat.left_functor, phi))))
        for psi in gb_basis:
            cols.append(c.mor_flat(c.negate(
                c.compose(apply_on_morphism(cat.right_functor, psi), x.alpha))))
        if not cols:
            return ()
        height = len(cols[0])
        n = len(cols)
        constraint = Matrix.build(height, n, cat.field,
                                  (cols[j][i] for i in range(height) for j in range(n)))
        null = kernel_basis(constraint)
        sol_rows = []
        for i in range(null.dim):
            coords = null.basis.row(i)
            fa = _combine(a_cat, x.a, y.a, fa_basis, coords[:len(fa_basis)])
            gb = _combine(b_cat, x.b, y.b, gb_basis, coords[len(fa_basis):])
            sol_rows.append(a_cat.mor_flat(fa) + b_cat.mor_flat(gb))
        canon = Subspace.from_rows(pair_len, cat.field, sol_rows)
        return tuple(cat.mor_from_flat(x, y, canon.basis.row(i))
                     for i in range(canon.dim))
    fxa = apply_on_object(cat.left_functor, x.a)
    gyb = apply_on_object(cat.right_functor, y.b)
    if hom_dim(c, fxa, gyb) == 0:
        # the square condition is vacuous; the hom space is the product
        out = []
        for phi in fa_basis:
            out.append(cat.mor(x, y, phi, b_cat.zero_morphism(x.b, y.b)))
        for psi in gb_basis:
            out.append(cat.mor(x, y, a_cat.zero_morphism(x.a, y.a), psi))
        return tuple(out)
    raise CapabilityError(
        "hom spaces need additive functor legs or a trivial cone hom space")


@cache
def _comma_subobjects(cat: CommaCategory, x: CommaObject) -> tuple:
    """Component subobject pairs whose restricted structure map factors
    through the right-hand mono; the factorization is the new structure
    map, and is unique because the mono stays mono under the right leg."""
    c = cat.cone
    out = []
    for sub_a in cat.left.enumerate_subobjects(x.a):
        f_mono = apply_on_morphism(cat.left_functor, sub_a.mono)
        rest = c.compose(x.alpha, f_mono)
        for sub_b in cat.right.enumerate_subobjects(x.b):
            g_mono = apply_on_morphism(cat.right_functor, sub_b.mono)
            alpha_s = try_through_mono(c, g_mono, rest)
            if alpha_s is None:
                continue
            sobj = CommaObject(sub_a.obj, sub_b.obj, alpha_s)
            out.append(Subobject(sobj, cat.mor(sobj, x, sub_a.mono, sub_b.mono),
                                 (sub_a.key, sub_b.key)))
    return tuple(out)


def component_sequences(cat: CommaCategory, ses: ShortExactSequence):
    """Split a short exact sequence of triples into its two component
    sequences, revalidating each in its own category."""
    return (short_exact(cat.left, ses.sub.data[0], ses.quot.data[0]),
            short_exact(cat.right, ses.sub.data[1], ses.quot.data[1]))


def verify_comma_abelian(cat: CommaCategory, samples: int = 24, seed: int = 0,
                         max_dim: int = 3):
    """Full axiom and universal-property audit of a comma construction."""
    cat._require_abelian()
    return verify_category(cat, samples=samples, seed=seed, max_dim=max_dim)
