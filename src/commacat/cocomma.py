"""The dual-leg construction: triples (a, b, alpha: F a -> G b) with a
covariant left functor and a contravariant right functor, where morphisms
reverse the left component.

A morphism x -> y carries (f: y.a -> x.a, g: x.b -> y.b) subject to
x.alpha o F(f) = G(g) o y.alpha.  Kernels swap roles on the left side: the
kernel of a morphism is built from the cokernel of f and the kernel of g,
and dually for cokernels.  A subobject is therefore a pair (quotient of a,
subobject of b) whose structure map solves through the quotient.

The abelian gate wants the left leg right exact and the right leg to send
cokernels to kernels, which is what the contravariant left_exact flag
declares here (hom-into functors always qualify).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Any

from .core import (
    CategoryInstance,
    Mor,
    Subobject,
    _combine,
    all_homs,
    hom_dim,
    random_hom,
    solve_left,
    solve_through_epi,
    solve_through_mono,
    try_through_epi,
    verify_category,
)
from .errors import CapabilityError, ForeignMorphism
from .functors import FunctorSpec, apply_on_morphism, apply_on_object
from .instances import DEFAULT_BUDGET, Budget
from .linalg import Matrix, Subspace, kernel_basis


@dataclass(frozen=True)
class CoCommaObject:
    """Left object, right object, and structure map F(a) -> G(b)."""

    a: Any
    b: Any
    alpha: Mor


@dataclass(frozen=True)
class CoCommaCategory(CategoryInstance):
    """Triples over a covariant F and a contravariant G, reversed on the
    left: a morphism x -> y is (f: y.a -> x.a, g: x.b -> y.b)."""

    left_functor: FunctorSpec
    right_functor: FunctorSpec
    budget: Budget = DEFAULT_BUDGET
    assume_abelian: bool = False

    def __post_init__(self):
        f, g = self.left_functor, self.right_functor
        if f.contravariant:
            raise ValueError("left functor must be covariant")
        if not g.contravariant:
            raise ValueError("right functor must be contravariant; "
                             "use the plain comma construction otherwise")
        if f.target != g.target:
            raise ValueError("functor targets disagree")
        if f.source.field != g.source.field or f.source.field != f.target.field:
            raise ValueError("all three categories must share one prime field")

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
                "contravariant right leg that sends cokernels to kernels")

    # construction helpers

    def obj(self, a, b, alpha: Mor) -> CoCommaObject:
        fa = apply_on_object(self.left_functor, a)
        gb = apply_on_object(self.right_functor, b)
        if alpha.source != fa or alpha.target != gb:
            raise ValueError("structure map endpoints disagree with the "
                             "functor images of the component objects")
        return CoCommaObject(a, b, alpha)

    def mor(self, x: CoCommaObject, y: CoCommaObject, f: Mor, g: Mor) -> Mor:
        if (f.source, f.target) != (y.a, x.a):
            raise ValueError("left component must run from target to source")
        if (g.source, g.target) != (x.b, y.b):
            raise ValueError("right component has wrong endpoints")
        if not self._square_commutes(x, y, f, g):
            raise ValueError("structure square does not commute")
        return Mor(x, y, (f, g))

    def _square_commutes(self, x, y, f: Mor, g: Mor) -> bool:
        c = self.cone
        return (c.compose(x.alpha, apply_on_morphism(self.left_functor, f))
                == c.compose(apply_on_morphism(self.right_functor, g), y.alpha))

    def _factored(self, x, y, f, g):
        """The morphism (f, g) from unique component factorizations, or
        None when one is missing or the pair breaks the square.  Any
        factorization restricts to these components, so None is exact."""
        if f is None or g is None or not self._square_commutes(x, y, f, g):
            return None
        return Mor(x, y, (f, g))

    # objects

    @property
    def class_rank(self) -> int:
        return self.left.class_rank + self.right.class_rank

    def zero_object(self) -> CoCommaObject:
        a0 = self.left.zero_object()
        b0 = self.right.zero_object()
        fa = apply_on_object(self.left_functor, a0)
        gb = apply_on_object(self.right_functor, b0)
        return CoCommaObject(a0, b0, self.cone.zero_morphism(fa, gb))

    def is_zero_object(self, x) -> bool:
        return self.left.is_zero_object(x.a) and self.right.is_zero_object(x.b)

    def dim_total(self, x) -> int:
        return self.left.dim_total(x.a) + self.right.dim_total(x.b)

    def class_vector(self, x) -> tuple:
        return self.left.class_vector(x.a) + self.right.class_vector(x.b)

    def simples(self) -> tuple:
        out = []
        b0 = self.right.zero_object()
        gb0 = apply_on_object(self.right_functor, b0)
        for s in self.left.simples():
            fa = apply_on_object(self.left_functor, s)
            out.append(CoCommaObject(s, b0, self.cone.zero_morphism(fa, gb0)))
        a0 = self.left.zero_object()
        fa0 = apply_on_object(self.left_functor, a0)
        for t in self.right.simples():
            gb = apply_on_object(self.right_functor, t)
            out.append(CoCommaObject(a0, t, self.cone.zero_morphism(fa0, gb)))
        return tuple(out)

    def enumerate_objects(self, max_total_dim: int):
        for a in self.left.enumerate_objects(max_total_dim):
            rest = max_total_dim - self.left.dim_total(a)
            fa = apply_on_object(self.left_functor, a)
            for b in self.right.enumerate_objects(rest):
                gb = apply_on_object(self.right_functor, b)
                for alpha in all_homs(self.cone, fa, gb, self.budget.max_vectors):
                    yield CoCommaObject(a, b, alpha)

    def sample_object(self, rng: random.Random, max_total_dim: int) -> CoCommaObject:
        a = self.left.sample_object(rng, max_total_dim)
        rest = max_total_dim - self.left.dim_total(a)
        b = self.right.sample_object(rng, rest)
        fa = apply_on_object(self.left_functor, a)
        gb = apply_on_object(self.right_functor, b)
        return CoCommaObject(a, b, random_hom(self.cone, rng, fa, gb))

    def describe_object(self, x) -> str:
        return (f"({self.left.describe_object(x.a)}, "
                f"{self.right.describe_object(x.b)})")

    # morphisms

    def _own(self, m: Mor) -> None:
        if not isinstance(m.source, CoCommaObject) or \
                not isinstance(m.target, CoCommaObject):
            raise ForeignMorphism("endpoints are not dual-leg triples")
        if not isinstance(m.data, tuple) or len(m.data) != 2:
            raise ForeignMorphism("carrier is not a component pair")

    def identity(self, x) -> Mor:
        return Mor(x, x, (self.left.identity(x.a), self.right.identity(x.b)))

    def zero_morphism(self, x, y) -> Mor:
        return Mor(x, y, (self.left.zero_morphism(y.a, x.a),
                          self.right.zero_morphism(x.b, y.b)))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        self._own(m1)
        self._own(m2)
        if m1.target != m2.source:
            raise ForeignMorphism("endpoints do not match for composition")
        # left components compose in the reversed order
        return Mor(m1.source, m2.target,
                   (self.left.compose(m1.data[0], m2.data[0]),
                    self.right.compose(m2.data[1], m1.data[1])))

    def hom_basis(self, x, y) -> tuple:
        return _cocomma_hom_basis(self, x, y)

    def mor_flat(self, m: Mor) -> tuple:
        return self.left.mor_flat(m.data[0]) + self.right.mor_flat(m.data[1])

    def flat_len(self, x, y) -> int:
        # the left component runs backwards, as in mor_flat
        return self.left.flat_len(y.a, x.a) + self.right.flat_len(x.b, y.b)

    def mor_from_flat(self, x, y, flat: tuple) -> Mor:
        k = self.left.flat_len(y.a, x.a)
        f = self.left.mor_from_flat(y.a, x.a, tuple(flat[:k]))
        g = self.right.mor_from_flat(x.b, y.b, tuple(flat[k:]))
        return self.mor(x, y, f, g)

    def span_from_flat(self, x, y, flat: tuple) -> Mor:
        if not self.additive:
            return self.mor_from_flat(x, y, flat)
        k = self.left.flat_len(y.a, x.a)
        return Mor(x, y, (self.left.span_from_flat(y.a, x.a, tuple(flat[:k])),
                          self.right.span_from_flat(x.b, y.b, tuple(flat[k:]))))

    def factor_through_mono(self, mono: Mor, m: Mor):
        """The u with mono o u = m, solved once per component.

        The left component runs backwards, so it factors through the left
        component of mono, an epi, from the other side.  Needs additive
        legs and components of mono that are epi on the left and mono on
        the right, so that each component factorization is unique; one
        square check then decides.  Otherwise the hom-space solve decides.
        """
        self._own(mono)
        self._own(m)
        if not (self.additive and self.left.is_epi(mono.data[0])
                and self.right.is_mono(mono.data[1])):
            return super().factor_through_mono(mono, m)
        f = self.left.factor_through_epi(mono.data[0], m.data[0])
        g = None if f is None else \
            self.right.factor_through_mono(mono.data[1], m.data[1])
        return self._factored(m.source, mono.source, f, g)

    def factor_through_epi(self, epi: Mor, m: Mor):
        """The u with u o epi = m, solved once per component; the mirror of
        factor_through_mono, with components of epi that are mono on the
        left and epi on the right."""
        self._own(epi)
        self._own(m)
        if not (self.additive and self.left.is_mono(epi.data[0])
                and self.right.is_epi(epi.data[1])):
            return super().factor_through_epi(epi, m)
        f = self.left.factor_through_mono(epi.data[0], m.data[0])
        g = None if f is None else \
            self.right.factor_through_epi(epi.data[1], m.data[1])
        return self._factored(epi.target, m.target, f, g)

    # abelian structure

    def kernel(self, m: Mor):
        self._require_abelian()
        x = m.source
        ka_obj, ka = self.left.cokernel(m.data[0])
        kb_obj, kb = self.right.kernel(m.data[1])
        c = self.cone
        rest = c.compose(apply_on_morphism(self.right_functor, kb), x.alpha)
        beta = solve_through_epi(c, apply_on_morphism(self.left_functor, ka), rest)
        kobj = CoCommaObject(ka_obj, kb_obj, beta)
        return kobj, self.mor(kobj, x, ka, kb)

    def cokernel(self, m: Mor):
        self._require_abelian()
        y = m.target
        ca_obj, ca = self.left.kernel(m.data[0])
        cb_obj, cb = self.right.cokernel(m.data[1])
        c = self.cone
        rest = c.compose(y.alpha, apply_on_morphism(self.left_functor, ca))
        gamma = solve_through_mono(
            c, apply_on_morphism(self.right_functor, cb), rest)
        cobj = CoCommaObject(ca_obj, cb_obj, gamma)
        return cobj, self.mor(y, cobj, ca, cb)

    def biproduct(self, x, y):
        self._require_abelian()
        # the left side uses the product read backwards, so injections into
        # the carrier pair a projection with an injection
        sa, (ja1, ja2), (qa1, qa2) = self.left.biproduct(x.a, y.a)
        sb, (jb1, jb2), (qb1, qb2) = self.right.biproduct(x.b, y.b)
        c = self.cone
        fl, gl = self.left_functor, self.right_functor
        beta = solve_left(
            c, apply_on_object(fl, sa), apply_on_object(gl, sb),
            [(apply_on_morphism(gl, jb1),
              c.compose(x.alpha, apply_on_morphism(fl, qa1))),
             (apply_on_morphism(gl, jb2),
              c.compose(y.alpha, apply_on_morphism(fl, qa2)))])
        s = CoCommaObject(sa, sb, beta)
        i1 = self.mor(x, s, qa1, jb1)
        i2 = self.mor(y, s, qa2, jb2)
        p1 = self.mor(s, x, ja1, qb1)
        p2 = self.mor(s, y, ja2, qb2)
        return s, (i1, i2), (p1, p2)

    def enumerate_subobjects(self, x) -> tuple:
        self._require_abelian()
        return _cocomma_subobjects(self, x)

    def subobject_key(self, mono: Mor):
        _, ker_mono = self.left.kernel(mono.data[0])
        return (self.left.subobject_key(ker_mono),
                self.right.subobject_key(mono.data[1]))

    def subobject_key_leq(self, inner_key, outer_key) -> bool:
        # the left key is the kernel of a quotient: a smaller subobject
        # has a smaller quotient, so a larger kernel
        return (self.left.subobject_key_leq(outer_key[0], inner_key[0])
                and self.right.subobject_key_leq(inner_key[1], outer_key[1]))

    @property
    def subobject_key_order_exact(self) -> bool:
        # component factorizations form a morphism once F(outer quotient)
        # can be cancelled from the square, i.e. F keeps epis epi
        return self.left_functor.right_exact

    def is_mono(self, m: Mor) -> bool:
        return self.left.is_epi(m.data[0]) and self.right.is_mono(m.data[1])

    def is_epi(self, m: Mor) -> bool:
        return self.left.is_mono(m.data[0]) and self.right.is_epi(m.data[1])


@cache
def _cocomma_hom_basis(cat: CoCommaCategory, x: CoCommaObject,
                       y: CoCommaObject) -> tuple:
    a_cat, b_cat, c = cat.left, cat.right, cat.cone
    f_basis = a_cat.hom_basis(y.a, x.a)
    g_basis = b_cat.hom_basis(x.b, y.b)
    if cat.left_functor.additive and cat.right_functor.additive:
        pair_len = cat.flat_len(x, y)
        cols = []
        for phi in f_basis:
            cols.append(c.mor_flat(
                c.compose(x.alpha, apply_on_morphism(cat.left_functor, phi))))
        for psi in g_basis:
            cols.append(c.mor_flat(c.negate(
                c.compose(apply_on_morphism(cat.right_functor, psi), y.alpha))))
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
            f = _combine(a_cat, y.a, x.a, f_basis, coords[:len(f_basis)])
            g = _combine(b_cat, x.b, y.b, g_basis, coords[len(f_basis):])
            sol_rows.append(a_cat.mor_flat(f) + b_cat.mor_flat(g))
        canon = Subspace.from_rows(pair_len, cat.field, sol_rows)
        return tuple(cat.mor_from_flat(x, y, canon.basis.row(i))
                     for i in range(canon.dim))
    fya = apply_on_object(cat.left_functor, y.a)
    gxb = apply_on_object(cat.right_functor, x.b)
    if hom_dim(c, fya, gxb) == 0:
        out = []
        for phi in f_basis:
            out.append(cat.mor(x, y, phi, b_cat.zero_morphism(x.b, y.b)))
        for psi in g_basis:
            out.append(cat.mor(x, y, a_cat.zero_morphism(y.a, x.a), psi))
        return tuple(out)
    raise CapabilityError(
        "hom spaces need additive functor legs or a trivial cone hom space")


@cache
def _cocomma_subobjects(cat: CoCommaCategory, x: CoCommaObject) -> tuple:
    """Pairs (quotient of the left object, subobject of the right object)
    whose structure map factors across the left quotient.

    The quotient is keyed by its kernel subobject so enumeration order and
    identity are canonical; the factored structure map is unique because
    the quotient stays epi under the left leg.
    """
    c = cat.cone
    out = []
    for ker_sub in cat.left.enumerate_subobjects(x.a):
        qobj, qmor = cat.left.cokernel(ker_sub.mono)
        f_epi = apply_on_morphism(cat.left_functor, qmor)
        for sub_b in cat.right.enumerate_subobjects(x.b):
            g_mono = apply_on_morphism(cat.right_functor, sub_b.mono)
            rest = c.compose(g_mono, x.alpha)
            alpha_s = try_through_epi(c, f_epi, rest)
            if alpha_s is None:
                continue
            sobj = CoCommaObject(qobj, sub_b.obj, alpha_s)
            out.append(Subobject(sobj, cat.mor(sobj, x, qmor, sub_b.mono),
                                 (ker_sub.key, sub_b.key)))
    return tuple(out)


def verify_cocomma_abelian(cat: CoCommaCategory, samples: int = 24,
                           seed: int = 0, max_dim: int = 3):
    """Full axiom and universal-property audit of the dual-leg category."""
    cat._require_abelian()
    return verify_category(cat, samples=samples, seed=seed, max_dim=max_dim)
