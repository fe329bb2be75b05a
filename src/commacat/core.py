"""Contract shared by every concrete category in the package, plus the
generic constructions that only need that contract.

A category instance knows its objects and morphisms as immutable values,
can enumerate a canonical basis of any hom space, and can flatten a
morphism's carrier to a coordinate tuple over F_p.  Everything else
(images, induced maps, universal-property certification, short exact
sequences) is derived here by solving linear systems in those coordinates,
so the same code certifies vector spaces, quiver representations, and the
comma-style categories built on top of them.

Convention: compose(m2, m1) applies m1 first.  A morphism equals another
iff their endpoint objects and carriers are equal as values.
"""

from __future__ import annotations

import abc
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .errors import ExactnessViolation, ForeignMorphism
from .linalg import BudgetExceeded, Matrix, rank, solve


@dataclass(frozen=True)
class Mor:
    """A morphism: endpoint object handles plus an instance-specific carrier."""

    source: Any
    target: Any
    data: Any


@dataclass(frozen=True)
class Subobject:
    """An object together with a chosen mono into the ambient object.

    key is the instance's canonical key of the subobject, equal to
    subobject_key(mono).  Enumeration sets it from the data it already
    holds, and subobject_leq compares keys instead of solving for a
    factorization.  The glued categories enumerate comma.GluedSubobject
    records instead, which build obj and mono on first read.
    """

    obj: Any
    mono: Mor
    key: Any


@dataclass(frozen=True)
class ShortExactSequence:
    sub: Mor
    quot: Mor


@dataclass(frozen=True)
class CheckReport:
    """What an audit returns: how many checks it made and every violation
    it found.  A clean report is the audit's pass certificate."""

    checked: int
    violations: tuple

    @property
    def clean(self) -> bool:
        return not self.violations


class CategoryInstance(abc.ABC):
    """Abstract finite abelian category over a fixed prime field.

    Concrete subclasses are frozen dataclasses, so two instances built from
    the same data are interchangeable and usable as cache keys.

    Every simple is one-dimensional over F_p, so an object's class vector
    is its dimension vector.  That one rule derives dim_total,
    is_zero_object and class_rank from class_vector here.  An instance
    supplies the abstract hooks: zero_object, is_object, class_vector,
    simples, enumerate_objects and sample_object; identity, zero_morphism,
    compose, hom_basis, mor_flat, mor_from_flat, _factor_mono and
    _factor_epi; kernel, cokernel, biproduct, enumerate_subobjects,
    subobject_key, subobject_key_leq, is_mono and is_epi.
    """

    field: int

    # whether the abelian structure is guaranteed; the glued categories
    # override this from the exactness flags of their legs
    abelian_capable = True

    # whether every linear combination of morphisms x -> y is a morphism;
    # the glued categories override this from the kinds of their legs
    additive = True

    # -- objects ---------------------------------------------------------

    @abc.abstractmethod
    def zero_object(self):
        ...

    @abc.abstractmethod
    def is_object(self, x) -> bool:
        """Whether x is an object of this instance."""

    @abc.abstractmethod
    def class_vector(self, x) -> tuple:
        """Coordinates of [x] in the simple-class basis."""

    @property
    def class_rank(self) -> int:
        """Rank of the free abelian group on the simple classes."""
        return len(self.class_vector(self.zero_object()))

    def is_zero_object(self, x) -> bool:
        return not any(self.class_vector(x))

    def dim_total(self, x) -> int:
        """Total dimension over F_p, used for budgets and sweep bounds."""
        return sum(self.class_vector(x))

    @abc.abstractmethod
    def simples(self) -> tuple:
        ...

    @abc.abstractmethod
    def enumerate_objects(self, max_total_dim: int) -> Iterator:
        ...

    @abc.abstractmethod
    def sample_object(self, rng: random.Random, max_total_dim: int):
        ...

    def describe_object(self, x) -> str:
        return repr(x)

    # -- morphisms -------------------------------------------------------

    @abc.abstractmethod
    def identity(self, x) -> Mor:
        ...

    @abc.abstractmethod
    def zero_morphism(self, x, y) -> Mor:
        ...

    @abc.abstractmethod
    def compose(self, m2: Mor, m1: Mor) -> Mor:
        ...

    @abc.abstractmethod
    def hom_basis(self, x, y) -> tuple:
        """Canonical basis of Hom(x, y); the flats of the basis form a
        reduced-row-echelon matrix, which later solves rely on."""

    @abc.abstractmethod
    def mor_flat(self, m: Mor) -> tuple:
        ...

    def flat_len(self, x, y) -> int:
        """Number of coordinates of a morphism x -> y.  The default counts
        them on the zero morphism; instances override it with arithmetic."""
        return len(self.mor_flat(self.zero_morphism(x, y)))

    @abc.abstractmethod
    def mor_from_flat(self, x, y, flat: tuple) -> Mor:
        """The morphism x -> y with coordinates flat, checked to be one."""

    def build_from_flat(self, x, y, flat: tuple) -> Mor:
        """The morphism x -> y with coordinates flat, built without the
        check of mor_from_flat, for a flat known to be a morphism's.  The
        default checks anyway; instances whose check costs work override
        it."""
        return self.mor_from_flat(x, y, flat)

    def add(self, m1: Mor, m2: Mor) -> Mor:
        if (m1.source, m1.target) != (m2.source, m2.target):
            raise ValueError("cannot add morphisms with different endpoints")
        return _combine(self, m1.source, m1.target, (m1, m2), (1, 1))

    def negate(self, m: Mor) -> Mor:
        return _combine(self, m.source, m.target, (m,), (-1,))

    def scale(self, c: int, m: Mor) -> Mor:
        return _combine(self, m.source, m.target, (m,), (c,))

    def _own(self, m: Mor) -> None:
        """Raise ForeignMorphism when m is not a morphism of this instance;
        instances override it with a check of their carrier."""

    def factor_through_mono(self, mono: Mor, m: Mor) -> Optional[Mor]:
        """The u with mono o u = m, or None when m does not factor through
        mono.

        Raises ForeignMorphism when m and mono end at different objects,
        and ExactnessViolation when a factorization exists but is not
        unique.  An additive instance solves per component through
        _factor_mono when mono is mono; otherwise one linear system over
        the whole hom space Hom(m.source, mono.source) decides.
        """
        self._own(mono)
        self._own(m)
        if mono.target != m.target:
            raise ForeignMorphism("endpoints do not match for composition")
        if self.additive and self.is_mono(mono):
            return self._factor_mono(mono, m)
        return try_solve_left(self, m.source, mono.source, [(mono, m)])

    def factor_through_epi(self, epi: Mor, m: Mor) -> Optional[Mor]:
        """The u with u o epi = m, or None when m does not factor through
        epi; the mirror of factor_through_mono, for epi.source ==
        m.source."""
        self._own(epi)
        self._own(m)
        if epi.source != m.source:
            raise ForeignMorphism("endpoints do not match for composition")
        if self.additive and self.is_epi(epi):
            return self._factor_epi(epi, m)
        return try_solve_right(self, epi.target, m.target, [(epi, m)])

    @abc.abstractmethod
    def _factor_mono(self, mono: Mor, m: Mor) -> Optional[Mor]:
        """factor_through_mono for a mono with the same target as m, solved
        per component."""

    @abc.abstractmethod
    def _factor_epi(self, epi: Mor, m: Mor) -> Optional[Mor]:
        """factor_through_epi for an epi with the same source as m."""

    # -- abelian structure ----------------------------------------------

    @abc.abstractmethod
    def kernel(self, m: Mor):
        """(kernel object, mono into m.source)."""

    @abc.abstractmethod
    def cokernel(self, m: Mor):
        """(cokernel object, epi out of m.target)."""

    @abc.abstractmethod
    def biproduct(self, x, y):
        """(sum object, (i1, i2), (p1, p2))."""

    @abc.abstractmethod
    def enumerate_subobjects(self, x) -> tuple:
        """All subobjects of x as Subobject records, canonical order,
        including the zero subobject and x itself."""

    def subobject_class(self, sub) -> tuple:
        """The class of one of enumerate_subobjects' records; a glued
        instance reads it off the record's parts, without building its
        object."""
        return self.class_vector(sub.obj)

    @abc.abstractmethod
    def subobject_key(self, mono: Mor):
        """Hashable canonical key identifying the image of any morphism,
        for a mono the subobject it carves out; two morphisms with the same
        image get the same key."""

    @abc.abstractmethod
    def subobject_key_leq(self, inner_key, outer_key) -> bool:
        """Order on subobject keys.  It holds whenever the inner subobject
        factors through the outer one; subobject_key_order_exact says
        whether the converse holds too."""

    @property
    def subobject_key_order_exact(self) -> bool:
        """Whether subobject_key_leq alone decides the subobject order."""
        return True

    @abc.abstractmethod
    def is_mono(self, m: Mor) -> bool:
        """Whether ker m is zero, read off component ranks."""

    @abc.abstractmethod
    def is_epi(self, m: Mor) -> bool:
        """Whether coker m is zero, read off component ranks."""

    # -- class certificates ----------------------------------------------

    def kernel_class(self, m: Mor) -> Optional[tuple]:
        """The class of ker m where the instance reads it off ranks, or
        None where it cannot; then a mono k with m o k = 0 is the kernel
        exactly when [source of k] equals it."""
        return None

    def cokernel_class(self, m: Mor) -> Optional[tuple]:
        """The class of coker m by rank-nullity, [Y] - [X] + [ker m] for
        m: X -> Y, or None with kernel_class."""
        k = self.kernel_class(m)
        if k is None:
            return None
        return tuple(c + y - x for c, y, x in zip(
            k, self.class_vector(m.target), self.class_vector(m.source)))

    def class_certificate(self, m: Mor, arrow: Mor, side: str) -> Optional[list]:
        """For a candidate arrow for the kernel (side "kernel") or cokernel
        of m that is mono (epi) and kills m: a line per class that falls
        short of the true one, empty when the arrow is the kernel
        (cokernel), or None when the instance has no class certificate
        and the rank identity decides.  A glued instance raises ValueError
        when the arrow is not a morphism."""
        want = (self.kernel_class(m) if side == "kernel"
                else self.cokernel_class(m))
        if want is None:
            return None
        have = self.class_vector(arrow.source if side == "kernel"
                                 else arrow.target)
        return [] if have == want else [f"class {have}, {side} class {want}"]


# -- linear solving in hom coordinates ----------------------------------


def hom_dim(inst: CategoryInstance, x, y) -> int:
    return len(inst.hom_basis(x, y))


def _combine(inst: CategoryInstance, x, y, basis: Sequence[Mor], coords) -> Mor:
    """The morphism x -> y with the given coordinates on basis, a sequence
    of morphisms x -> y; the one linear-combination routine.  An additive
    instance builds it directly, since there a combination of morphisms is
    one.  Otherwise (a glued square over a leg that is not additive) it
    builds through the checked mor_from_flat, and a failure raises
    ExactnessViolation."""
    p = inst.field
    acc = [0] * inst.flat_len(x, y)
    for c, b in zip(coords, basis):
        if c % p:
            for i, v in enumerate(inst.mor_flat(b)):
                acc[i] = (acc[i] + c * v) % p
    if inst.additive:
        return inst.build_from_flat(x, y, tuple(acc))
    try:
        return inst.mor_from_flat(x, y, tuple(acc))
    except ValueError as exc:
        raise ExactnessViolation(f"linear combination: {exc}") from exc


def _columns_matrix(p: int, height: int, cols: Sequence) -> Matrix:
    """The height x len(cols) matrix over F_p whose j-th column is the flat
    cols[j]."""
    return Matrix.build(height, len(cols), p, (v for row in zip(*cols) for v in row))


def _hom_action(inst: CategoryInstance, x, y, apply: Callable[[Mor], Mor]) -> Matrix:
    """The matrix of a linear map apply on Hom(x, y): its j-th column is
    the flat of apply on the j-th hom-basis element."""
    cols = [inst.mor_flat(apply(b)) for b in inst.hom_basis(x, y)]
    return _columns_matrix(inst.field, len(cols[0]) if cols else 0, cols)


NOT_UNIQUE = ("connecting-map system has a non-trivial solution space; "
              "the construction this solve supports is not valid here")
_NO_SOLUTION = ("no morphism satisfies the requested {}-composition "
                "equations; a declared exactness property fails on this data")


def _required(u: Optional[Mor], side: str) -> Mor:
    if u is None:
        raise ExactnessViolation(_NO_SOLUTION.format(side))
    return u


def _solve_compose(inst, src, tgt, equations, apply) -> Optional[Mor]:
    """The u in Hom(src, tgt) with apply(u, e) = rhs for each (e, rhs) in
    equations, or None.  apply composes u with e, linearly in u, so one
    solve on the hom basis decides existence and its rank uniqueness; a
    solution that is not unique raises ExactnessViolation."""
    p = inst.field
    basis = inst.hom_basis(src, tgt)
    rhs = [v for _, r in equations for v in inst.mor_flat(r)]
    cols = [[v for e, _ in equations for v in inst.mor_flat(apply(b, e))]
            for b in basis]
    mat = _columns_matrix(p, len(rhs), cols)
    x = solve(mat, Matrix.build(len(rhs), 1, p, rhs))
    if x is None:
        return None
    if rank(mat) != len(basis):
        raise ExactnessViolation(NOT_UNIQUE)
    return _combine(inst, src, tgt, basis, x.entries)


def try_solve_right(inst, src, tgt, equations) -> Optional[Mor]:
    """u: src -> tgt with u o r_i = rhs_i for each (r_i, rhs_i), or None.

    Each r_i maps some S_i into src and rhs_i maps S_i into tgt.
    """
    return _solve_compose(inst, src, tgt, equations, inst.compose)


def solve_right(inst, src, tgt, equations) -> Mor:
    return _required(try_solve_right(inst, src, tgt, equations), "post")


def try_solve_left(inst, src, tgt, equations) -> Optional[Mor]:
    """u: src -> tgt with l_i o u = rhs_i for each (l_i, rhs_i), or None.

    Each l_i maps tgt into some T_i and rhs_i maps src into T_i.
    """
    return _solve_compose(inst, src, tgt, equations,
                          lambda u, l: inst.compose(l, u))


def solve_left(inst, src, tgt, equations) -> Mor:
    return _required(try_solve_left(inst, src, tgt, equations), "pre")


def solve_through_mono(inst, mono: Mor, m: Mor) -> Mor:
    """The unique u with mono o u = m."""
    return _required(inst.factor_through_mono(mono, m), "pre")


def try_through_mono(inst, mono: Mor, m: Mor) -> Optional[Mor]:
    return inst.factor_through_mono(mono, m)


def solve_through_epi(inst, epi: Mor, m: Mor) -> Mor:
    """The unique u with u o epi = m."""
    return _required(inst.factor_through_epi(epi, m), "post")


def try_through_epi(inst, epi: Mor, m: Mor) -> Optional[Mor]:
    return inst.factor_through_epi(epi, m)


def all_homs(inst: CategoryInstance, x, y, max_count: int) -> Iterator[Mor]:
    """Every morphism x -> y, zero first, by sweeping basis coefficients."""
    basis = inst.hom_basis(x, y)
    total = inst.field ** len(basis)
    if total > max_count:
        raise BudgetExceeded(
            f"hom sweep of size {total} exceeds the budget of {max_count}")
    for coords in itertools.product(range(inst.field), repeat=len(basis)):
        yield _combine(inst, x, y, basis, coords)


def random_hom(inst: CategoryInstance, rng: random.Random, x, y) -> Mor:
    basis = inst.hom_basis(x, y)
    if not basis:
        return inst.zero_morphism(x, y)
    return _combine(inst, x, y, basis, [rng.randrange(inst.field) for _ in basis])


# -- derived abelian constructions --------------------------------------


def image(inst: CategoryInstance, m: Mor):
    """(image object, mono into m.target), computed as ker(coker m)."""
    _, cmor = inst.cokernel(m)
    return inst.kernel(cmor)


def coimage(inst: CategoryInstance, m: Mor):
    """(coimage object, epi out of m.source), computed as coker(ker m)."""
    _, kmor = inst.kernel(m)
    return inst.cokernel(kmor)


def induced_morphism(inst: CategoryInstance, m: Mor):
    """The canonical map coim(m) -> im(m) together with its flanks.

    Returns (q, mbar, i) with q the coimage epi, i the image mono, and
    i o mbar o q == m by the exact solves.  An abelian category needs mbar
    invertible, which is for the caller to certify (verify_induced_iso).
    """
    _, q = coimage(inst, m)
    _, i = image(inst, m)
    through = solve_through_mono(inst, i, m)       # X -> Im with i o . = m
    mbar = solve_through_epi(inst, q, through)     # CoIm -> Im with . o q = through
    return q, mbar, i


def verify_induced_iso(inst: CategoryInstance, m: Mor) -> list:
    """Certify coim(m) -> im(m) invertible, as induced_morphism builds it.

    The induced map is tested by componentwise ranks: a map with
    bijective components is an iso, since in a glued category
    p o F(f) = G(g) o q gives G(g^-1) o p = q o F(f^-1) by functoriality.
    """
    try:
        _, mbar, _ = induced_morphism(inst, m)
    except ExactnessViolation as exc:
        return [f"induced morphism does not exist: {exc}"]
    if not (inst.is_mono(mbar) and inst.is_epi(mbar)):
        return ["induced coimage->image morphism is not invertible"]
    return []


# -- universal-property certification -----------------------------------


def _class_violations(inst, m, arrow, side: str, cone: str) -> Optional[list]:
    """The class certificate's verdict on a candidate arrow that kills m
    and that is_mono (is_epi) accepted: no violations when it is the
    kernel (cokernel), the failed factorization and the class lines that
    fall short when it is not, or None when the instance has no class
    certificate on this morphism.  It draws nothing from an rng."""
    try:
        shortfalls = inst.class_certificate(m, arrow, side)
    except ValueError as exc:
        return [f"{side} arrow is not a morphism: {exc}"]
    if not shortfalls:
        return shortfalls
    # a candidate short of the true class misses a cone: the kernel
    # (cokernel) itself
    return [f"{cone} does not factor through the {side}", *shortfalls]


def _rank_violations(inst, rng, tests, homs, name: str, cone: str) -> list:
    """The rank identity of both verifiers, for a candidate K that kills m
    and that is_mono (is_epi) accepted.  homs(t) is dim Hom(t, K) and the
    matrix of composing with m on Hom(t, m.source); for a cokernel,
    Hom(K, t) and Hom(m.target, t).  A componentwise mono cancels, so
    composing with K is injective into that matrix's null space: every cone
    factors, uniquely, exactly when dim Hom(t, K) is its nullity."""
    violations = []
    objects = (*tests, *inst.simples(), inst.sample_object(rng, 2))
    for t in dict.fromkeys(objects):
        factors, cones = homs(t)
        if factors != cones.cols - rank(cones):
            violations.append(f"{cone} does not factor through the {name}")
    return violations


def verify_kernel_universal(inst: CategoryInstance, m: Mor, kobj, kmor: Mor,
                            rng: random.Random) -> list:
    """Certify (kobj, kmor) as the kernel of m.

    Checks m o kmor = 0 and kmor mono.  Such a kmor is then certified by
    the instance's class certificate (class_certificate) where it has one,
    and otherwise by the rank identity of _rank_violations on Hom(t, -)
    for t the kernel, the source of m, every simple and one sampled
    object.  A nonzero kernel has a simple subobject, so a zero candidate
    in place of one fails there.
    """
    killed = inst.compose(m, kmor) == inst.zero_morphism(kobj, m.target)
    violations = [] if killed else ["kernel arrow does not compose to zero"]
    if not inst.is_mono(kmor):
        violations.append("kernel arrow is not mono")
    elif killed:
        cone = "a cone killed by m"
        found = _class_violations(inst, m, kmor, "kernel", cone)
        violations += found if found is not None else _rank_violations(
            inst, rng, (kobj, m.source), lambda t: (
                hom_dim(inst, t, kobj),
                _hom_action(inst, t, m.source, lambda h: inst.compose(m, h))),
            "kernel", cone)
    return violations


def verify_cokernel_universal(inst: CategoryInstance, m: Mor, cobj, cmor: Mor,
                              rng: random.Random) -> list:
    """The dual of verify_kernel_universal, on Hom(-, t): cocones out of
    m.target that kill m must factor uniquely through the epi cmor."""
    killed = inst.compose(cmor, m) == inst.zero_morphism(m.source, cobj)
    violations = [] if killed else ["cokernel arrow does not compose to zero"]
    if not inst.is_epi(cmor):
        violations.append("cokernel arrow is not epi")
    elif killed:
        cone = "a cocone killing m"
        found = _class_violations(inst, m, cmor, "cokernel", cone)
        violations += found if found is not None else _rank_violations(
            inst, rng, (cobj, m.target), lambda t: (
                hom_dim(inst, cobj, t),
                _hom_action(inst, m.target, t, lambda h: inst.compose(h, m))),
            "cokernel", cone)
    return violations


def certify_morphism(inst: CategoryInstance, m: Mor, rng: random.Random):
    """Build and certify the kernel and the cokernel of m, and certify the
    induced coim(m) -> im(m) invertible, in one pass.

    A glued instance keeps the kernels and cokernels it has just built, so
    verify_induced_iso reads ker m and coker m back rather than building
    them again, and m costs four glued constructions.  Returns
    ((kobj, kmor), (cobj, cmor), violations), where violations maps
    "kernel", "cokernel" and "induced", in this order, to what
    verify_kernel_universal, verify_cokernel_universal and
    verify_induced_iso would report; the two verifiers draw from rng in
    the same order as when called one after the other.
    """
    kobj, kmor = inst.kernel(m)
    kernel = verify_kernel_universal(inst, m, kobj, kmor, rng)
    cobj, cmor = inst.cokernel(m)
    cokernel = verify_cokernel_universal(inst, m, cobj, cmor, rng)
    induced = verify_induced_iso(inst, m)
    return (kobj, kmor), (cobj, cmor), {
        "kernel": kernel, "cokernel": cokernel, "induced": induced}


def verify_biproduct(inst: CategoryInstance, x, y) -> list:
    violations = []
    s, (i1, i2), (p1, p2) = inst.biproduct(x, y)
    if inst.compose(p1, i1) != inst.identity(x):
        violations.append("p1 o i1 != id")
    if inst.compose(p2, i2) != inst.identity(y):
        violations.append("p2 o i2 != id")
    if inst.compose(p1, i2) != inst.zero_morphism(y, x):
        violations.append("p1 o i2 != 0")
    if inst.compose(p2, i1) != inst.zero_morphism(x, y):
        violations.append("p2 o i1 != 0")
    recomb = inst.add(inst.compose(i1, p1), inst.compose(i2, p2))
    if recomb != inst.identity(s):
        violations.append("i1 p1 + i2 p2 != id on the biproduct")
    return violations


# -- short exact sequences ----------------------------------------------


def exact_at_middle(inst: CategoryInstance, first: Mor, second: Mor) -> bool:
    """Whether the image of first equals the kernel of second."""
    return inst.subobject_key(first) == inst.subobject_key(inst.kernel(second)[1])


def verify_ses(inst: CategoryInstance, sub: Mor, quot: Mor) -> list:
    violations = []
    if sub.target != quot.source:
        return ["sub and quot do not share a middle object"]
    if not inst.is_mono(sub):
        violations.append("sub arrow is not mono")
    if not inst.is_epi(quot):
        violations.append("quot arrow is not epi")
    if inst.compose(quot, sub) != inst.zero_morphism(sub.source, quot.target):
        violations.append("quot o sub != 0")
    if not exact_at_middle(inst, sub, quot):
        violations.append("image(sub) != kernel(quot)")
    return violations


def short_exact(inst: CategoryInstance, sub: Mor, quot: Mor) -> ShortExactSequence:
    violations = verify_ses(inst, sub, quot)
    if violations:
        raise ExactnessViolation("not short exact: " + "; ".join(violations))
    return ShortExactSequence(sub, quot)


def subobject_ses(inst: CategoryInstance, sub: Subobject) -> ShortExactSequence:
    """0 -> sub -> x -> x/sub -> 0 for a chosen subobject of x."""
    _, q = inst.cokernel(sub.mono)
    return short_exact(inst, sub.mono, q)


def factor_between(inst: CategoryInstance, inner: Subobject, outer: Subobject):
    """For nested subobjects inner <= outer of one ambient object, return
    (inclusion inner -> outer, factor object outer/inner, projection).
    Returns None when inner does not sit inside outer."""
    u = try_through_mono(inst, outer.mono, inner.mono)
    if u is None:
        return None
    fobj, proj = inst.cokernel(u)
    return u, fobj, proj


def subobject_leq(inst: CategoryInstance, inner: Subobject, outer: Subobject) -> bool:
    """Whether inner factors through outer, decided by their keys.

    Key containment is necessary.  Where the instance does not declare it
    sufficient (a glued context opened by assume_abelian without the leg
    flag the cancellation argument needs), a key-order yes is confirmed by
    solving for the factorization.
    """
    if not inst.subobject_key_leq(inner.key, outer.key):
        return False
    return (inst.subobject_key_order_exact
            or try_through_mono(inst, outer.mono, inner.mono) is not None)


# -- whole-instance audit ------------------------------------------------


def verify_category(inst: CategoryInstance, samples: int = 24, seed: int = 0,
                    max_dim: int = 3) -> CheckReport:
    """Seeded spot-check of the category axioms and abelian structure.

    Samples morphisms and checks identity and associativity laws, kernel
    and cokernel universal properties, biproduct identities, and the
    invertibility of induced coimage->image maps.  Returns every violation
    found; a clean report is the pass certificate.
    """
    rng = random.Random(seed)
    # what the verifiers draw must not move the sampled morphisms
    check_rng = random.Random(seed)
    violations = []
    checked = 0

    objs = [inst.zero_object()] + [inst.sample_object(rng, max_dim) for _ in range(6)]

    def sample_pair():
        x = objs[rng.randrange(len(objs))]
        y = objs[rng.randrange(len(objs))]
        return x, y

    for _ in range(samples):
        x, y = sample_pair()
        m = random_hom(inst, rng, x, y)
        checked += 1
        if inst.compose(inst.identity(y), m) != m or inst.compose(m, inst.identity(x)) != m:
            violations.append(f"identity law fails at {inst.describe_object(x)}")
        z = objs[rng.randrange(len(objs))]
        w = objs[rng.randrange(len(objs))]
        m2 = random_hom(inst, rng, y, z)
        m3 = random_hom(inst, rng, z, w)
        if inst.compose(m3, inst.compose(m2, m)) != inst.compose(inst.compose(m3, m2), m):
            violations.append("associativity fails on a sampled triple")

    for _ in range(max(4, samples // 3)):
        x, y = sample_pair()
        m = random_hom(inst, rng, x, y)
        checked += 1
        *_, found = certify_morphism(inst, m, check_rng)
        for v in found.values():
            violations.extend(v)

    for _ in range(3):
        x, y = sample_pair()
        checked += 1
        violations.extend(verify_biproduct(inst, x, y))

    return CheckReport(checked, tuple(violations))
