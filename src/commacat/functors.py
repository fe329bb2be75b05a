"""A small library of additive (and deliberately non-additive) functors
between the concrete categories, with declared exactness flags and an
empirical checker that probes the flags on random short exact sequences.

The checker never trusts a declaration: a declared-true flag that fails on
a probe is a reported contradiction, and a declared-false flag is expected
to produce a witnessed violation sooner or later.  The one_plus functor
exists precisely to exercise the second path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional

from .core import (CategoryInstance, CheckReport, Mor, exact_at_middle, random_hom,
                   subobject_ses)
from .errors import ExactnessViolation
from .instances import FinVect, Rep, RepObject, is_int
from .linalg import (
    Matrix,
    block_diag,
    hash_once,
    image_basis,
    kernel_basis,
    quotient_map,
    rank,
    solve,
    solve_left,
)

# total dimension of the random objects check_functor probes with
_PROBE_DIM = 3


@hash_once
@dataclass(frozen=True)
class FunctorSpec:
    """A functor between two category instances, with declared behaviour.

    For contravariant functors the exactness flags read on the output side:
    left_exact means short exact sequences land as 0 -> G(A'') -> G(A) ->
    G(A'), right_exact means they land as G(A'') -> G(A) -> G(A') -> 0.
    """

    kind: str
    source: CategoryInstance
    target: CategoryInstance
    params: tuple = ()
    left_exact: bool = False
    right_exact: bool = False

    def __post_init__(self):
        k = functor_kind(self.kind)
        for side, cls in (("source", k.source), ("target", k.target)):
            if cls is not None and not isinstance(getattr(self, side), cls):
                raise ValueError(f"{self.kind} needs a {cls.__name__} "
                                 f"category as its {side}")
        if self.target.field != self.source.field:
            raise ValueError(f"{self.kind} maps F_{self.source.field} "
                             f"to F_{self.target.field}; its source and "
                             "target must share one prime field")
        if k.endo and self.target != self.source:
            raise ValueError("this functor kind maps a category to itself; "
                             "its target must be its source")
        if len(self.params) != (k.param is not None):
            raise ValueError(f"{self.kind} takes "
                             + ("one parameter" if k.param else "none"))
        if k.param is not None:
            fits, what = _PARAMS[k.param]
            if not fits(self, self.params[0]):
                raise ValueError(f"{self.kind}: its parameter must be {what}, "
                                 f"got {self.params[0]!r}")

    @property
    def additive(self) -> bool:
        """Whether F is additive, read off the kind: an affine map on
        Hom(x, y) is linear iff it sends 0 to 0, and F(0_{x,y}) factors
        through F(0), so F is additive iff F(0) is a zero object."""
        return self.target.is_zero_object(
            apply_on_object(self, self.source.zero_object()))

    @property
    def contravariant(self) -> bool:
        """Whether F reverses arrows, read off the kind."""
        return KINDS[self.kind].contravariant


def functor(kind: str, source: CategoryInstance, target: CategoryInstance,
            *params) -> FunctorSpec:
    """The functor of a kind with the exactness flags the kind declares."""
    left, right = functor_kind(kind).flags(source, target, *params)
    return FunctorSpec(kind, source, target, params, left, right)


def identity_functor(inst: CategoryInstance) -> FunctorSpec:
    return functor("identity", inst, inst)


def zero_functor(source: CategoryInstance, target: CategoryInstance) -> FunctorSpec:
    return functor("zero", source, target)


def hom_from(source: CategoryInstance, x0, target: FinVect) -> FunctorSpec:
    """Hom(x0, -) into vector spaces; left exact always."""
    return functor("hom_from", source, target, x0)


def hom_into(source: CategoryInstance, w, target: FinVect) -> FunctorSpec:
    """Contravariant Hom(-, w) into vector spaces.

    On vector spaces this is exact in both output senses; on quiver
    representations only the left-exact side is declared.
    """
    return functor("hom_into", source, target, w)


def eval_vertex(source: Rep, v: int, target: FinVect) -> FunctorSpec:
    return functor("eval_vertex", source, target, v)


def arrow_kernel(source: Rep, a: int, target: FinVect) -> FunctorSpec:
    return functor("arrow_kernel", source, target, a)


def arrow_cokernel(source: Rep, a: int, target: FinVect) -> FunctorSpec:
    return functor("arrow_cokernel", source, target, a)


def tensor(inst: FinVect, w: int) -> FunctorSpec:
    return functor("tensor", inst, inst, w)


def one_plus(inst: FinVect) -> FunctorSpec:
    """k + (-): prepends a fixed line to every space and every map.

    Non-additive (it sends the zero map to a rank-one map) and exact in
    neither direction, which is the point of keeping it around.
    """
    return functor("one_plus", inst, inst)


def constant(source: CategoryInstance, target: CategoryInstance, c0) -> FunctorSpec:
    return functor("constant", source, target, c0)


# -- the kind table ------------------------------------------------------


@cache
def _hom_data(src: CategoryInstance, x, y):
    """The basis of Hom(x, y) and the pivot coordinate of each element,
    which reads a morphism's coordinates in that basis off its flat."""
    basis = src.hom_basis(x, y)
    pivots = tuple(next(i for i, v in enumerate(src.mor_flat(b)) if v)
                   for b in basis)
    return basis, pivots


def _hom_on_morphism(f: FunctorSpec, s, t, basis_of, pivots_of,
                     compose) -> Mor:
    """F(m) for the hom kinds: compose each element of the basis of
    Hom(*basis_of) and read the result at the pivots of Hom(*pivots_of)."""
    basis, _ = _hom_data(f.source, *basis_of)
    _, pivots = _hom_data(f.source, *pivots_of)
    flats = [f.source.mor_flat(compose(b)) for b in basis]
    return Mor(s, t, Matrix.build(len(pivots), len(basis), f.target.field,
                                  (flat[i] for i in pivots for flat in flats)))


def _arrow_kernel_incl(x: RepObject, a: int) -> Matrix:
    return kernel_basis(x.maps[a]).basis.transpose()


def _arrow_cokernel_proj(x: RepObject, a: int) -> Matrix:
    proj, _ = quotient_map(x.maps[a].rows, image_basis(x.maps[a]))
    return proj


def _arrow_kernel_dim(f: FunctorSpec, x: RepObject) -> int:
    m = x.maps[f.params[0]]
    return m.cols - rank(m)


def _arrow_cokernel_dim(f: FunctorSpec, x: RepObject) -> int:
    m = x.maps[f.params[0]]
    return m.rows - rank(m)


def _arrow_kernel_map(f: FunctorSpec, m: Mor, s, t) -> Mor:
    a = f.params[0]
    tail = f.source.quiver.arrows[a][0]
    inc_x = _arrow_kernel_incl(m.source, a)
    restricted = solve(_arrow_kernel_incl(m.target, a),
                       m.data[tail].mul(inc_x))
    if restricted is None:
        raise ExactnessViolation(
            f"the morphism does not carry the kernel of arrow {a} "
            "into the kernel")
    return Mor(s, t, restricted)


def _arrow_cokernel_map(f: FunctorSpec, m: Mor, s, t) -> Mor:
    a = f.params[0]
    head = f.source.quiver.arrows[a][1]
    pr_x = _arrow_cokernel_proj(m.source, a)
    induced = solve_left(pr_x, _arrow_cokernel_proj(m.target, a)
                         .mul(m.data[head]))
    if induced is None:
        raise ExactnessViolation(
            f"the morphism does not descend to the cokernel of arrow {a}")
    return Mor(s, t, induced)


@dataclass(frozen=True)
class FunctorKind:
    """One functor kind: F(x) = on_object(f, x); F(m) = on_morphism(f, m,
    s, t), s and t the mapped (for a contravariant f, swapped) endpoints;
    flags(source, target, *params) is the declared (left_exact,
    right_exact); contravariant marks a kind whose morphism map reverses
    arrows.  param names where a workspace entry supplies the one
    parameter: None for none, an object of the source or target category
    ("source_object", "target_object"), or the entry's "vertex", "arrow"
    or "dim" field, each an int in range; _PARAMS says what fits each.
    source and target, when set, are the category types the maps need,
    and endo marks a kind whose target must be its source; FunctorSpec
    refuses a spec that breaks any of these rules.

    Each kind's morphism map must be affine in m on every hom space:
    FunctorSpec.additive reads additivity off F(0) on that condition."""

    on_object: Callable
    on_morphism: Callable
    flags: Callable
    param: Optional[str] = None
    source: Optional[type] = None
    target: Optional[type] = None
    endo: bool = False
    contravariant: bool = False


def _index(v, bound) -> bool:
    """Whether v is an int (not a bool) in range(bound)."""
    return is_int(v) and 0 <= v < bound


# a parameter kind -> (whether a value fits it, given the spec; what fits)
_PARAMS = {
    "vertex": (lambda f, v: _index(v, f.source.quiver.vertices),
               "a vertex index of the source quiver"),
    "arrow": (lambda f, v: _index(v, len(f.source.quiver.arrows)),
              "an arrow index of the source quiver"),
    "dim": (lambda f, v: _index(v, float("inf")), "a nonnegative integer"),
    "source_object": (lambda f, v: f.source.is_object(v),
                      "an object of the source category"),
    "target_object": (lambda f, v: f.target.is_object(v),
                      "an object of the target category"),
}


def _exact(src, tgt, *params):
    return True, True


def _left(src, tgt, *params):
    return True, False


KINDS = {
    "identity": FunctorKind(lambda f, x: x, lambda f, m, s, t: m, _exact,
                            endo=True),
    "zero": FunctorKind(lambda f, x: f.target.zero_object(),
                        lambda f, m, s, t: f.target.zero_morphism(s, t),
                        _exact),
    "hom_from": FunctorKind(
        lambda f, x: len(_hom_data(f.source, f.params[0], x)[0]),
        lambda f, m, s, t: _hom_on_morphism(
            f, s, t, (f.params[0], m.source), (f.params[0], m.target),
            lambda phi: f.source.compose(m, phi)),
        _left, "source_object", target=FinVect),
    "hom_into": FunctorKind(
        lambda f, x: len(_hom_data(f.source, x, f.params[0])[0]),
        lambda f, m, s, t: _hom_on_morphism(
            f, s, t, (m.target, f.params[0]), (m.source, f.params[0]),
            lambda psi: f.source.compose(psi, m)),
        lambda src, tgt, w: (True, isinstance(src, FinVect)),
        "source_object", target=FinVect, contravariant=True),
    "eval_vertex": FunctorKind(
        lambda f, x: x.dims[f.params[0]],
        lambda f, m, s, t: Mor(s, t, m.data[f.params[0]]),
        _exact, "vertex", Rep, FinVect),
    "arrow_kernel": FunctorKind(
        _arrow_kernel_dim, _arrow_kernel_map, _left, "arrow", Rep, FinVect),
    "arrow_cokernel": FunctorKind(
        _arrow_cokernel_dim, _arrow_cokernel_map,
        lambda src, tgt, a: (False, True), "arrow", Rep, FinVect),
    # F(m) = kron(I_w, m): w copies of m down the diagonal, after a 0x0
    # block so that w = 0 gives the 0x0 map
    "tensor": FunctorKind(
        lambda f, x: f.params[0] * x,
        lambda f, m, s, t: Mor(s, t, block_diag(
            [Matrix.zero(0, 0, f.target.field)] + [m.data] * f.params[0])),
        _exact, "dim", FinVect, FinVect, endo=True),
    "one_plus": FunctorKind(
        lambda f, x: 1 + x,
        lambda f, m, s, t: Mor(s, t, block_diag(
            [Matrix.identity(1, f.target.field), m.data])),
        lambda src, tgt: (False, False), source=FinVect, target=FinVect,
        endo=True),
    "constant": FunctorKind(
        lambda f, x: f.params[0],
        lambda f, m, s, t: f.target.identity(f.params[0]),
        lambda src, tgt, c0: (tgt.is_zero_object(c0),) * 2, "target_object"),
}


def functor_kind(kind) -> FunctorKind:
    """The table entry of a kind name; ValueError for any other value."""
    try:
        return KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown functor kind {kind!r}") from None


# -- application ---------------------------------------------------------


def apply_on_object(f: FunctorSpec, x):
    return KINDS[f.kind].on_object(f, x)


# The glued constructions apply the legs to the same few component
# morphisms over and over: a cold seed-3 certify pass makes 31,680 calls on
# 1,134 distinct (functor, morphism) keys.  This is the smallest bound
# that keeps 90% of them hits there (README).  A call that raises is not
# kept and raises again.
APPLY_ON_MORPHISM = 128


@lru_cache(maxsize=APPLY_ON_MORPHISM)
def apply_on_morphism(f: FunctorSpec, m: Mor) -> Mor:
    kind = KINDS[f.kind]
    s = apply_on_object(f, m.source)
    t = apply_on_object(f, m.target)
    if kind.contravariant:
        s, t = t, s
    return kind.on_morphism(f, m, s, t)


# -- empirical flag checking ---------------------------------------------


@dataclass(frozen=True)
class FunctorReport:
    kind: str
    laws: CheckReport
    additivity: CheckReport
    left_exact: CheckReport
    right_exact: CheckReport
    flag_mismatches: tuple
    unwitnessed_negations: tuple


def check_functor(f: FunctorSpec, samples: int = 40, seed: int = 0,
                  extra_ses=()) -> FunctorReport:
    """Probe functor laws, additivity, and both exactness directions.

    Exactness probes run the functor over short exact sequences built from
    random subobjects (plus any caller-supplied sequences, checked first)
    and compare image against kernel in the target.
    """
    rng = random.Random(seed)
    src, tgt = f.source, f.target

    law_violations = []
    law_checks = 0
    objs = [src.zero_object()] + [src.sample_object(rng, _PROBE_DIM) for _ in range(5)]
    for _ in range(samples):
        x = objs[rng.randrange(len(objs))]
        y = objs[rng.randrange(len(objs))]
        z = objs[rng.randrange(len(objs))]
        if apply_on_morphism(f, src.identity(x)) != tgt.identity(apply_on_object(f, x)):
            law_violations.append(f"F(id) != id at {src.describe_object(x)}")
        m1 = random_hom(src, rng, x, y)
        m2 = random_hom(src, rng, y, z)
        law_checks += 1
        lhs = apply_on_morphism(f, src.compose(m2, m1))
        if f.contravariant:
            rhs = tgt.compose(apply_on_morphism(f, m1), apply_on_morphism(f, m2))
        else:
            rhs = tgt.compose(apply_on_morphism(f, m2), apply_on_morphism(f, m1))
        if lhs != rhs:
            law_violations.append("F does not respect composition")

    add_violations = []
    add_checks = 0
    for _ in range(samples):
        x = objs[rng.randrange(len(objs))]
        y = objs[rng.randrange(len(objs))]
        g1 = random_hom(src, rng, x, y)
        g2 = random_hom(src, rng, x, y)
        add_checks += 1
        lhs = apply_on_morphism(f, src.add(g1, g2))
        rhs = tgt.add(apply_on_morphism(f, g1), apply_on_morphism(f, g2))
        if lhs != rhs:
            add_violations.append(
                f"F(g1+g2) != F(g1)+F(g2) on Hom({src.describe_object(x)}, "
                f"{src.describe_object(y)})")
        zmor = src.zero_morphism(x, y)
        fz = apply_on_morphism(f, zmor)
        if fz != tgt.zero_morphism(fz.source, fz.target):
            add_violations.append("F(0) != 0")

    left_violations = []
    right_violations = []
    exact_checks = 0
    probes = list(extra_ses)
    # every sequence below a small bound: random draws alone miss the
    # configurations that actually break exactness far too often
    for x in src.enumerate_objects(2):
        if src.is_zero_object(x):
            continue
        for sub in src.enumerate_subobjects(x):
            probes.append(subobject_ses(src, sub))
    for _ in range(samples // 2):
        x = src.sample_object(rng, _PROBE_DIM)
        if src.is_zero_object(x):
            continue
        subs = src.enumerate_subobjects(x)
        sub = subs[rng.randrange(len(subs))]
        try:
            probes.append(subobject_ses(src, sub))
        except ExactnessViolation:
            continue
    for ses in probes:
        exact_checks += 1
        f_sub = apply_on_morphism(f, ses.sub)
        f_quot = apply_on_morphism(f, ses.quot)
        if f.contravariant:
            first, second = f_quot, f_sub
        else:
            first, second = f_sub, f_quot
        middle = exact_at_middle(tgt, first, second)
        mono = tgt.is_mono(first)
        epi = tgt.is_epi(second)
        if not mono or not middle:
            left_violations.append(
                "left-exactness fails: "
                + ("image != kernel at the middle term" if mono
                   else "first arrow not mono"))
        if not epi or not middle:
            right_violations.append(
                "right-exactness fails: "
                + ("image != kernel at the middle term" if epi
                   else "last arrow not epi"))

    laws = CheckReport(law_checks, tuple(law_violations))
    additivity = CheckReport(add_checks, tuple(add_violations))
    left = CheckReport(exact_checks, tuple(left_violations))
    right = CheckReport(exact_checks, tuple(right_violations))

    mismatches = []
    unwitnessed = []
    for name, declared, outcome in (
            ("additive", f.additive, additivity),
            ("left_exact", f.left_exact, left),
            ("right_exact", f.right_exact, right)):
        if declared and not outcome.clean:
            mismatches.append(f"declared {name} but violated: {outcome.violations[0]}")
        if not declared and outcome.clean:
            unwitnessed.append(f"declared not {name} but no violation was found")

    return FunctorReport(kind=f.kind, laws=laws, additivity=additivity,
                         left_exact=left, right_exact=right,
                         flag_mismatches=tuple(mismatches),
                         unwitnessed_negations=tuple(unwitnessed))
