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
from functools import cache

from .core import CategoryInstance, Mor, image, random_hom, subobject_ses
from .errors import ExactnessViolation
from .instances import FinVect, Rep, RepObject
from .linalg import (
    Matrix,
    block_diag,
    image_basis,
    kernel_basis,
    kron,
    quotient_map,
    solve,
    solve_left,
)


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
    additive: bool = True
    left_exact: bool = False
    right_exact: bool = False
    contravariant: bool = False


def identity_functor(inst: CategoryInstance) -> FunctorSpec:
    return FunctorSpec("identity", inst, inst,
                       additive=True, left_exact=True, right_exact=True)


def zero_functor(source: CategoryInstance, target: CategoryInstance) -> FunctorSpec:
    return FunctorSpec("zero", source, target,
                       additive=True, left_exact=True, right_exact=True)


def hom_from(source: CategoryInstance, x0, target: FinVect) -> FunctorSpec:
    """Hom(x0, -) into vector spaces; left exact always."""
    return FunctorSpec("hom_from", source, target, params=(x0,),
                       additive=True, left_exact=True, right_exact=False)


def hom_into(source: CategoryInstance, w, target: FinVect) -> FunctorSpec:
    """Contravariant Hom(-, w) into vector spaces.

    On vector spaces this is exact in both output senses; on quiver
    representations only the left-exact side is declared.
    """
    exact_source = isinstance(source, FinVect)
    return FunctorSpec("hom_into", source, target, params=(w,),
                       additive=True, left_exact=True,
                       right_exact=exact_source, contravariant=True)


def eval_vertex(source: Rep, v: int, target: FinVect) -> FunctorSpec:
    if not 0 <= v < source.quiver.vertices:
        raise ValueError("vertex out of range")
    return FunctorSpec("eval_vertex", source, target, params=(v,),
                       additive=True, left_exact=True, right_exact=True)


def arrow_kernel(source: Rep, a: int, target: FinVect) -> FunctorSpec:
    if not 0 <= a < len(source.quiver.arrows):
        raise ValueError("arrow out of range")
    return FunctorSpec("arrow_kernel", source, target, params=(a,),
                       additive=True, left_exact=True, right_exact=False)


def arrow_cokernel(source: Rep, a: int, target: FinVect) -> FunctorSpec:
    if not 0 <= a < len(source.quiver.arrows):
        raise ValueError("arrow out of range")
    return FunctorSpec("arrow_cokernel", source, target, params=(a,),
                       additive=True, left_exact=False, right_exact=True)


def tensor(inst: FinVect, w: int) -> FunctorSpec:
    return FunctorSpec("tensor", inst, inst, params=(w,),
                       additive=True, left_exact=True, right_exact=True)


def one_plus(inst: FinVect) -> FunctorSpec:
    """k + (-): prepends a fixed line to every space and every map.

    Non-additive (it sends the zero map to a rank-one map) and exact in
    neither direction, which is the point of keeping it around.
    """
    return FunctorSpec("one_plus", inst, inst,
                       additive=False, left_exact=False, right_exact=False)


def constant(source: CategoryInstance, target: CategoryInstance, c0) -> FunctorSpec:
    triv = target.is_zero_object(c0)
    return FunctorSpec("constant", source, target, params=(c0,),
                       additive=triv, left_exact=triv, right_exact=triv)


# -- application ---------------------------------------------------------


@cache
def _hom_from_data(src: CategoryInstance, x0, y):
    basis = src.hom_basis(x0, y)
    pivots = tuple(next(i for i, v in enumerate(src.mor_flat(b)) if v)
                   for b in basis)
    return basis, pivots


@cache
def _hom_into_data(src: CategoryInstance, w, x):
    basis = src.hom_basis(x, w)
    pivots = tuple(next(i for i, v in enumerate(src.mor_flat(b)) if v)
                   for b in basis)
    return basis, pivots


@cache
def _arrow_kernel_incl(x: RepObject, a: int) -> Matrix:
    return kernel_basis(x.maps[a]).basis.transpose()


@cache
def _arrow_cokernel_proj(x: RepObject, a: int, t_dim: int) -> Matrix:
    proj, _ = quotient_map(t_dim, image_basis(x.maps[a]))
    return proj


@cache
def apply_on_object(f: FunctorSpec, x):
    kind = f.kind
    if kind == "identity":
        return x
    if kind == "zero":
        return f.target.zero_object()
    if kind == "hom_from":
        return len(_hom_from_data(f.source, f.params[0], x)[0])
    if kind == "hom_into":
        return len(_hom_into_data(f.source, f.params[0], x)[0])
    if kind == "eval_vertex":
        return x.dims[f.params[0]]
    if kind == "arrow_kernel":
        return _arrow_kernel_incl(x, f.params[0]).cols
    if kind == "arrow_cokernel":
        a = f.params[0]
        t = f.source.quiver.arrows[a][1]
        return _arrow_cokernel_proj(x, a, x.dims[t]).rows
    if kind == "tensor":
        return f.params[0] * x
    if kind == "one_plus":
        return 1 + x
    if kind == "constant":
        return f.params[0]
    raise ValueError(f"unknown functor kind {kind!r}")


def apply_on_morphism(f: FunctorSpec, m: Mor) -> Mor:
    src_obj = apply_on_object(f, m.source)
    tgt_obj = apply_on_object(f, m.target)
    if f.contravariant:
        out_source, out_target = tgt_obj, src_obj
    else:
        out_source, out_target = src_obj, tgt_obj
    kind = f.kind
    if kind == "identity":
        return m
    if kind == "zero":
        return f.target.zero_morphism(out_source, out_target)
    if kind == "hom_from":
        x0 = f.params[0]
        basis_s, _ = _hom_from_data(f.source, x0, m.source)
        _, piv_t = _hom_from_data(f.source, x0, m.target)
        cols = []
        for phi in basis_s:
            flat = f.source.mor_flat(f.source.compose(m, phi))
            cols.append([flat[p] for p in piv_t])
        return Mor(out_source, out_target, _matrix_from_cols(cols, out_target, f.target.field))
    if kind == "hom_into":
        w = f.params[0]
        basis_t, _ = _hom_into_data(f.source, w, m.target)
        _, piv_s = _hom_into_data(f.source, w, m.source)
        cols = []
        for psi in basis_t:
            flat = f.source.mor_flat(f.source.compose(psi, m))
            cols.append([flat[p] for p in piv_s])
        return Mor(out_source, out_target, _matrix_from_cols(cols, out_target, f.target.field))
    if kind == "eval_vertex":
        return Mor(out_source, out_target, m.data[f.params[0]])
    if kind == "arrow_kernel":
        a = f.params[0]
        s = f.source.quiver.arrows[a][0]
        inc_x = _arrow_kernel_incl(m.source, a)
        inc_y = _arrow_kernel_incl(m.target, a)
        restricted = solve(inc_y, m.data[s].mul(inc_x))
        if restricted is None:
            raise ExactnessViolation(
                f"the morphism does not carry the kernel of arrow {a} "
                "into the kernel")
        return Mor(out_source, out_target, restricted)
    if kind == "arrow_cokernel":
        a = f.params[0]
        t = f.source.quiver.arrows[a][1]
        pr_x = _arrow_cokernel_proj(m.source, a, m.source.dims[t])
        pr_y = _arrow_cokernel_proj(m.target, a, m.target.dims[t])
        induced = solve_left(pr_x, pr_y.mul(m.data[t]))
        if induced is None:
            raise ExactnessViolation(
                f"the morphism does not descend to the cokernel of arrow {a}")
        return Mor(out_source, out_target, induced)
    if kind == "tensor":
        w = f.params[0]
        return Mor(out_source, out_target,
                   kron(Matrix.identity(w, f.target.field), m.data))
    if kind == "one_plus":
        return Mor(out_source, out_target,
                   block_diag([Matrix.identity(1, f.target.field), m.data]))
    if kind == "constant":
        return f.target.identity(f.params[0])
    raise ValueError(f"unknown functor kind {kind!r}")


def _matrix_from_cols(cols, nrows: int, p: int) -> Matrix:
    ncols = len(cols)
    return Matrix.build(nrows, ncols, p,
                        (cols[j][i] for i in range(nrows) for j in range(ncols)))


# -- empirical flag checking ---------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    checked: int
    violations: tuple

    @property
    def violated(self) -> bool:
        return bool(self.violations)


@dataclass(frozen=True)
class FunctorReport:
    kind: str
    laws: CheckOutcome
    additivity: CheckOutcome
    left_exact: CheckOutcome
    right_exact: CheckOutcome
    flag_mismatches: tuple
    unwitnessed_negations: tuple

    @property
    def clean(self) -> bool:
        return not self.laws.violated and not self.flag_mismatches


def _middle_exact(tgt: CategoryInstance, first: Mor, second: Mor) -> bool:
    _, imono = image(tgt, first)
    _, kmono = tgt.kernel(second)
    return tgt.subobject_key(imono) == tgt.subobject_key(kmono)


def check_functor(f: FunctorSpec, samples: int = 40, seed: int = 0,
                  extra_ses=(), max_dim: int = 3) -> FunctorReport:
    """Probe functor laws, additivity, and both exactness directions.

    Exactness probes run the functor over short exact sequences built from
    random subobjects (plus any caller-supplied sequences, checked first)
    and compare image against kernel in the target.
    """
    rng = random.Random(seed)
    src, tgt = f.source, f.target

    law_violations = []
    law_checks = 0
    objs = [src.zero_object()] + [src.sample_object(rng, max_dim) for _ in range(5)]
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
        x = src.sample_object(rng, max_dim)
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
        middle = _middle_exact(tgt, first, second)
        if not tgt.is_mono(first) or not middle:
            left_violations.append(
                "left-exactness fails: "
                + ("first arrow not mono" if not tgt.is_mono(first)
                   else "image != kernel at the middle term"))
        if not tgt.is_epi(second) or not middle:
            right_violations.append(
                "right-exactness fails: "
                + ("image != kernel at the middle term" if tgt.is_epi(second)
                   else "last arrow not epi"))

    laws = CheckOutcome(law_checks, tuple(law_violations))
    additivity = CheckOutcome(add_checks, tuple(add_violations))
    left = CheckOutcome(exact_checks, tuple(left_violations))
    right = CheckOutcome(exact_checks, tuple(right_violations))

    mismatches = []
    unwitnessed = []
    for name, declared, outcome in (
            ("additive", f.additive, additivity),
            ("left_exact", f.left_exact, left),
            ("right_exact", f.right_exact, right)):
        if declared and outcome.violated:
            mismatches.append(f"declared {name} but violated: {outcome.violations[0]}")
        if not declared and not outcome.violated:
            unwitnessed.append(f"declared not {name} but no violation was found")

    return FunctorReport(kind=f.kind, laws=laws, additivity=additivity,
                         left_exact=left, right_exact=right,
                         flag_mismatches=tuple(mismatches),
                         unwitnessed_negations=tuple(unwitnessed))
