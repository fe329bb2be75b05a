"""Grothendieck classes.

Every instance here has finite length, so the class group is free on the
simple classes and an object's class is its composition-factor count
vector.  For triples the class is the concatenation of the component
classes, which makes the structure map invisible at class level; the
splitting sequence built by decompose witnesses that collapse with an
actual verified short exact sequence rather than by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import CategoryInstance, ShortExactSequence, short_exact
from .functors import apply_on_object


def cls(cat: CategoryInstance, x) -> tuple:
    """Class vector of x: multiplicities over the simple classes of cat."""
    return cat.class_vector(x)


@dataclass(frozen=True)
class AdditiveAssignment:
    """A function on objects determined by its values on simples.

    simple_values lists one integer value vector per simple class, in the
    order of cat.simples().  direct, when given, evaluates objects without
    going through class vectors; the factorization check compares the two
    routes.
    """

    simple_values: tuple
    direct: Optional[Callable] = None

    def target_rank(self) -> int:
        return len(self.simple_values[0]) if self.simple_values else 0


def induced_hom(assignment: AdditiveAssignment) -> tuple:
    """The unique linear extension, as a column-per-simple matrix."""
    return tuple(tuple(v) for v in assignment.simple_values)


def apply_induced(assignment: AdditiveAssignment, vec: Sequence[int]) -> tuple:
    cols = induced_hom(assignment)
    if len(vec) != len(cols):
        raise ValueError("class vector length does not match the assignment")
    rank = assignment.target_rank()
    out = [0] * rank
    for coord, col in zip(vec, cols):
        for i in range(rank):
            out[i] += coord * col[i]
    return tuple(out)


@dataclass(frozen=True)
class AdditivityReport:
    checked: int
    violations: tuple

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_additivity(sequences, assignment: Optional[AdditiveAssignment] = None,
                      cat: Optional[CategoryInstance] = None) -> AdditivityReport:
    """Check f(middle) = f(sub) + f(quot) over a batch of sequences.

    sequences is an iterable of (cat, ses) pairs as produced by the audit
    hook, or of bare sequences when cat is passed.  With no assignment the
    class vector itself is the evaluated function.
    """
    violations = []
    checked = 0
    for entry in sequences:
        if isinstance(entry, ShortExactSequence):
            inst, ses = cat, entry
            if inst is None:
                raise ValueError("bare sequences need the cat argument")
        else:
            inst, ses = entry
        sub_v = cls(inst, ses.sub.source)
        mid_v = cls(inst, ses.sub.target)
        quot_v = cls(inst, ses.quot.target)
        if assignment is None:
            lhs = mid_v
            rhs = tuple(s + q for s, q in zip(sub_v, quot_v))
        else:
            lhs = apply_induced(assignment, mid_v)
            rhs = tuple(s + q for s, q in zip(
                apply_induced(assignment, sub_v),
                apply_induced(assignment, quot_v)))
        checked += 1
        if lhs != rhs:
            violations.append((inst.describe_object(ses.sub.target), lhs, rhs))
    return AdditivityReport(checked, tuple(violations))


def verify_factorization(cat: CategoryInstance, assignment: AdditiveAssignment,
                         objects) -> AdditivityReport:
    """Compare direct evaluation against the induced map applied to the
    class vector, object by object."""
    if assignment.direct is None:
        raise ValueError("assignment has no direct evaluation to compare")
    violations = []
    checked = 0
    for x in objects:
        via_class = apply_induced(assignment, cls(cat, x))
        direct = tuple(assignment.direct(x))
        checked += 1
        if via_class != direct:
            violations.append((cat.describe_object(x), direct, via_class))
    return AdditivityReport(checked, tuple(violations))


def decompose(cat, x):
    """Split a triple's class into its two component classes, witnessed by
    a verified short exact sequence.

    For the covariant construction the right component embeds and the left
    component quotients; when left components run backwards the roles swap.
    Returns (left class, right class, witness).
    """
    a_cls = cat.left.class_vector(x.a)
    b_cls = cat.right.class_vector(x.b)
    a0, b0 = cat.left.zero_object(), cat.right.zero_object()
    a_part = cat.obj(x.a, b0, _zero_structure(cat, x.a, b0))
    b_part = cat.obj(a0, x.b, _zero_structure(cat, a0, x.b))

    def via_a(s, t):
        return cat.mor(s, t, cat.left.identity(x.a),
                       cat.right.zero_morphism(s.b, t.b))

    def via_b(s, t):
        # the left zero runs whichever way left components run
        return cat.mor(s, t, cat.zero_morphism(s, t).data[0],
                       cat.right.identity(x.b))

    if cat.left_reversed:
        sub, quot = via_a(a_part, x), via_b(x, b_part)
    else:
        sub, quot = via_b(b_part, x), via_a(x, a_part)
    witness = short_exact(cat, sub, quot)
    return a_cls, b_cls, witness


def _zero_structure(cat, a, b):
    fa = apply_on_object(cat.left_functor, a)
    gb = apply_on_object(cat.right_functor, b)
    return cat.cone.zero_morphism(fa, gb)
