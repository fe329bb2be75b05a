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

from .core import CategoryInstance, CheckReport, short_exact
from .errors import ExactnessViolation


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


def verify_additivity(cat: CategoryInstance, sequences,
                      assignment: Optional[AdditiveAssignment] = None
                      ) -> CheckReport:
    """Check f(middle) = f(sub) + f(quot) over short exact sequences of cat.

    f is the class vector, or the induced map of assignment when given.
    """
    def f(x):
        v = cls(cat, x)
        return v if assignment is None else apply_induced(assignment, v)

    violations = []
    checked = 0
    for ses in sequences:
        lhs = f(ses.sub.target)
        rhs = tuple(s + q for s, q in zip(f(ses.sub.source), f(ses.quot.target)))
        checked += 1
        if lhs != rhs:
            violations.append((cat.describe_object(ses.sub.target), lhs, rhs))
    return CheckReport(checked, tuple(violations))


def verify_factorization(cat: CategoryInstance, assignment: AdditiveAssignment,
                         objects) -> CheckReport:
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
    return CheckReport(checked, tuple(violations))


def decompose(cat, x):
    """Split a triple's class into its two component classes, witnessed by
    a verified short exact sequence.

    For the covariant construction the right component embeds and the left
    component quotients; when left components run backwards the roles swap.
    Returns (left class, right class, witness).  Over a non-additive leg
    the zero maps need not form squares, and then ExactnessViolation.
    """
    a_cls = cat.left.class_vector(x.a)
    b_cls = cat.right.class_vector(x.b)
    a_part = cat.split(x.a, cat.right.zero_object())
    b_part = cat.split(cat.left.zero_object(), x.b)

    def via_a(s, t):
        return cat.mor(s, t, cat.left.identity(x.a),
                       cat.right.zero_morphism(s.b, t.b))

    def via_b(s, t):
        # the left zero runs whichever way left components run
        return cat.mor(s, t, cat.zero_morphism(s, t).data[0],
                       cat.right.identity(x.b))

    try:
        if cat.left_reversed:
            sub, quot = via_a(a_part, x), via_b(x, b_part)
        else:
            sub, quot = via_b(b_part, x), via_a(x, a_part)
    except ValueError as exc:
        raise ExactnessViolation(f"{cat.describe_object(x)} has no splitting "
                                 f"sequence: {exc}") from exc
    witness = short_exact(cat, sub, quot)
    return a_cls, b_cls, witness

