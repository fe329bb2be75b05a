"""Slope stability in exact arithmetic.

A stability function assigns a Gaussian rational to each simple class,
subject to: imaginary part nonnegative, and purely real values strictly
negative.  That certificate on simples is equivalent to the usual axioms
on all nonzero finite-length objects, because every effective class is a
nonnegative combination of simples with at least one positive entry.

Slopes are -Re/Im with an explicit infinity for the purely real case.  No
floats appear anywhere in this module; walls in the scan parameter are
found by solving exact linear equations and certified behaviorally by
recomputing filtrations on either side.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import CategoryInstance, factor_between, subobject_leq
from .errors import CertificateFailure, ExactnessViolation
from .linalg import BudgetExceeded

# the most grid points the scan oracle walks before refusing
GRID_MAX_POINTS = 4096


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def scale(self, c) -> "GaussianRational":
        c = Fraction(c)
        return GaussianRational(c * self.re, c * self.im)

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else ""
        return f"{self.re}{sign}{self.im}i"


ZERO = GaussianRational(Fraction(0), Fraction(0))


@functools.total_ordering
@dataclass(frozen=True)
class Slope:
    """An exact rational with a maximal infinite element adjoined."""

    finite: bool
    value: Fraction

    @classmethod
    def of(cls, q) -> "Slope":
        return cls(True, Fraction(q))

    @classmethod
    def infinite(cls) -> "Slope":
        return cls(False, Fraction(0))

    def __lt__(self, other: "Slope") -> bool:
        if not self.finite:
            return False
        if not other.finite:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return str(self.value) if self.finite else "inf"


@dataclass(frozen=True)
class StabilityFunction:
    """Linear map on class vectors given by one coefficient per simple.

    left_rank records, for functions on a two-component class lattice, how
    many leading coefficients belong to the left component.
    """

    coefficients: tuple
    left_rank: Optional[int] = None

    def __post_init__(self):
        k = self.left_rank
        if k is not None and (type(k) is not int
                              or not 0 <= k <= len(self.coefficients)):
            raise ValueError("left_rank must be an integer in 0..rank")
        for c in self.coefficients:
            if c.im < 0:
                raise ValueError("coefficient with negative imaginary part")
            if c.im == 0 and c.re >= 0:
                raise ValueError(
                    "purely real coefficient must be strictly negative")
        # the coefficients times their common denominator d > 0: Z(v) * d
        # has these integer dot products with v as its parts, and scaling
        # by d leaves -Re/Im unchanged
        d = math.lcm(*(q.denominator for c in self.coefficients
                       for q in (c.re, c.im)))
        object.__setattr__(self, "_integer_form", (
            tuple(int(c.re * d) for c in self.coefficients),
            tuple(int(c.im * d) for c in self.coefficients)))

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def evaluate(z: StabilityFunction, vec) -> GaussianRational:
    if len(vec) != z.rank:
        raise ValueError("class vector length does not match the function")
    total = ZERO
    for coord, c in zip(vec, z.coefficients):
        if coord:
            total = total + c.scale(coord)
    return total


def slope(z: StabilityFunction, vec) -> Slope:
    """-Re Z(vec) / Im Z(vec), from the integer form of z; equal to the
    slope of evaluate(z, vec), which stays as the reference."""
    re_form, im_form = z._integer_form
    if len(vec) != len(re_form):
        raise ValueError("class vector length does not match the function")
    re = sum(map(operator.mul, re_form, vec))
    im = sum(map(operator.mul, im_form, vec))
    if im == 0:
        if re == 0:
            raise ValueError("the zero class has no slope")
        return Slope.infinite()
    return Slope(True, Fraction(-re, im))


def make_comma_stability(z_a: StabilityFunction, z_b: StabilityFunction,
                         x=1, y=1) -> StabilityFunction:
    """Weighted concatenation x*Z_A ++ y*Z_B on the product class lattice."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ValueError("weights must be strictly positive")
    coeffs = tuple(c.scale(x) for c in z_a.coefficients) + \
        tuple(c.scale(y) for c in z_b.coefficients)
    return StabilityFunction(coeffs, left_rank=len(z_a.coefficients))


def restrict_comma_stability(z: StabilityFunction):
    """Recover the two component functions by evaluating on one-sided
    classes; inverse to the weight-1 concatenation."""
    k = z.left_rank
    if k is None:
        raise ValueError("no split point recorded")
    return (StabilityFunction(z.coefficients[:k]),
            StabilityFunction(z.coefficients[k:]))


# -- the subobject poset, precomputed ------------------------------------


@functools.lru_cache(maxsize=256)
def shared_classes(classes: tuple) -> tuple:
    """classes, or the equal tuple returned before: a sweep that keeps
    many filtrations holds each distinct factor-class sequence once."""
    return classes


class SubobjectLattice:
    """The full subobject poset of one ambient object with keys and
    classes.

    The keys are the ones enumeration carried on each subobject, and the
    classes are read through cat.subobject_class, so a glued record's
    object and structure map are built only where a caller reads them
    (comma.GluedSubobject).  The order is core.subobject_leq, which
    compares keys; it is asked each time, not remembered.  The filtration
    steps read the indices grouped by class, from class_index, and ask the
    order only inside the best-scoring classes (best_above).  In an
    abelian category the subobjects of a factor subs[j] / subs[i] are read
    from what a greedy filtration step has just ranked (see chain).
    """

    def __init__(self, cat: CategoryInstance, x):
        self.cat = cat
        self.x = x
        self.subs = cat.enumerate_subobjects(x)
        self.keys = [s.key for s in self.subs]
        if len(set(self.keys)) != len(self.keys):
            raise CertificateFailure("subobject enumeration repeated a key")
        self.classes = [cat.subobject_class(s) for s in self.subs]
        # classes are dimension vectors, so the zero subobject is the one
        # of zero class, and x its one subobject of full class
        whole = cat.class_vector(x)
        zero = (0,) * len(whole)
        if zero not in self.classes:
            raise ExactnessViolation(
                f"{cat.describe_object(x)} has no zero subobject; "
                "the category is not abelian on this object")
        self.zero_index = self.classes.index(zero)
        if whole not in self.classes:
            raise ExactnessViolation(
                f"{cat.describe_object(x)} is not among its own subobjects; "
                "the category is not abelian on this object")
        self.whole_index = self.classes.index(whole)

    @functools.cached_property
    def class_index(self) -> dict:
        """Each class to its indices, in index order; built on the first
        classes_above, so a lattice that only a stability test reads
        never builds it."""
        index = {}
        for i, c in enumerate(self.classes):
            index.setdefault(c, []).append(i)
        return index

    def classes_above(self, i: int) -> list:
        """The classes that dominate classes[i] componentwise and differ
        from it, with their indices: the only places a strict inclusion
        of subs[i] can end, since its cokernel has a nonzero class."""
        below = self.classes[i]
        return [(c, members) for c, members in self.class_index.items()
                if c != below and all(map(operator.ge, c, below))]

    def leq(self, i: int, j: int) -> bool:
        return i == j or subobject_leq(self.cat, self.subs[i], self.subs[j])

    def strictly_above(self, i: int) -> list:
        """Every j with subs[i] strictly inside subs[j], in index order;
        only the members of classes_above(i) are asked."""
        return sorted(j for _, members in self.classes_above(i)
                      for j in members if self.leq(i, j))

    def best_above(self, i: int, score):
        """The j with subs[i] strictly inside subs[j] of highest score, in
        index order.

        Each class of classes_above(i) is scored once, as score(class,
        classes[i]); the classes are visited in groups of equal score,
        highest first, the indices of one group merged in index order.
        The order is asked lazily, and the walk stops after the first
        group with a member above i.  These are the highest-scoring
        members of strictly_above(i), in its order.
        """
        below = self.classes[i]
        scored = sorted(((score(c, below), members)
                         for c, members in self.classes_above(i)),
                        key=operator.itemgetter(0), reverse=True)
        for _, group in itertools.groupby(scored, operator.itemgetter(0)):
            found = False
            for j in sorted(j for _, members in group for j in members):
                if self.leq(i, j):
                    found = True
                    yield j
            if found:
                return

    def chain(self, score, pick, factor_ok, refusal: str):
        """The chain from the zero subobject to x, as (steps, factor
        classes), that HN and JH filtrations both walk.

        Each step is pick(best_above(i, score)), the next index above i,
        or None when pick finds none, which raises.  Every factor
        subs[j] / subs[i] must pass factor_ok(its class, its proper
        classes).  In an abelian_capable context its subobjects are
        t / subs[i] for the t with subs[i] <= t <= subs[j], and each such
        t other than subs[i] lies in strictly_above(i).  Such a t scores
        no higher than j, or the walk would have stopped at it first.
        HN's pick refuses a second member at j's score, so t scores
        lower; JH scores minus the length, so t, shorter than j, would
        score higher.  So the step decides the factor check itself;
        other contexts check it on the factor's own lattice and raise
        CertificateFailure(refusal) when it fails.
        """
        chain = [self.zero_index]
        while chain[-1] != self.whole_index:
            nxt = pick(self.best_above(chain[-1], score))
            if nxt is None:
                raise CertificateFailure("no strictly larger subobject found")
            chain.append(nxt)
        pairs = list(zip(chain, chain[1:]))
        classes = shared_classes(tuple(self.diff(j, i) for i, j in pairs))
        if not self.cat.abelian_capable and not all(
                factor_ok(c, self.factor_proper_classes(i, j))
                for (i, j), c in zip(pairs, classes)):
            raise CertificateFailure(refusal)
        return tuple(self.subs[i] for i in chain), classes

    def proper_classes(self) -> list:
        """The classes of the subobjects other than 0 and x."""
        return [c for i, c in enumerate(self.classes)
                if i not in (self.zero_index, self.whole_index)]

    def diff(self, j: int, i: int) -> tuple:
        return tuple(p - q for p, q in zip(self.classes[j], self.classes[i]))

    def factor_proper_classes(self, i: int, j: int) -> list:
        """The proper classes of the factor subs[j] / subs[i], i < j, from
        its own lattice, built by cokernel (factor_object).  Only a context
        that is not abelian_capable needs them (see chain); there
        the interval [i, j] may list classes for a factor without a unique
        cokernel, which raises here instead."""
        return SubobjectLattice(self.cat,
                                self.factor_object(i, j)).proper_classes()

    def factor_object(self, i: int, j: int):
        """The quotient subs[j] / subs[i] for a strict inclusion i < j."""
        if i == self.zero_index:
            return self.subs[j].obj
        step = factor_between(self.cat, self.subs[i], self.subs[j])
        if step is None:
            raise CertificateFailure("factor requested outside the order")
        return step[1]


# -- semistability and filtrations ---------------------------------------


def _semistable_on(z: StabilityFunction, cls, proper) -> bool:
    """Whether an object of class cls, whose proper subobjects have the
    classes proper, is semistable."""
    mu = slope(z, cls)
    return all(slope(z, c) <= mu for c in proper)


def is_semistable(cat: CategoryInstance, z: StabilityFunction, x) -> bool:
    if cat.is_zero_object(x):
        raise ValueError("the zero object has no slope")
    return _semistable_on(z, cat.class_vector(x),
                          SubobjectLattice(cat, x).proper_classes())


def is_stable(cat: CategoryInstance, z: StabilityFunction, x) -> bool:
    if cat.is_zero_object(x):
        raise ValueError("the zero object has no slope")
    mu = slope(z, cat.class_vector(x))
    return all(slope(z, c) < mu
               for c in SubobjectLattice(cat, x).proper_classes())


def lattice_for(cat: CategoryInstance, x,
                lattice: Optional[SubobjectLattice]) -> SubobjectLattice:
    """The given lattice, checked to be the one of x in cat, or a new one."""
    if lattice is None:
        return SubobjectLattice(cat, x)
    if lattice.cat is not cat or lattice.x != x:
        raise ValueError("lattice was built for a different object")
    return lattice


@dataclass(frozen=True)
class HNFiltration:
    """steps runs from the zero subobject to x; factor i is
    steps[i + 1] / steps[i], semistable of slope factor_slopes[i]."""

    steps: tuple
    factor_slopes: tuple
    factor_classes: tuple

    @property
    def length(self) -> int:
        return len(self.factor_slopes)


def hn_filtration(cat: CategoryInstance, z: StabilityFunction, x,
                  lattice: Optional[SubobjectLattice] = None) -> HNFiltration:
    """Greedy construction through the subobject lattice.

    Each step adjoins the strictly larger subobject maximizing first the
    slope of the new factor, then the factor's total class size: the
    score, which SubobjectLattice.best_above reads from the highest
    down.  That maximizer is unique by standard slope theory; uniqueness
    is checked among the best-scoring members, as are strictly
    decreasing slopes.  Each factor is semistable:
    SubobjectLattice.chain says why, and checks it where the context is
    not abelian_capable.
    """
    if cat.is_zero_object(x):
        raise ValueError("the zero object has no filtration")
    lat = lattice_for(cat, x, lattice)

    def score(c, below):
        jump = tuple(map(operator.sub, c, below))
        return slope(z, jump), sum(jump)

    def unique(found):
        best = next(found, None)
        if next(found, None) is not None:
            raise CertificateFailure(
                "maximal destabilizing subobject is not unique; "
                "the greedy invariant is broken")
        return best

    steps, factor_classes = lat.chain(score, unique,
                                      functools.partial(_semistable_on, z),
                                      "greedy factor is not semistable")
    factor_slopes = tuple(slope(z, c) for c in factor_classes)
    if any(not s2 < s1 for s1, s2 in zip(factor_slopes, factor_slopes[1:])):
        raise CertificateFailure("factor slopes are not strictly decreasing")
    return HNFiltration(steps, factor_slopes, factor_classes)


def hn_type(cat: CategoryInstance, z: StabilityFunction, x,
            lattice: Optional[SubobjectLattice] = None) -> tuple:
    return hn_filtration(cat, z, x, lattice).factor_classes


def exhaustive_hn_search(cat: CategoryInstance, z: StabilityFunction, x):
    """Independent oracle: depth-first search over every chain in the
    subobject lattice, keeping those whose factors are all semistable with
    strictly decreasing slopes.  Exactly one chain must survive; returns
    its factor classes."""
    if cat.is_zero_object(x):
        raise ValueError("the zero object has no filtration")
    lat = SubobjectLattice(cat, x)
    semistable_memo = {}

    def factor_semistable(i, j):
        if (i, j) not in semistable_memo:
            semistable_memo[(i, j)] = is_semistable(cat, z,
                                                    lat.factor_object(i, j))
        return semistable_memo[(i, j)]

    survivors = []

    def extend(chain, classes, last_slope):
        cur = chain[-1]
        if cur == lat.whole_index:
            survivors.append(tuple(classes))
            return
        for t in lat.strictly_above(cur):
            diff = lat.diff(t, cur)
            mu = slope(z, diff)
            if last_slope is not None and not mu < last_slope:
                continue
            if not factor_semistable(cur, t):
                continue
            chain.append(t)
            classes.append(diff)
            extend(chain, classes, mu)
            chain.pop()
            classes.pop()

    extend([lat.zero_index], [], None)
    if len(survivors) != 1:
        raise CertificateFailure(
            f"{len(survivors)} filtrations satisfy the defining conditions; "
            "expected exactly one")
    return survivors[0]


# -- the scan over the weighting parameter -------------------------------


def stability_from_geometry(geometry, alpha) -> StabilityFunction:
    """Weighted function for triples over a toy geometry: left simples get
    -alpha times the dimension functional, right simples get minus the
    degree plus i times the rank."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("the scan parameter must be a positive rational")
    coeffs = [GaussianRational(-alpha * Fraction(g), Fraction(0))
              for g in geometry.dim_gamma]
    coeffs += [GaussianRational(Fraction(-d), Fraction(r))
               for d, r in zip(geometry.deg, geometry.rk)]
    return StabilityFunction(tuple(coeffs),
                             left_rank=len(geometry.dim_gamma))


def _slope_data(geometry, vec):
    """(degree, dimension, rank) functionals on a two-part class vector."""
    k = len(geometry.dim_gamma)
    g = sum(Fraction(gi) * v for gi, v in zip(geometry.dim_gamma, vec[:k]))
    d = sum(Fraction(di) * v for di, v in zip(geometry.deg, vec[k:]))
    r = sum(Fraction(ri) * v for ri, v in zip(geometry.rk, vec[k:]))
    return d, g, r


def nested_factor_classes(lat: SubobjectLattice) -> tuple:
    """Every class of the form cls(t) - cls(s) over strictly nested
    subobject pairs s < t: the classes whose slopes steer filtrations."""
    seen = set()
    for i in range(len(lat.subs)):
        for j in lat.strictly_above(i):
            seen.add(lat.diff(j, i))
    return tuple(sorted(seen))


def wall_candidates(lat: SubobjectLattice, geometry, lo, hi) -> tuple:
    """Parameter values inside (lo, hi) where two finite slope functions
    of nested-factor classes cross."""
    lo, hi = Fraction(lo), Fraction(hi)
    data = [_slope_data(geometry, c) for c in nested_factor_classes(lat)]
    out = set()
    for i in range(len(data)):
        d1, g1, r1 = data[i]
        if r1 == 0:
            continue
        for j in range(i + 1, len(data)):
            d2, g2, r2 = data[j]
            if r2 == 0:
                continue
            den = g1 * r2 - g2 * r1
            if den == 0:
                continue
            star = (d2 * r1 - d1 * r2) / den
            if lo < star < hi and star > 0:
                out.add(star)
    return tuple(sorted(out))


@dataclass(frozen=True)
class WallCertificate:
    alpha: Fraction
    type_below: tuple
    type_at: tuple
    type_above: tuple

    @property
    def is_wall(self) -> bool:
        return self.type_below != self.type_above


@dataclass(frozen=True)
class AlphaScanReport:
    lo: Fraction
    hi: Fraction
    candidates: tuple
    certificates: tuple

    @property
    def walls(self) -> tuple:
        return tuple(c.alpha for c in self.certificates if c.is_wall)


def _scan_setup(cat, x, geometry, lo, hi):
    """What both scans start from: the range as Fractions, checked to
    satisfy 0 < lo < hi, the lattice of x, the wall candidates in (lo, hi)
    and half the minimum gap between lo, the candidates and hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo <= 0 or hi <= lo:
        raise ValueError("scan range must satisfy 0 < lo < hi")
    lat = SubobjectLattice(cat, x)
    candidates = wall_candidates(lat, geometry, lo, hi)
    # the candidates are sorted and lie strictly inside (lo, hi)
    pts = (lo, *candidates, hi)
    half_gap = min(q - p for p, q in zip(pts, pts[1:])) / 2
    return lo, hi, lat, candidates, half_gap


def alpha_scan(cat, x, geometry, lo, hi) -> AlphaScanReport:
    """Find every parameter value in (lo, hi) where the filtration type of
    x changes.

    Candidates come from exact pairwise slope-crossing equations; each is
    certified by recomputing the filtration just below, at, and just above
    it, with the probe offset set to half the minimum candidate gap.
    """
    lo, hi, lat, candidates, eps = _scan_setup(cat, x, geometry, lo, hi)
    certs = tuple(WallCertificate(
        w,
        hn_type(cat, stability_from_geometry(geometry, w - eps), x, lat),
        hn_type(cat, stability_from_geometry(geometry, w), x, lat),
        hn_type(cat, stability_from_geometry(geometry, w + eps), x, lat))
        for w in candidates)
    return AlphaScanReport(lo, hi, candidates, certs)


def alpha_grid_probe(cat, x, geometry, lo, hi) -> tuple:
    """Independent wall oracle: walk a rational grid finer than the
    minimum candidate gap and report one enclosed candidate for every
    observed type change.  Grid points that land exactly on a candidate
    are nudged upward slightly so every change stays bracketed."""
    lo, hi, lat, candidates, step = _scan_setup(cat, x, geometry, lo, hi)
    candidates = set(candidates)
    if (hi - lo) / step > GRID_MAX_POINTS:
        raise BudgetExceeded("grid for the scan oracle is too fine")
    points = []
    k = 0
    while True:
        p = lo + k * step
        if p >= hi:
            break
        if p in candidates:
            p += step / 127
        points.append(p)
        k += 1
    points.append(hi)
    types = [hn_type(cat, stability_from_geometry(geometry, p), x, lat)
             for p in points]
    walls = []
    for p1, t1, p2, t2 in zip(points, types, points[1:], types[1:]):
        if t1 == t2:
            continue
        inside = [w for w in candidates if p1 < w <= p2]
        if len(inside) != 1:
            raise CertificateFailure(
                "a type change is not bracketed by exactly one candidate; "
                "the grid is too coarse")
        walls.append(inside[0])
    return tuple(sorted(walls))
