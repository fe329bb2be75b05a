"""Concrete finite abelian categories: F_p vector spaces and finite
dimensional representations of finite acyclic quivers.

Objects are plain values: a vector space is its dimension, a representation
is a dimension vector plus one matrix per arrow.  Morphism carriers are
matrices (one per vertex for representations); kernels and cokernels are
computed vertexwise with the induced arrow maps solved exactly.
"""

from __future__ import annotations

import graphlib
import itertools
import math
import random
from dataclasses import dataclass

from .core import CategoryInstance, Mor, Subobject
from .errors import ExactnessViolation, ForeignMorphism
from .linalg import (
    DEFAULT_VECTOR_BUDGET,
    BudgetExceeded,
    Matrix,
    block_diag,
    check_prime,
    enumerate_subspaces,
    hash_once,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rank,
    solve,
    solve_left,
    vstack,
)


@dataclass(frozen=True)
class Budget:
    """Enumeration guard rails; the CLI's --budget overrides max_vectors,
    and a workspace file can set both."""

    max_vectors: int = DEFAULT_VECTOR_BUDGET
    max_total_dim: int = 6


DEFAULT_BUDGET = Budget()


def is_int(v) -> bool:
    """Whether v is an int proper; a bool is not one here."""
    return isinstance(v, int) and not isinstance(v, bool)


# -- vector spaces -------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class FinVect(CategoryInstance):
    """Finite dimensional F_p vector spaces; an object is its dimension."""

    field: int = 2
    budget: Budget = DEFAULT_BUDGET

    def __post_init__(self):
        check_prime(self.field)

    # objects

    def zero_object(self):
        return 0

    def is_object(self, x) -> bool:
        return is_int(x) and x >= 0

    def class_vector(self, x) -> tuple:
        return (x,)

    def simples(self) -> tuple:
        return (1,)

    def enumerate_objects(self, max_total_dim: int):
        return iter(range(max_total_dim + 1))

    def sample_object(self, rng: random.Random, max_total_dim: int):
        return rng.randint(0, max_total_dim)

    def describe_object(self, x) -> str:
        return f"k^{x}"

    # morphisms

    def _own(self, m: Mor) -> None:
        if not isinstance(m.data, Matrix) or m.data.modulus != self.field:
            raise ForeignMorphism("not a matrix morphism over this field")
        if (m.data.rows, m.data.cols) != (m.target, m.source):
            raise ForeignMorphism("matrix shape disagrees with endpoints")

    def identity(self, x) -> Mor:
        return Mor(x, x, Matrix.identity(x, self.field))

    def zero_morphism(self, x, y) -> Mor:
        return Mor(x, y, Matrix.zero(y, x, self.field))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        self._own(m1)
        self._own(m2)
        if m1.target != m2.source:
            raise ForeignMorphism("endpoints do not match for composition")
        return Mor(m1.source, m2.target, m2.data.mul(m1.data))

    def hom_basis(self, x, y) -> tuple:
        p = self.field
        out = []
        for i in range(y):
            for j in range(x):
                ent = [0] * (y * x)
                ent[i * x + j] = 1
                out.append(Mor(x, y, Matrix(y, x, p, tuple(ent))))
        return tuple(out)

    def mor_flat(self, m: Mor) -> tuple:
        return m.data.entries

    def flat_len(self, x, y) -> int:
        return x * y

    def mor_from_flat(self, x, y, flat: tuple) -> Mor:
        return Mor(x, y, Matrix.build(y, x, self.field, flat))

    def _factor_mono(self, mono: Mor, m: Mor):
        u = solve(mono.data, m.data)
        return None if u is None else Mor(m.source, mono.source, u)

    def _factor_epi(self, epi: Mor, m: Mor):
        u = solve_left(epi.data, m.data)
        return None if u is None else Mor(epi.target, m.target, u)

    # abelian structure

    def kernel(self, m: Mor):
        self._own(m)
        k = kernel_basis(m.data)
        return k.dim, Mor(k.dim, m.source, k.basis.transpose())

    def cokernel(self, m: Mor):
        self._own(m)
        proj, q = quotient_map(m.target, image_basis(m.data))
        return q, Mor(m.target, q, proj)

    def biproduct(self, x, y):
        p = self.field
        s = x + y
        i1 = Mor(x, s, vstack([Matrix.identity(x, p), Matrix.zero(y, x, p)]))
        i2 = Mor(y, s, vstack([Matrix.zero(x, y, p), Matrix.identity(y, p)]))
        p1 = Mor(s, x, hstack([Matrix.identity(x, p), Matrix.zero(x, y, p)]))
        p2 = Mor(s, y, hstack([Matrix.zero(y, x, p), Matrix.identity(y, p)]))
        return s, (i1, i2), (p1, p2)

    def enumerate_subobjects(self, x) -> tuple:
        out = []
        for s in enumerate_subspaces(x, self.field, self.budget.max_vectors):
            out.append(Subobject(s.dim, Mor(s.dim, x, s.basis.transpose()), s))
        return tuple(out)

    def subobject_key(self, mono: Mor):
        return image_basis(mono.data)

    def subobject_key_leq(self, inner_key, outer_key) -> bool:
        return outer_key.contains_subspace(inner_key)

    def is_mono(self, m: Mor) -> bool:
        return rank(m.data) == m.data.cols

    def is_epi(self, m: Mor) -> bool:
        return rank(m.data) == m.data.rows

    def kernel_class(self, m: Mor) -> tuple:
        return (m.source - rank(m.data),)


# -- quivers -------------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """A finite quiver, required acyclic so every representation category
    here has finitely many vertex simples and finite-length objects."""

    vertices: int
    arrows: tuple

    def __post_init__(self):
        if self.vertices < 0:
            raise ValueError("negative vertex count")
        for a in self.arrows:
            s, t = a
            if not (is_int(s) and is_int(t)):
                raise ValueError(f"arrow {a} has a non-integer endpoint")
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise ValueError(f"arrow {a} out of range")
        order = graphlib.TopologicalSorter()
        for s, t in self.arrows:
            order.add(t, s)
        try:
            order.prepare()
        except graphlib.CycleError:
            raise ValueError("quiver has a directed cycle") from None


ARROW_QUIVER = Quiver(2, ((0, 1),))


def _paths_from(q: Quiver, v: int):
    """All paths out of v as arrow-index tuples, grouped per end vertex,
    each group sorted lexicographically."""
    by_end = {w: [] for w in range(q.vertices)}
    stack = [((), v)]
    while stack:
        path, w = stack.pop()
        by_end[w].append(path)
        for idx, (s, t) in enumerate(q.arrows):
            if s == w:
                stack.append((path + (idx,), t))
    return {w: tuple(sorted(ps)) for w, ps in by_end.items()}


@dataclass(frozen=True)
class RepObject:
    dims: tuple
    maps: tuple


@hash_once
@dataclass(frozen=True)
class Rep(CategoryInstance):
    """Representations of a fixed acyclic quiver over F_p."""

    quiver: Quiver
    field: int = 2
    budget: Budget = DEFAULT_BUDGET

    def __post_init__(self):
        check_prime(self.field)

    def obj(self, dims, maps) -> RepObject:
        x = RepObject(tuple(dims), tuple(maps))
        if not self.is_object(x):
            raise ValueError("need one nonnegative dimension per vertex and "
                             "one matrix per arrow, of its shape and field")
        return x

    # objects

    def zero_object(self) -> RepObject:
        n = self.quiver.vertices
        return RepObject((0,) * n,
                         tuple(Matrix.zero(0, 0, self.field) for _ in self.quiver.arrows))

    def is_object(self, x) -> bool:
        """Whether x is a representation of this quiver over this field."""
        return (isinstance(x, RepObject)
                and len(x.dims) == self.quiver.vertices
                and all(is_int(d) and d >= 0 for d in x.dims)
                and len(x.maps) == len(self.quiver.arrows)
                and all(isinstance(m, Matrix) and m.modulus == self.field
                        and (m.rows, m.cols) == (x.dims[t], x.dims[s])
                        for m, (s, t) in zip(x.maps, self.quiver.arrows)))

    def class_vector(self, x) -> tuple:
        return x.dims

    def simples(self) -> tuple:
        out = []
        for v in range(self.quiver.vertices):
            dims = tuple(1 if w == v else 0 for w in range(self.quiver.vertices))
            maps = tuple(Matrix.zero(dims[t], dims[s], self.field)
                         for s, t in self.quiver.arrows)
            out.append(RepObject(dims, maps))
        return tuple(out)

    def projective(self, v: int) -> RepObject:
        """The path-based projective at v: basis at w is the paths v -> w."""
        paths = _paths_from(self.quiver, v)
        dims = tuple(len(paths[w]) for w in range(self.quiver.vertices))
        maps = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            rows = [[0] * dims[s] for _ in range(dims[t])]
            for j, pth in enumerate(paths[s]):
                rows[paths[t].index(pth + (a,))][j] = 1
            maps.append(Matrix.from_rows(rows, self.field, cols=dims[s])
                        if dims[t] else Matrix.zero(0, dims[s], self.field))
        return RepObject(dims, tuple(maps))

    def enumerate_objects(self, max_total_dim: int):
        n = self.quiver.vertices
        # stars and bars: C(n + d, n) dimension vectors of total <= d,
        # counted once per vertex, since an audit over the sweep (such as
        # check_functor's) does work per vertex on every object
        if math.comb(n + max_total_dim, n) * n > self.budget.max_vectors:
            raise BudgetExceeded("dimension-vector sweep exceeds vector budget")
        for total in range(max_total_dim + 1):
            for dims in _dim_vectors(n, total):
                combo_count = 1
                for s, t in self.quiver.arrows:
                    combo_count *= self.field ** (dims[t] * dims[s])
                if combo_count > self.budget.max_vectors:
                    raise BudgetExceeded("arrow-matrix sweep exceeds vector budget")
                arrow_spaces = []
                for s, t in self.quiver.arrows:
                    size = dims[t] * dims[s]
                    arrow_spaces.append(
                        [Matrix.build(dims[t], dims[s], self.field, ent)
                         for ent in itertools.product(range(self.field), repeat=size)])
                for maps in itertools.product(*arrow_spaces):
                    yield RepObject(tuple(dims), tuple(maps))

    def sample_object(self, rng: random.Random, max_total_dim: int) -> RepObject:
        n = self.quiver.vertices
        remaining = rng.randint(0, max_total_dim)
        dims = []
        for v in range(n):
            d = rng.randint(0, remaining) if v < n - 1 else remaining
            dims.append(d)
            remaining -= d
        rng.shuffle(dims)
        maps = []
        for s, t in self.quiver.arrows:
            maps.append(Matrix.build(
                dims[t], dims[s], self.field,
                [rng.randrange(self.field) for _ in range(dims[t] * dims[s])]))
        return RepObject(tuple(dims), tuple(maps))

    def describe_object(self, x) -> str:
        return f"rep{tuple(x.dims)}"

    # morphisms

    def _own(self, m: Mor) -> None:
        if not isinstance(m.source, RepObject) or not isinstance(m.target, RepObject):
            raise ForeignMorphism("endpoints are not representations")
        if not isinstance(m.data, tuple) or len(m.data) != self.quiver.vertices:
            raise ForeignMorphism("carrier is not one matrix per vertex")
        for v in range(self.quiver.vertices):
            mat = m.data[v]
            if mat.modulus != self.field or \
                    (mat.rows, mat.cols) != (m.target.dims[v], m.source.dims[v]):
                raise ForeignMorphism(f"vertex {v} matrix has the wrong shape or field")

    def mor(self, x: RepObject, y: RepObject, mats) -> Mor:
        m = Mor(x, y, tuple(mats))
        self._own(m)
        for a, (s, t) in enumerate(self.quiver.arrows):
            if m.data[t].mul(x.maps[a]) != y.maps[a].mul(m.data[s]):
                raise ValueError(f"vertex maps do not intertwine arrow {a}")
        return m

    def identity(self, x) -> Mor:
        return Mor(x, x, tuple(Matrix.identity(d, self.field) for d in x.dims))

    def zero_morphism(self, x, y) -> Mor:
        return Mor(x, y, tuple(Matrix.zero(dy, dx, self.field)
                               for dy, dx in zip(y.dims, x.dims)))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        if m1.target != m2.source:
            raise ForeignMorphism("endpoints do not match for composition")
        return Mor(m1.source, m2.target,
                   tuple(b.mul(a) for b, a in zip(m2.data, m1.data)))

    def _vertex_offsets(self, x: RepObject, y: RepObject):
        off = []
        acc = 0
        for v in range(self.quiver.vertices):
            off.append(acc)
            acc += y.dims[v] * x.dims[v]
        return off, acc

    def hom_basis(self, x, y) -> tuple:
        """Basis of the intertwiner space, from the kernel of the linear
        system g_t X_a = Y_a g_s over all arrows a: s -> t."""
        p = self.field
        off, total = self._vertex_offsets(x, y)
        rows = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            xa, ya = x.maps[a], y.maps[a]
            for i in range(y.dims[t]):
                for j in range(x.dims[s]):
                    row = [0] * total
                    for k in range(x.dims[t]):
                        row[off[t] + i * x.dims[t] + k] = (
                            row[off[t] + i * x.dims[t] + k] + xa.entry(k, j)) % p
                    for k in range(y.dims[s]):
                        row[off[s] + k * x.dims[s] + j] = (
                            row[off[s] + k * x.dims[s] + j] - ya.entry(i, k)) % p
                    rows.append(row)
        if rows:
            constraint = Matrix.from_rows(rows, p, cols=total)
        else:
            constraint = Matrix.zero(0, total, p)
        null = kernel_basis(constraint)
        # each kernel vector solves the intertwining system
        return tuple(self.build_from_flat(x, y, null.basis.row(i))
                     for i in range(null.dim))

    def mor_flat(self, m: Mor) -> tuple:
        out = []
        for mat in m.data:
            out.extend(mat.entries)
        return tuple(out)

    def flat_len(self, x, y) -> int:
        return sum(dy * dx for dy, dx in zip(y.dims, x.dims))

    def _vertex_matrices(self, x, y, flat: tuple) -> tuple:
        off, total = self._vertex_offsets(x, y)
        if len(flat) != total:
            raise ValueError("flat length mismatch")
        mats = []
        for v in range(self.quiver.vertices):
            size = y.dims[v] * x.dims[v]
            mats.append(Matrix.build(y.dims[v], x.dims[v], self.field,
                                     flat[off[v]:off[v] + size]))
        return tuple(mats)

    def mor_from_flat(self, x, y, flat: tuple) -> Mor:
        return self.mor(x, y, self._vertex_matrices(x, y, flat))

    def build_from_flat(self, x, y, flat: tuple) -> Mor:
        return Mor(x, y, self._vertex_matrices(x, y, flat))

    def _factor_mono(self, mono: Mor, m: Mor):
        """Solved vertex by vertex: injective vertex maps make the vertex
        solutions unique, and cancelling them shows they intertwine."""
        parts = [solve(a, b) for a, b in zip(mono.data, m.data)]
        if any(u is None for u in parts):
            return None
        return Mor(m.source, mono.source, tuple(parts))

    def _factor_epi(self, epi: Mor, m: Mor):
        """Solved vertex by vertex, the mirror of _factor_mono."""
        parts = [solve_left(a, b) for a, b in zip(epi.data, m.data)]
        if any(u is None for u in parts):
            return None
        return Mor(epi.target, m.target, tuple(parts))

    # abelian structure

    def _restricted(self, x, incls):
        """The subrepresentation of x on the vertex subspaces spanned by
        the columns of incls, one inclusion matrix per vertex, or None
        when an arrow does not carry them into each other."""
        maps = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            restricted = solve(incls[t], x.maps[a].mul(incls[s]))
            if restricted is None:
                return None
            maps.append(restricted)
        return RepObject(tuple(i.cols for i in incls), tuple(maps))

    def kernel(self, m: Mor):
        self._own(m)
        x = m.source
        incls = [kernel_basis(mat).basis.transpose() for mat in m.data]
        kobj = self._restricted(x, incls)
        if kobj is None:
            raise ExactnessViolation(
                "an arrow does not carry the kernel into the kernel")
        return kobj, Mor(kobj, x, tuple(incls))

    def cokernel(self, m: Mor):
        self._own(m)
        y = m.target
        projs = []
        cdims = []
        for v in range(self.quiver.vertices):
            proj, q = quotient_map(y.dims[v], image_basis(m.data[v]))
            cdims.append(q)
            projs.append(proj)
        cmaps = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            induced = solve_left(projs[s], projs[t].mul(y.maps[a]))
            if induced is None:
                raise ExactnessViolation(
                    f"arrow {a} does not descend to the cokernel")
            cmaps.append(induced)
        cobj = RepObject(tuple(cdims), tuple(cmaps))
        return cobj, Mor(y, cobj, tuple(projs))

    def biproduct(self, x, y):
        p = self.field
        dims = tuple(a + b for a, b in zip(x.dims, y.dims))
        maps = tuple(block_diag([x.maps[a], y.maps[a]])
                     for a in range(len(self.quiver.arrows)))
        s = RepObject(dims, maps)
        i1 = Mor(x, s, tuple(vstack([Matrix.identity(dx, p), Matrix.zero(dy, dx, p)])
                             for dx, dy in zip(x.dims, y.dims)))
        i2 = Mor(y, s, tuple(vstack([Matrix.zero(dx, dy, p), Matrix.identity(dy, p)])
                             for dx, dy in zip(x.dims, y.dims)))
        p1 = Mor(s, x, tuple(hstack([Matrix.identity(dx, p), Matrix.zero(dx, dy, p)])
                             for dx, dy in zip(x.dims, y.dims)))
        p2 = Mor(s, y, tuple(hstack([Matrix.zero(dy, dx, p), Matrix.identity(dy, p)])
                             for dx, dy in zip(x.dims, y.dims)))
        return s, (i1, i2), (p1, p2)

    def enumerate_subobjects(self, x) -> tuple:
        """Arrow-invariant tuples of vertex subspaces, with induced maps."""
        per_vertex = [enumerate_subspaces(d, self.field, self.budget.max_vectors)
                      for d in x.dims]
        out = []
        for combo in itertools.product(*per_vertex):
            incls = [s.basis.transpose() for s in combo]
            sobj = self._restricted(x, incls)
            if sobj is not None:
                out.append(Subobject(sobj, Mor(sobj, x, tuple(incls)), combo))
        return tuple(out)

    def subobject_key(self, mono: Mor):
        return tuple(image_basis(mat) for mat in mono.data)

    def subobject_key_leq(self, inner_key, outer_key) -> bool:
        return all(o.contains_subspace(i) for i, o in zip(inner_key, outer_key))

    def is_mono(self, m: Mor) -> bool:
        return all(rank(mat) == mat.cols for mat in m.data)

    def is_epi(self, m: Mor) -> bool:
        return all(rank(mat) == mat.rows for mat in m.data)

    def kernel_class(self, m: Mor) -> tuple:
        """Vertexwise nullities: kernels are computed vertexwise."""
        return tuple(d - rank(mat) for d, mat in zip(m.source.dims, m.data))


def _dim_vectors(n: int, total: int):
    """Every n-tuple of nonnegative ints summing to total, lexicographic:
    stars and bars, n - 1 bars among total + n - 1 slots, no recursion."""
    if n == 0:
        if total == 0:
            yield ()
        return
    slots = total + n - 1
    for bars in itertools.combinations(range(slots), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


# -- toy geometry for coherent-system scans ------------------------------


@dataclass(frozen=True)
class ToyGeometryConfig:
    """Integer degree/rank functionals on the sheaf-side class lattice and
    a dimension functional on the section side.

    Validity mirrors what the slope formulas need: every entry is an
    integer, rank is non-negative on simples, a rank-zero simple must
    carry positive degree so its central-charge value -deg + i*rk stays in
    the allowed half plane, and every dimension entry is positive, so each
    left simple gets the strictly negative charge -alpha * dim_gamma.
    """

    deg: tuple
    rk: tuple
    dim_gamma: tuple = (1,)

    def __post_init__(self):
        if len(self.deg) != len(self.rk) or not self.deg or not self.dim_gamma:
            raise ValueError("deg and rk must be equal-length non-empty tuples")
        if not all(map(is_int, self.deg + self.rk + self.dim_gamma)):
            raise ValueError("deg, rk and dim_gamma entries must be integers")
        for d, r in zip(self.deg, self.rk):
            if r < 0:
                raise ValueError("rank functional must be non-negative on simples")
            if r == 0 and d <= 0:
                raise ValueError("a rank-zero simple must have positive degree")
        if any(g <= 0 for g in self.dim_gamma):
            raise ValueError("dimension functional must be positive")

    @classmethod
    def default_coherent(cls) -> "ToyGeometryConfig":
        # arrow quiver playing the curve: deg = d2 - d1, rk = d1
        return cls(deg=(-1, 1), rk=(1, 0), dim_gamma=(1,))

    @classmethod
    def scan_coherent(cls) -> "ToyGeometryConfig":
        # total-dimension rank keeps every nonzero sheaf class at finite
        # slope, which is what makes the section weight cross a wall
        return cls(deg=(-1, 1), rk=(1, 1), dim_gamma=(1,))

    def scaled(self, c: int) -> "ToyGeometryConfig":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return ToyGeometryConfig(tuple(c * d for d in self.deg),
                                 tuple(c * r for r in self.rk),
                                 tuple(c * g for g in self.dim_gamma))
