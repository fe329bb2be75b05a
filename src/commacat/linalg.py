"""Exact linear algebra over prime fields.

Everything in this module is a pure function on immutable values.  A matrix
is a flat tuple of machine integers reduced modulo a prime p, with p capped
well below 2**31 so entry products fit in 64-bit intermediates.  Zero-row
and zero-column matrices are first class; they carry the maps in and out of
zero-dimensional spaces and every operation must accept them.

Subspaces are stored as reduced row echelon bases, which makes equality,
hashing, and canonical enumeration order structural.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache

DEFAULT_VECTOR_BUDGET = 2 ** 16
MAX_MODULUS = 2 ** 31


class BudgetExceeded(Exception):
    """An enumeration would touch more vectors than the configured budget."""


class ShapeError(ValueError):
    """Operands have incompatible shapes or moduli."""


def check_prime(p: int) -> None:
    # the type check comes before the cache, which cannot hash a list
    if not isinstance(p, int) or p < 2 or p >= MAX_MODULUS:
        raise ValueError(f"modulus must be a prime in [2, 2**31), got {p!r}")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@cache
def _is_prime(p: int) -> bool:
    # trial division: each verdict is cached and p < 2**31, so the worst
    # case is about 46,000 divisions
    return all(p % q for q in range(2, math.isqrt(p) + 1))


def hash_once(cls):
    """Class decorator for a frozen dataclass whose values key caches: the
    generated field hash is computed on the first call and kept on the
    instance, so a record is hashed once however often it is looked up.
    A pickled record leaves the kept hash behind, since the hash of a str
    field differs between interpreters."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@hash_once
@dataclass(frozen=True)
class Matrix:
    """Row-major matrix over F_p with entries stored as reduced ints."""

    rows: int
    cols: int
    modulus: int
    entries: tuple

    def __post_init__(self):
        check_prime(self.modulus)
        _check_shape(self.rows, self.cols)
        _check_count(self.rows, self.cols, self.entries)
        if not all(isinstance(e, int) for e in self.entries):
            raise ShapeError("matrix entries must be integers")
        if self.entries and (min(self.entries) < 0
                             or max(self.entries) >= self.modulus):
            bad = next(e for e in self.entries if not 0 <= e < self.modulus)
            raise ShapeError(f"entry {bad} not reduced mod {self.modulus}")

    @classmethod
    def build(cls, rows: int, cols: int, modulus: int, entries) -> "Matrix":
        check_prime(modulus)
        _check_shape(rows, cols)
        try:
            entries = tuple([operator.index(e) % modulus for e in entries])
        except TypeError:
            raise ShapeError("matrix entries must be integers") from None
        _check_count(rows, cols, entries)
        return _made(rows, cols, modulus, entries)

    @classmethod
    def from_rows(cls, row_seq, modulus: int, cols: int | None = None) -> "Matrix":
        row_seq = [list(r) for r in row_seq]
        if cols is None:
            if not row_seq:
                raise ShapeError("cannot infer column count from an empty row list")
            cols = len(row_seq[0])
        flat = []
        for r in row_seq:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls.build(len(row_seq), cols, modulus, flat)

    @classmethod
    def zero(cls, rows: int, cols: int, modulus: int) -> "Matrix":
        check_prime(modulus)
        _check_shape(rows, cols)
        return _made(rows, cols, modulus, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int, modulus: int) -> "Matrix":
        check_prime(modulus)
        _check_shape(n, n)
        return _made(n, n, modulus,
                     tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.modulus != other.modulus:
            raise ShapeError("mixed moduli")
        if self.cols != other.rows:
            raise ShapeError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        p = self.modulus
        out = []
        for i in range(self.rows):
            ri = self.entries[i * self.cols:(i + 1) * self.cols]
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    acc += ri[k] * other.entries[k * other.cols + j]
                out.append(acc % p)
        return _made(self.rows, other.cols, p, tuple(out))

    def transpose(self) -> "Matrix":
        return _made(self.cols, self.rows, self.modulus,
                     tuple(self.entries[i * self.cols + j]
                           for j in range(self.cols) for i in range(self.rows)))


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ShapeError("negative dimensions")


def _check_count(rows: int, cols: int, entries: tuple) -> None:
    if len(entries) != rows * cols:
        raise ShapeError(
            f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")


_set = object.__setattr__


def _made(rows: int, cols: int, modulus: int, entries: tuple) -> Matrix:
    """A Matrix without the checks of __post_init__, for results that are
    valid by construction: a prime modulus already checked, nonnegative
    dimensions, rows * cols entries, each reduced mod the modulus.  The
    public constructors validate; arithmetic on valid matrices trusts."""
    m = object.__new__(Matrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "modulus", modulus)
    _set(m, "entries", entries)
    return m


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    rows, p = mats[0].rows, mats[0].modulus
    for m in mats:
        if m.rows != rows or m.modulus != p:
            raise ShapeError("hstack mismatch")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return _made(rows, sum(m.cols for m in mats), p, tuple(out))


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    cols, p = mats[0].cols, mats[0].modulus
    for m in mats:
        if m.cols != cols or m.modulus != p:
            raise ShapeError("vstack mismatch")
    flat = []
    for m in mats:
        flat.extend(m.entries)
    return _made(sum(m.rows for m in mats), cols, p, tuple(flat))


def block_diag(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("block_diag of nothing")
    p = mats[0].modulus
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [0] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        if m.modulus != p:
            raise ShapeError("mixed moduli")
        for i in range(m.rows):
            start = (r0 + i) * cols + c0
            out[start:start + m.cols] = m.row(i)
        r0 += m.rows
        c0 += m.cols
    return _made(rows, cols, p, tuple(out))


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple
    rank: int


@cache
def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination."""
    p = m.modulus
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] % p != 0:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = tuple(x % p for row in work for x in row)
    return RrefResult(_made(m.rows, m.cols, p, flat), tuple(pivots), r)


def rank(m: Matrix) -> int:
    return rref(m).rank


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n held as a reduced row echelon basis.

    The RREF basis is canonical, so dataclass equality and hashing decide
    subspace equality, and sorting by (dim, basis entries) is reproducible.
    pivots, kept from the RREF that checks or builds the basis, is not a
    field.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ShapeError("basis width must equal ambient dimension")
        r = rref(self.basis)
        if r.matrix != self.basis or r.rank != self.basis.rows:
            raise ShapeError("subspace basis must be a full-rank RREF matrix")
        _set(self, "pivots", r.pivots)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def modulus(self) -> int:
        return self.basis.modulus

    @classmethod
    def from_rows(cls, ambient_dim: int, modulus: int, row_seq) -> "Subspace":
        return _row_span(Matrix.from_rows(row_seq, modulus, cols=ambient_dim))

    def contains_vector(self, vec) -> bool:
        p = self.modulus
        v = [int(x) % p for x in vec]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        for i, c in enumerate(self.pivots):
            if v[c]:
                f = v[c]
                row = self.basis.row(i)
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace.  A vector v of an RREF span
        is the combination of the basis rows by its own entries at their
        pivots, so its leading entry sits at a pivot: other's pivots must
        be among these.  Then each row of other is compared with that one
        combination, at the non-pivot columns, since at a pivot the two
        agree by construction."""
        if not other.dim:
            return True
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise ShapeError("vector length mismatch")
        pivots = self.pivots
        if not set(other.pivots).issubset(pivots):
            return False
        p, e = self.modulus, self.basis.entries
        free = [k for k in range(n) if k not in pivots]
        for j in range(other.dim):
            v = other.basis.row(j)
            coeffs = [(v[c], i * n) for i, c in enumerate(pivots) if v[c]]
            for k in free:
                if (sum(f * e[off + k] for f, off in coeffs) - v[k]) % p:
                    return False
        return True


def _row_span(m: Matrix) -> Subspace:
    """The row span of a valid matrix.  The nonzero rows of its RREF are
    the first rank rows, a full-rank RREF with the same pivots, so the
    check of Subspace.__post_init__ is moot."""
    r = rref(m)
    n = m.cols
    s = object.__new__(Subspace)
    _set(s, "ambient_dim", n)
    _set(s, "basis", _made(r.rank, n, m.modulus, r.matrix.entries[:r.rank * n]))
    _set(s, "pivots", r.pivots)
    return s


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0} in the domain."""
    r = rref(m)
    p, n = m.modulus, m.cols
    pivots = set(r.pivots)
    free = [c for c in range(n) if c not in pivots]
    flat = [0] * (len(free) * n)
    for j, f in enumerate(free):
        flat[j * n + f] = 1
        for i, c in enumerate(r.pivots):
            flat[j * n + c] = -r.matrix.entries[i * n + f] % p
    return _row_span(_made(len(free), n, p, tuple(flat)))


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span inside the codomain."""
    return _row_span(m.transpose())


def solve(m: Matrix, target: Matrix):
    """One solution X of m X = target, or None.  Free variables are set to 0."""
    if m.modulus != target.modulus:
        raise ShapeError("mixed moduli")
    if m.rows != target.rows:
        raise ShapeError("solve: row mismatch")
    aug = hstack([m, target]) if m.cols + target.cols else _made(m.rows, 0, m.modulus, ())
    r = rref(aug)
    for pc in r.pivots:
        if pc >= m.cols:
            return None
    n = target.cols
    out = [0] * (m.cols * n)
    for i, pc in enumerate(r.pivots):
        out[pc * n:(pc + 1) * n] = r.matrix.row(i)[m.cols:]
    return _made(m.cols, n, m.modulus, tuple(out))


def solve_left(m: Matrix, target: Matrix):
    """One solution X of X m = target, or None."""
    xt = solve(m.transpose(), target.transpose())
    return None if xt is None else xt.transpose()


def quotient_map(ambient_dim: int, s: Subspace):
    """Projection F_p^n -> F_p^q with kernel exactly s.

    The complement coordinates are the non-pivot columns c_j of the RREF
    basis, so the quotient map is canonical for a canonical subspace: the
    one map that kills s and is the identity on the c_j.  Row j has 1 at
    c_j and -s_i[c_j] at the pivot column of each basis row s_i.
    """
    if s.ambient_dim != ambient_dim:
        raise ShapeError("ambient mismatch")
    p, n = s.modulus, ambient_dim
    complement = [c for c in range(n) if c not in s.pivots]
    q = len(complement)
    out = [0] * (q * n)
    for j, c in enumerate(complement):
        out[j * n + c] = 1
        for i, pc in enumerate(s.pivots):
            out[j * n + pc] = -s.basis.entries[i * n + c] % p
    return _made(q, n, p, tuple(out)), q


@cache
def _subspaces_cached(n: int, p: int):
    out = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivset = set(pivots)
            free_slots = [(i, j) for i in range(k) for j in range(n)
                          if j > pivots[i] and j not in pivset]
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_slots, fill):
                    rows[i][j] = v
                if k:
                    basis = Matrix.from_rows(rows, p, cols=n)
                else:
                    basis = Matrix(0, n, p, ())
                out.append(Subspace(n, basis))
    return tuple(out)


def enumerate_subspaces(ambient_dim: int, p: int,
                        budget: int = DEFAULT_VECTOR_BUDGET):
    """All subspaces of F_p^n in canonical order (by dim, pivots, entries).

    The echelon pattern generation touches each subspace once; the guard is
    on p^n, the number of vectors in the ambient space.
    """
    check_prime(p)
    if p ** ambient_dim > budget:
        raise BudgetExceeded(
            f"subspace enumeration in F_{p}^{ambient_dim} exceeds budget {budget}")
    return _subspaces_cached(ambient_dim, p)
