"""Workspace files: named categories, functors, contexts, objects,
morphisms, stability data, and scans, loaded from versioned JSON.

Loading is strict.  Every name must resolve, every matrix must land mod p
with the right shape, and every stability table must pass the validity
certificate; any failure raises SpecError with the offending name.  All
integer matrix entries are reduced at load so fixtures can be written
over the integers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any, Optional

from .cocomma import CoCommaCategory
from .comma import CommaCategory
from .core import Mor
from .errors import SpecError
from .functors import FunctorSpec, apply_on_object, functor, functor_kind
from .instances import Budget, FinVect, Quiver, Rep, ToyGeometryConfig
from .linalg import BudgetExceeded, Matrix
from .stability import GaussianRational, StabilityFunction

SCHEMA = "commacat-workspace/1"


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SpecError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # only the documented integer and n/d spellings; Fraction would
        # also take decimal strings, which the format does not allow
        if not re.fullmatch(r"-?\d+(/\d+)?", value.strip()):
            raise SpecError(f"bad rational literal {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational literal {value!r}") from exc
    raise SpecError(f"expected a rational, got {value!r}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass
class Workspace:
    path: str
    digest: str
    field_modulus: int
    budget: Budget
    seed: int
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    contexts: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)     # name -> (home name, obj)
    morphisms: dict = field(default_factory=dict)   # name -> (ctx name, Mor)
    stability: dict = field(default_factory=dict)
    geometries: dict = field(default_factory=dict)
    scans: dict = field(default_factory=dict)

    def home(self, name: str):
        """The category or context of that name; a context never shares
        its name with a category."""
        return self.categories.get(name) or self.contexts.get(name)

    def home_of(self, obj_name: str):
        """(home name, home category/context, object) for a named object,
        which must fit the budget's max_total_dim."""
        home_name, obj = lookup(self.objects, obj_name, "object")
        home = self.home(home_name)
        self._fit(home, obj, f"object {obj_name!r}")
        return home_name, home, obj

    def named_morphism(self, ctx_name: str, mor_name: str):
        """(context, morphism) for a named morphism of the named context,
        whose source and target must fit the budget's max_total_dim."""
        cat = lookup(self.contexts, ctx_name, "context")
        home, m = lookup(self.morphisms, mor_name, "morphism")
        if home != ctx_name:
            raise SpecError(f"morphism {mor_name!r} lives in context "
                            f"{home!r}, not {ctx_name!r}")
        self._fit(cat, m.source, f"the source of morphism {mor_name!r}")
        self._fit(cat, m.target, f"the target of morphism {mor_name!r}")
        return cat, m

    def _fit(self, home, obj, what: str) -> None:
        dim, bound = home.dim_total(obj), self.budget.max_total_dim
        if dim > bound:
            raise BudgetExceeded(f"{what} has total dimension {dim}, "
                                 f"above max_total_dim {bound}")


def lookup(table: dict, name, what: str, where: str = ""):
    """The entry of table that name names, or SpecError naming where,
    what and name."""
    if isinstance(name, str) and name in table:
        return table[name]
    prefix = f"{where}: " if where else ""
    raise SpecError(f"{prefix}unknown {what} {name!r}")


@contextmanager
def _refused(where: str, errors=ValueError):
    """Turn a constructor's refusal, one of errors, into a SpecError at
    where."""
    try:
        yield
    except errors as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _need(table: dict, key: str, where: str):
    if key not in table:
        raise SpecError(f"{where}: missing required field {key!r}")
    return table[key]


def _name(table: dict, key: str, where: str) -> str:
    """A required field that names another entry of the workspace."""
    value = _need(table, key, where)
    if not isinstance(value, str):
        raise SpecError(f"{where}.{key} must be a name, got {value!r}")
    return value


def _section(doc: dict, key: str) -> dict:
    """A top-level table of named entries, each a JSON object."""
    table = doc.get(key, {})
    if not isinstance(table, dict):
        raise SpecError(f"{key} must be an object of named entries")
    for name, entry in table.items():
        if not isinstance(entry, dict):
            raise SpecError(f"{key}.{name} must be an object")
    return table


def _count(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SpecError(f"{where} must be a nonnegative integer")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{where} must be true or false")
    return value


def _build_matrix(rows: int, cols: int, p: int, data, where: str) -> Matrix:
    if not isinstance(data, list) or len(data) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in data):
        raise SpecError(f"{where}: expected a {rows}x{cols} integer matrix")
    flat = []
    for r in data:
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool):
                raise SpecError(f"{where}: matrix entries must be integers")
            flat.append(v % p)
    return Matrix.build(rows, cols, p, flat)


def _instance_object(cat, entry: dict, p: int, where: str):
    if isinstance(cat, FinVect):
        return _count(_need(entry, "dim", where), f"{where}.dim")
    if isinstance(cat, Rep):
        dims = _need(entry, "dims", where)
        if not isinstance(dims, list) or len(dims) != cat.quiver.vertices:
            raise SpecError(f"{where}: need one dimension per quiver vertex")
        dims = [_count(d, f"{where}.dims") for d in dims]
        raw_maps = _need(entry, "maps", where)
        if not isinstance(raw_maps, list) or \
                len(raw_maps) != len(cat.quiver.arrows):
            raise SpecError(f"{where}: need one matrix per quiver arrow")
        maps = []
        for a, (s, t) in enumerate(cat.quiver.arrows):
            maps.append(_build_matrix(dims[t], dims[s], p, raw_maps[a],
                                      f"{where}.maps[{a}]"))
        with _refused(where):
            return cat.obj(dims, maps)
    raise SpecError(f"{where}: unsupported category kind")


def _instance_component(cat, src, tgt, data, p: int, where: str) -> Mor:
    """A morphism src -> tgt in an instance category from raw matrix data."""
    if isinstance(cat, FinVect):
        return Mor(src, tgt, _build_matrix(tgt, src, p, data, where))
    if isinstance(cat, Rep):
        if not isinstance(data, list) or len(data) != cat.quiver.vertices:
            raise SpecError(f"{where}: need one matrix per vertex")
        mats = [_build_matrix(tgt.dims[v], src.dims[v], p, data[v],
                              f"{where}[{v}]")
                for v in range(cat.quiver.vertices)]
        with _refused(where):
            return cat.mor(src, tgt, mats)
    raise SpecError(f"{where}: unsupported category kind")


def _build_functor(ws: Workspace, name: str, entry: dict) -> FunctorSpec:
    where = f"functors.{name}"
    kind = _need(entry, "kind", where)
    src = lookup(ws.categories, _name(entry, "category", where),
                 "source category", where)
    tgt = src
    if "target" in entry:
        tgt = lookup(ws.categories, _name(entry, "target", where),
                     "target category", where)

    with _refused(where):
        how = functor_kind(kind).param
        if how in ("source_object", "target_object"):
            home = src if how == "source_object" else tgt
            param = (_object_in(ws, home, _name(entry, "object", where),
                                where),)
        else:  # none, or a vertex, arrow or dim the spec checks
            param = () if how is None else (_need(entry, how, where),)
        spec = functor(kind, src, tgt, *param)
    declare = entry.get("declare", {})
    if not isinstance(declare, dict):
        raise SpecError(f"{where}: declare must be an object of flags")
    if declare:
        allowed = {"left_exact", "right_exact"}
        bad = set(declare) - allowed
        if bad:
            raise SpecError(f"{where}: cannot re-declare {sorted(bad)}")
        spec = dataclasses.replace(spec, **{
            k: _flag(v, f"{where}.declare.{k}") for k, v in declare.items()})
    return spec


def _build_stability(name: str, entry: dict) -> StabilityFunction:
    where = f"stability.{name}"
    raw = _need(entry, "coefficients", where)
    if not isinstance(raw, list):
        raise SpecError(f"{where}: coefficients must be a list of [re, im]")
    coeffs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"{where}: coefficient {i} must be [re, im]")
        coeffs.append(GaussianRational(parse_rational(pair[0]),
                                       parse_rational(pair[1])))
    if "weights" in entry:
        # the weight pair the coefficients were built with: checked for
        # shape, not read
        w = entry["weights"]
        if not isinstance(w, list) or len(w) != 2:
            raise SpecError(f"{where}: weights must be [x, y]")
        for v in w:
            parse_rational(v)
    left_rank = entry.get("left_rank")
    if left_rank is not None:
        _count(left_rank, f"{where}.left_rank")
    with _refused(where):
        return StabilityFunction(tuple(coeffs), left_rank=left_rank)


def _build_geometry(name: str, entry: dict) -> ToyGeometryConfig:
    where = f"stability.{name}"
    with _refused(where, (ValueError, TypeError)):
        return ToyGeometryConfig(
            deg=tuple(_need(entry, "deg", where)),
            rk=tuple(_need(entry, "rk", where)),
            dim_gamma=tuple(_need(entry, "dim_gamma", where)))


_CATEGORY_KINDS = {
    "finvect": lambda entry, p, budget, where: FinVect(p, budget),
    "quiver": lambda entry, p, budget, where: Rep(Quiver(
        _count(_need(entry, "vertices", where), f"{where}.vertices"),
        tuple(tuple(a) for a in _need(entry, "arrows", where))), p, budget),
}
_CONTEXT_KINDS = {"comma": CommaCategory, "cocomma": CoCommaCategory}
# stability kind -> (the Workspace table it fills, its builder)
_STABILITY_KINDS = {"table": ("stability", _build_stability),
                    "geometry": ("geometries", _build_geometry)}


def bundled_workspace_path(name: str) -> str:
    """The path of the workspace file shipped with the package as name."""
    with resources.as_file(resources.files("commacat")
                           .joinpath(f"workspaces/{name}.json")) as path:
        return str(path)


def load_workspace(path: str, budget_override: Optional[int] = None,
                   seed_override: Optional[int] = None) -> Workspace:
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read workspace {path}: {exc}") from exc
    try:
        doc = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise SpecError(f"workspace {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("workspace root must be an object")
    if doc.get("schema") != SCHEMA:
        raise SpecError(f"unsupported schema {doc.get('schema')!r}; "
                        f"expected {SCHEMA!r}")
    p = _need(doc, "field_modulus", "workspace")
    if not isinstance(p, int) or p < 2:
        raise SpecError("field_modulus must be a prime integer")
    budget_doc = doc.get("budget", {})
    if not isinstance(budget_doc, dict):
        raise SpecError("budget must be an object")
    max_vectors = _count(budget_doc.get("max_vectors", Budget().max_vectors),
                         "budget.max_vectors")
    if budget_override is not None:
        max_vectors = _count(budget_override, "the budget override")
    budget = Budget(max_vectors=max_vectors,
                    max_total_dim=_count(budget_doc.get("max_total_dim",
                                                        Budget().max_total_dim),
                                         "budget.max_total_dim"))
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError("seed must be an integer")
    if seed_override is not None:
        seed = seed_override
    digest = "sha256:" + hashlib.sha256(raw_bytes).hexdigest()
    ws = Workspace(path=path, digest=digest, field_modulus=p, budget=budget,
                   seed=seed)

    for name, entry in _section(doc, "categories").items():
        where = f"categories.{name}"
        make = lookup(_CATEGORY_KINDS, _need(entry, "kind", where),
                      "category kind", where)
        with _refused(where, (ValueError, TypeError)):
            ws.categories[name] = make(entry, p, budget, where)

    # instance-level objects first: functor parameters may name them
    context_objects = {}
    for name, entry in _section(doc, "objects").items():
        where = f"objects.{name}"
        if "context" in entry:
            context_objects[name] = entry
            continue
        cat_name = _name(entry, "category", where)
        cat = lookup(ws.categories, cat_name, "category", where)
        ws.objects[name] = (cat_name, _instance_object(cat, entry, p, where))

    for name, entry in _section(doc, "functors").items():
        ws.functors[name] = _build_functor(ws, name, entry)

    for name, entry in _section(doc, "contexts").items():
        where = f"contexts.{name}"
        if name in ws.categories:
            raise SpecError(f"{where}: a category is named {name!r} too")
        glued = lookup(_CONTEXT_KINDS, _need(entry, "kind", where),
                       "context kind", where)
        left, right = (lookup(ws.functors, _name(entry, side, where),
                              "functor", where) for side in ("left", "right"))
        assume = _flag(entry.get("assume_abelian", False),
                       f"{where}.assume_abelian")
        with _refused(where):
            ws.contexts[name] = glued(left, right, budget, assume)

    for name, entry in context_objects.items():
        where = f"objects.{name}"
        ctx_name = _name(entry, "context", where)
        ctx = lookup(ws.contexts, ctx_name, "context", where)
        a = _object_in(ws, ctx.left, _name(entry, "a", where), where)
        b = _object_in(ws, ctx.right, _name(entry, "b", where), where)
        fa = apply_on_object(ctx.left_functor, a)
        gb = apply_on_object(ctx.right_functor, b)
        alpha = _instance_component(ctx.cone, fa, gb,
                                    _need(entry, "alpha", where), p,
                                    f"{where}.alpha")
        with _refused(where):
            ws.objects[name] = (ctx_name, ctx.obj(a, b, alpha))

    for name, entry in _section(doc, "morphisms").items():
        where = f"morphisms.{name}"
        ctx_name = _name(entry, "context", where)
        ctx = lookup(ws.contexts, ctx_name, "context", where)
        src, tgt = (_object_in(ws, ctx, _name(entry, end, where), where)
                    for end in ("source", "target"))
        f_src, f_tgt = ctx.left_ends(src, tgt)
        f = _instance_component(ctx.left, f_src, f_tgt,
                                _need(entry, "left", where), p,
                                f"{where}.left")
        g = _instance_component(ctx.right, src.b, tgt.b,
                                _need(entry, "right", where), p,
                                f"{where}.right")
        with _refused(where):
            ws.morphisms[name] = (ctx_name, ctx.mor(src, tgt, f, g))

    for name, entry in _section(doc, "stability").items():
        slot, build = lookup(_STABILITY_KINDS, entry.get("kind", "table"),
                             "stability kind", f"stability.{name}")
        getattr(ws, slot)[name] = build(name, entry)

    for name, entry in _section(doc, "scans").items():
        where = f"scans.{name}"
        ctx_name = _name(entry, "context", where)
        ctx = lookup(ws.contexts, ctx_name, "context", where)
        obj_name = _name(entry, "object", where)
        _object_in(ws, ctx, obj_name, where)
        geom_name = _name(entry, "geometry", where)
        lookup(ws.geometries, geom_name, "geometry", where)
        ws.scans[name] = {
            "context": ctx_name,
            "object": obj_name,
            "geometry": geom_name,
            "lo": parse_rational(_need(entry, "lo", where)),
            "hi": parse_rational(_need(entry, "hi", where)),
        }
    return ws


def _object_in(ws: Workspace, home, name: str, where: str):
    """A named object of home, an instance category or a glued context."""
    home_name, obj = lookup(ws.objects, name, "object", where)
    if ws.home(home_name) is not home:
        raise SpecError(f"{where}: object {name!r} lives in {home_name!r}, "
                        "not in the category or context this entry needs")
    return obj


# -- serialization for reports -------------------------------------------


def serialize_object(home, x) -> Any:
    if isinstance(home, FinVect):
        return {"dim": x}
    if isinstance(home, Rep):
        return {"dims": list(x.dims),
                "maps": [_matrix_rows(m) for m in x.maps]}
    if isinstance(home, CommaCategory):
        return {"a": serialize_object(home.left, x.a),
                "b": serialize_object(home.right, x.b),
                "alpha": serialize_morphism(home.cone, x.alpha)}
    raise TypeError("cannot serialize an object of this category")


def serialize_morphism(home, m: Mor) -> Any:
    if isinstance(home, FinVect):
        return {"matrix": _matrix_rows(m.data)}
    if isinstance(home, Rep):
        return {"vertex_maps": [_matrix_rows(v) for v in m.data]}
    if isinstance(home, CommaCategory):
        return {"left": serialize_morphism(home.left, m.data[0]),
                "right": serialize_morphism(home.right, m.data[1])}
    raise TypeError("cannot serialize a morphism of this category")


def _matrix_rows(m: Matrix) -> list:
    return [list(m.row(i)) for i in range(m.rows)]
