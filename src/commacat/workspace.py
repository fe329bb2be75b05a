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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .cocomma import CoCommaCategory
from .comma import CommaCategory
from .core import Mor
from .errors import SpecError
from .functors import (
    FunctorSpec,
    arrow_cokernel,
    arrow_kernel,
    constant,
    eval_vertex,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
    zero_functor,
)
from .functors import apply_on_object
from .instances import Budget, FinVect, Quiver, Rep, ToyGeometryConfig
from .linalg import Matrix
from .stability import GaussianRational, StabilityFunction

SCHEMA = "commacat-workspace/1"

_CONTEXT_KINDS = {"comma": CommaCategory, "cocomma": CoCommaCategory}


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

    def home_of(self, obj_name: str):
        """(home name, home category/context, object) for a named object."""
        if obj_name not in self.objects:
            raise SpecError(f"unknown object {obj_name!r}")
        home_name, obj = self.objects[obj_name]
        home = self.categories.get(home_name) or self.contexts.get(home_name)
        return home_name, home, obj


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
        try:
            return cat.obj(dims, maps)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc
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
        try:
            return cat.mor(src, tgt, mats)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"{where}: unsupported category kind")


def _build_functor(ws: Workspace, name: str, entry: dict) -> FunctorSpec:
    where = f"functors.{name}"
    kind = _need(entry, "kind", where)
    src = ws.categories.get(_name(entry, "category", where))
    if src is None:
        raise SpecError(f"{where}: unknown source category")
    tgt = src
    if "target" in entry:
        tgt = ws.categories.get(_name(entry, "target", where))
        if tgt is None:
            raise SpecError(f"{where}: unknown target category")

    def named_object(key, home):
        oname = _name(entry, key, where)
        if oname not in ws.objects:
            raise SpecError(f"{where}: unknown object {oname!r}")
        home_name, obj = ws.objects[oname]
        if ws.categories.get(home_name) is not home:
            raise SpecError(f"{where}: object {oname!r} lives in the wrong "
                            "category for this functor parameter")
        return obj

    try:
        if kind == "identity":
            spec = identity_functor(src)
        elif kind == "zero":
            spec = zero_functor(src, tgt)
        elif kind == "hom_from":
            spec = hom_from(src, named_object("object", src), tgt)
        elif kind == "hom_into":
            spec = hom_into(src, named_object("object", src), tgt)
        elif kind == "eval_vertex":
            spec = eval_vertex(src, _need(entry, "vertex", where), tgt)
        elif kind == "arrow_kernel":
            spec = arrow_kernel(src, _need(entry, "arrow", where), tgt)
        elif kind == "arrow_cokernel":
            spec = arrow_cokernel(src, _need(entry, "arrow", where), tgt)
        elif kind == "tensor":
            spec = tensor(src, _count(_need(entry, "dim", where), f"{where}.dim"))
        elif kind == "one_plus":
            spec = one_plus(src)
        elif kind == "constant":
            spec = constant(src, tgt, named_object("object", tgt))
        else:
            raise SpecError(f"{where}: unknown functor kind {kind!r}")
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    declare = entry.get("declare", {})
    if not isinstance(declare, dict):
        raise SpecError(f"{where}: declare must be an object of flags")
    if declare:
        allowed = {"additive", "left_exact", "right_exact"}
        bad = set(declare) - allowed
        if bad:
            raise SpecError(f"{where}: cannot re-declare {sorted(bad)}")
        spec = dataclasses.replace(spec, **{
            k: _flag(v, f"{where}.declare.{k}") for k, v in declare.items()})
    return spec


def _build_stability(name: str, entry: dict) -> StabilityFunction:
    where = f"stability.{name}"
    coeffs = []
    for i, pair in enumerate(_need(entry, "coefficients", where)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"{where}: coefficient {i} must be [re, im]")
        coeffs.append(GaussianRational(parse_rational(pair[0]),
                                       parse_rational(pair[1])))
    weights = None
    if "weights" in entry:
        w = entry["weights"]
        if not isinstance(w, list) or len(w) != 2:
            raise SpecError(f"{where}: weights must be [x, y]")
        weights = (parse_rational(w[0]), parse_rational(w[1]))
    left_rank = entry.get("left_rank")
    if left_rank is not None:
        _count(left_rank, f"{where}.left_rank")
    try:
        return StabilityFunction(tuple(coeffs), weights=weights,
                                 left_rank=left_rank)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _build_geometry(name: str, entry: dict) -> ToyGeometryConfig:
    where = f"stability.{name}"
    try:
        return ToyGeometryConfig(
            deg=tuple(_need(entry, "deg", where)),
            rk=tuple(_need(entry, "rk", where)),
            dim_gamma=tuple(_need(entry, "dim_gamma", where)))
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc


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
        kind = _need(entry, "kind", where)
        try:
            if kind == "finvect":
                ws.categories[name] = FinVect(p, budget)
            elif kind == "quiver":
                q = Quiver(_count(_need(entry, "vertices", where),
                                  f"{where}.vertices"),
                           tuple(tuple(a) for a in
                                 _need(entry, "arrows", where)))
                ws.categories[name] = Rep(q, p, budget)
            else:
                raise SpecError(f"{where}: unknown category kind {kind!r}")
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{where}: {exc}") from exc

    # instance-level objects first: functor parameters may name them
    context_objects = {}
    for name, entry in _section(doc, "objects").items():
        where = f"objects.{name}"
        if "context" in entry:
            context_objects[name] = entry
            continue
        cat_name = _name(entry, "category", where)
        cat = ws.categories.get(cat_name)
        if cat is None:
            raise SpecError(f"{where}: unknown category {cat_name!r}")
        ws.objects[name] = (cat_name, _instance_object(cat, entry, p, where))

    for name, entry in _section(doc, "functors").items():
        ws.functors[name] = _build_functor(ws, name, entry)

    for name, entry in _section(doc, "contexts").items():
        where = f"contexts.{name}"
        kind = _need(entry, "kind", where)
        left = ws.functors.get(_name(entry, "left", where))
        right = ws.functors.get(_name(entry, "right", where))
        if left is None or right is None:
            raise SpecError(f"{where}: unknown functor name")
        assume = _flag(entry.get("assume_abelian", False),
                       f"{where}.assume_abelian")
        glued = _CONTEXT_KINDS.get(kind)
        if glued is None:
            raise SpecError(f"{where}: unknown context kind {kind!r}")
        try:
            ws.contexts[name] = glued(left, right, budget, assume)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc

    for name, entry in context_objects.items():
        where = f"objects.{name}"
        ctx_name = _name(entry, "context", where)
        ctx = ws.contexts.get(ctx_name)
        if ctx is None:
            raise SpecError(f"{where}: unknown context {ctx_name!r}")
        a = _resolve_component(ws, ctx.left, _name(entry, "a", where), where)
        b = _resolve_component(ws, ctx.right, _name(entry, "b", where), where)
        fa = apply_on_object(ctx.left_functor, a)
        gb = apply_on_object(ctx.right_functor, b)
        alpha = _instance_component(ctx.cone, fa, gb,
                                    _need(entry, "alpha", where), p,
                                    f"{where}.alpha")
        try:
            ws.objects[name] = (ctx_name, ctx.obj(a, b, alpha))
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc

    for name, entry in _section(doc, "morphisms").items():
        where = f"morphisms.{name}"
        ctx_name = _name(entry, "context", where)
        ctx = ws.contexts.get(ctx_name)
        if ctx is None:
            raise SpecError(f"{where}: unknown context {ctx_name!r}")
        src = _named_context_object(ws, ctx_name, _name(entry, "source", where),
                                    where)
        tgt = _named_context_object(ws, ctx_name, _name(entry, "target", where),
                                    where)
        f_src, f_tgt = ctx.left_ends(src, tgt)
        f = _instance_component(ctx.left, f_src, f_tgt,
                                _need(entry, "left", where), p,
                                f"{where}.left")
        g = _instance_component(ctx.right, src.b, tgt.b,
                                _need(entry, "right", where), p,
                                f"{where}.right")
        try:
            ws.morphisms[name] = (ctx_name, ctx.mor(src, tgt, f, g))
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc

    for name, entry in _section(doc, "stability").items():
        kind = entry.get("kind", "table")
        if kind == "table":
            ws.stability[name] = _build_stability(name, entry)
        elif kind == "geometry":
            ws.geometries[name] = _build_geometry(name, entry)
        else:
            raise SpecError(f"stability.{name}: unknown kind {kind!r}")

    for name, entry in _section(doc, "scans").items():
        where = f"scans.{name}"
        ctx_name = _name(entry, "context", where)
        if ctx_name not in ws.contexts:
            raise SpecError(f"{where}: unknown context {ctx_name!r}")
        obj_name = _name(entry, "object", where)
        _named_context_object(ws, ctx_name, obj_name, where)
        geom_name = _name(entry, "geometry", where)
        if geom_name not in ws.geometries:
            raise SpecError(f"{where}: unknown geometry {geom_name!r}")
        ws.scans[name] = {
            "context": ctx_name,
            "object": obj_name,
            "geometry": geom_name,
            "lo": parse_rational(_need(entry, "lo", where)),
            "hi": parse_rational(_need(entry, "hi", where)),
        }
    return ws


def _resolve_component(ws: Workspace, cat, name: str, where: str):
    if name not in ws.objects:
        raise SpecError(f"{where}: unknown object {name!r}")
    home_name, obj = ws.objects[name]
    if ws.categories.get(home_name) is not cat:
        raise SpecError(f"{where}: object {name!r} lives in {home_name!r}, "
                        "not in the context's component category")
    return obj


def _named_context_object(ws: Workspace, ctx_name: str, name: str, where: str):
    if name not in ws.objects:
        raise SpecError(f"{where}: unknown object {name!r}")
    home_name, obj = ws.objects[name]
    if home_name != ctx_name:
        raise SpecError(f"{where}: object {name!r} lives in {home_name!r}, "
                        f"expected context {ctx_name!r}")
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
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
