"""Workspace files: loading the bundled fixtures, rational parsing, the
digest contract, and the failure modes that must surface as SpecError
with the offending name attached."""

import hashlib
import json
from fractions import Fraction

import pytest

from commacat.cli import bundled_workspace_path, default_workspace_path
from commacat.comma import CommaCategory
from commacat.errors import SpecError
from commacat.functors import (
    KINDS,
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
from commacat.instances import FinVect, Rep
from commacat.workspace import (
    SCHEMA,
    format_rational,
    load_workspace,
    parse_rational,
    serialize_morphism,
    serialize_object,
)
from test_fuzz_cli import RETYPED

ARROW_PATH = default_workspace_path()


def arrow_doc():
    with open(ARROW_PATH) as fh:
        return json.load(fh)


def load_mutated(tmp_path, mutate):
    doc = arrow_doc()
    mutate(doc)
    out = tmp_path / "ws.json"
    out.write_text(json.dumps(doc))
    return load_workspace(str(out))


# -- rationals -----------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(7) == 7
    with pytest.raises(SpecError):
        parse_rational("0.5")
    with pytest.raises(SpecError):
        parse_rational("1/0")


def test_format_rational_round_trip():
    for q in (Fraction(3), Fraction(-1, 2), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(1, 3)) == "1/3"


# -- the bundled fixtures ------------------------------------------------


def test_arrow_workspace_loads():
    ws = load_workspace(ARROW_PATH)
    assert isinstance(ws.categories["vect"], FinVect)
    assert "arrow" in ws.contexts
    assert isinstance(ws.contexts["arrow"], CommaCategory)
    assert "identity_map" in ws.objects
    assert "into_diagonal" in ws.morphisms
    assert "Z" in ws.stability


def test_digest_matches_an_independent_hash():
    ws = load_workspace(ARROW_PATH)
    with open(ARROW_PATH, "rb") as fh:
        want = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    assert ws.digest == want


def test_all_bundled_workspaces_load():
    for name in ("arrow", "coherent_systems", "framed_modules"):
        ws = load_workspace(bundled_workspace_path(name))
        assert ws.field_modulus == 2
        assert ws.contexts


def test_coherent_systems_has_its_scan():
    ws = load_workspace(bundled_workspace_path("coherent_systems"))
    scan = ws.scans["default"]
    assert scan["lo"] == Fraction(1, 2)
    assert scan["hi"] == 4
    assert scan["geometry"] in ws.geometries


def test_home_of():
    ws = load_workspace(ARROW_PATH)
    home_name, home, obj = ws.home_of("plane")
    assert home_name == "vect"
    assert obj == 2
    with pytest.raises(SpecError):
        ws.home_of("no_such_object")


def test_overrides():
    ws = load_workspace(ARROW_PATH, budget_override=500, seed_override=9)
    assert ws.budget.max_vectors == 500
    assert ws.seed == 9


# -- rejection paths -----------------------------------------------------


def test_missing_file():
    with pytest.raises(SpecError):
        load_workspace("/nonexistent/ws.json")


def test_invalid_json(tmp_path):
    out = tmp_path / "ws.json"
    out.write_text("{nope")
    with pytest.raises(SpecError):
        load_workspace(str(out))


def test_wrong_schema(tmp_path):
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, lambda d: d.update(schema="other/9"))
    assert SCHEMA in str(err.value)


def test_unknown_category_reference(tmp_path):
    def mutate(d):
        d["objects"]["stray"] = {"category": "missing", "dim": 1}
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert "stray" in str(err.value)


def test_bad_matrix_shape(tmp_path):
    def mutate(d):
        d["objects"]["plane_collapse"]["alpha"] = [[1, 0], [0, 1]]
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert "plane_collapse" in str(err.value)


def test_unknown_functor_kind(tmp_path):
    def mutate(d):
        d["functors"]["weird"] = {"kind": "limits", "category": "vect"}
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert "weird" in str(err.value)


def test_functor_spec_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown functor kind"):
        FunctorSpec("limits", FinVect(2), FinVect(2))


# kind -> (workspace entry, the same functor from the public constructor,
# given the categories and the instance-level objects by name)
FUNCTOR_CASES = {
    "identity": ({"category": "vect"},
                 lambda c, o: identity_functor(c["vect"])),
    "zero": ({"category": "mods", "target": "vect"},
             lambda c, o: zero_functor(c["mods"], c["vect"])),
    "hom_from": ({"category": "mods", "target": "vect", "object": "edge"},
                 lambda c, o: hom_from(c["mods"], o["edge"], c["vect"])),
    "hom_into": ({"category": "mods", "target": "vect", "object": "edge"},
                 lambda c, o: hom_into(c["mods"], o["edge"], c["vect"])),
    "eval_vertex": ({"category": "mods", "target": "vect", "vertex": 1},
                    lambda c, o: eval_vertex(c["mods"], 1, c["vect"])),
    "arrow_kernel": ({"category": "mods", "target": "vect", "arrow": 0},
                     lambda c, o: arrow_kernel(c["mods"], 0, c["vect"])),
    "arrow_cokernel": ({"category": "mods", "target": "vect", "arrow": 0},
                       lambda c, o: arrow_cokernel(c["mods"], 0, c["vect"])),
    "tensor": ({"category": "vect", "dim": 3},
               lambda c, o: tensor(c["vect"], 3)),
    "one_plus": ({"category": "vect"}, lambda c, o: one_plus(c["vect"])),
    "constant": ({"category": "mods", "target": "vect", "object": "plane"},
                 lambda c, o: constant(c["mods"], c["vect"], o["plane"])),
}


def load_functor(tmp_path, entry):
    """A workspace over F_3 with the categories vect and mods (the one-arrow
    quiver), two objects, and the one functor entry f."""
    doc = {
        "schema": SCHEMA,
        "field_modulus": 3,
        "categories": {"vect": {"kind": "finvect"},
                       "mods": {"kind": "quiver", "vertices": 2,
                                "arrows": [[0, 1]]}},
        "objects": {"plane": {"category": "vect", "dim": 2},
                    "edge": {"category": "mods", "dims": [1, 2],
                             "maps": [[[1], [2]]]}},
        "functors": {"f": entry},
    }
    out = tmp_path / "ws.json"
    out.write_text(json.dumps(doc))
    return load_workspace(str(out))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_functor_kind_loads_as_its_constructor(tmp_path, kind):
    """A workspace entry of each kind in the table builds the FunctorSpec
    its public constructor builds, parameter and flags included."""
    entry, expected = FUNCTOR_CASES[kind]
    ws = load_functor(tmp_path, dict(entry, kind=kind))
    objects = {name: obj for name, (_, obj) in ws.objects.items()}
    assert ws.functors["f"] == expected(ws.categories, objects)


# kind -> (its source, the entry field of its integer parameter, the
# bound the parameter stays below)
INTEGER_PARAMS = {"eval_vertex": ("mods", "vertex", 2),
                  "arrow_kernel": ("mods", "arrow", 1),
                  "arrow_cokernel": ("mods", "arrow", 1),
                  "tensor": ("vect", "dim", float("inf"))}


@pytest.mark.parametrize("value", RETYPED + [0.0, 1.0], ids=repr)
@pytest.mark.parametrize("kind", sorted(INTEGER_PARAMS))
def test_an_integer_parameter_loads_in_range_or_not_at_all(tmp_path, kind,
                                                          value):
    source, key, bound = INTEGER_PARAMS[kind]
    try:
        ws = load_functor(tmp_path, {"kind": kind, "category": source,
                                     "target": "vect", key: value})
    except SpecError:
        return
    param, = ws.functors["f"].params
    assert type(param) is int and 0 <= param < bound


def test_declare_rejects_unknown_flags(tmp_path):
    # additivity is read off the functor, so it cannot be declared either
    for flag in ("contravariant", "additive"):
        def mutate(d):
            d["functors"]["left_embed"]["declare"] = {flag: True}
        with pytest.raises(SpecError) as err:
            load_mutated(tmp_path, mutate)
        assert f"cannot re-declare ['{flag}']" in str(err.value)


def test_declare_overrides_exactness_flags(tmp_path):
    def mutate(d):
        d["functors"]["left_embed"]["declare"] = {"right_exact": False}
    ws = load_mutated(tmp_path, mutate)
    assert not ws.functors["left_embed"].right_exact
    # losing the flag closes the abelian interface of the context
    assert not ws.contexts["arrow"].abelian_capable


def test_morphism_square_checked_at_load(tmp_path):
    def mutate(d):
        # breaks g alpha = alpha f for the into_diagonal morphism
        d["morphisms"]["into_diagonal"]["right"] = [[0]]
        d["morphisms"]["into_diagonal"]["left"] = [[1]]
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert "into_diagonal" in str(err.value)


def test_context_object_with_unknown_context(tmp_path):
    def mutate(d):
        d["objects"]["lost"] = {"context": "nowhere", "a": "line",
                                "b": "line", "alpha": [[0]]}
    with pytest.raises(SpecError):
        load_mutated(tmp_path, mutate)


# each dangling reference a workspace can hold: the bundled workspace it
# is made in, the path of the field set to "nowhere", and the entry the
# error names
DANGLING = {
    "functor-category": ("arrow", ("functors", "left_embed", "category"),
                         "functors.left_embed"),
    "functor-target": ("arrow", ("functors", "left_embed", "target"),
                       "functors.left_embed"),
    "functor-object": ("coherent_systems",
                       ("functors", "global_sections", "object"),
                       "functors.global_sections"),
    "context-left": ("arrow", ("contexts", "arrow", "left"), "contexts.arrow"),
    "context-right": ("arrow", ("contexts", "arrow", "right"),
                      "contexts.arrow"),
    "object-category": ("arrow", ("objects", "line", "category"),
                        "objects.line"),
    "object-context": ("arrow", ("objects", "zero_map", "context"),
                       "objects.zero_map"),
    "object-a": ("arrow", ("objects", "zero_map", "a"), "objects.zero_map"),
    "object-b": ("arrow", ("objects", "zero_map", "b"), "objects.zero_map"),
    "morphism-context": ("arrow", ("morphisms", "into_diagonal", "context"),
                         "morphisms.into_diagonal"),
    "morphism-source": ("arrow", ("morphisms", "into_diagonal", "source"),
                        "morphisms.into_diagonal"),
    "morphism-target": ("arrow", ("morphisms", "into_diagonal", "target"),
                        "morphisms.into_diagonal"),
    "scan-context": ("coherent_systems", ("scans", "default", "context"),
                     "scans.default"),
    "scan-object": ("coherent_systems", ("scans", "default", "object"),
                    "scans.default"),
    "scan-geometry": ("coherent_systems", ("scans", "default", "geometry"),
                      "scans.default"),
    "category-kind": ("arrow", ("categories", "vect", "kind"),
                      "categories.vect"),
    "context-kind": ("arrow", ("contexts", "arrow", "kind"), "contexts.arrow"),
    "stability-kind": ("arrow", ("stability", "Z", "kind"), "stability.Z"),
}


@pytest.mark.parametrize("case", sorted(DANGLING))
def test_a_dangling_reference_names_its_entry_and_the_missing_name(tmp_path,
                                                                   case):
    name, (*path, key), where = DANGLING[case]
    with open(bundled_workspace_path(name)) as fh:
        doc = json.load(fh)
    node = doc
    for step in path:
        node = node[step]
    node[key] = "nowhere"
    out = tmp_path / "ws.json"
    out.write_text(json.dumps(doc))
    with pytest.raises(SpecError) as err:
        load_workspace(str(out))
    message = str(err.value)
    assert message.startswith(f"{where}: unknown "), message
    assert message.endswith("'nowhere'"), message


def test_a_context_does_not_share_a_category_name(tmp_path):
    """A context named like a category would make an object's home name
    ambiguous; the loader refuses it."""
    def mutate(d):
        d["categories"]["arrow"] = {"kind": "finvect"}
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert str(err.value).startswith("contexts.arrow: ")


def test_stability_table_rejects_bad_coefficients(tmp_path):
    def mutate(d):
        d["stability"]["Z"]["coefficients"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(SpecError) as err:
        load_mutated(tmp_path, mutate)
    assert "Z" in str(err.value)


def test_composite_field_rejected(tmp_path):
    with pytest.raises(SpecError):
        load_mutated(tmp_path, lambda d: d.update(field_modulus=6))


# -- serialization -------------------------------------------------------


def test_serialize_instance_objects():
    ws = load_workspace(ARROW_PATH)
    vect = ws.categories["vect"]
    assert serialize_object(vect, 2) == {"dim": 2}
    m = vect.identity(2)
    assert serialize_morphism(vect, m) == {"matrix": [[1, 0], [0, 1]]}


def test_serialize_context_objects():
    ws = load_workspace(ARROW_PATH)
    ctx = ws.contexts["arrow"]
    _, x = ws.objects["identity_map"]
    doc = serialize_object(ctx, x)
    assert doc["a"] == {"dim": 1}
    assert doc["b"] == {"dim": 1}
    assert doc["alpha"] == {"matrix": [[1]]}


def test_serialize_rep_edge_shapes():
    ws = load_workspace(bundled_workspace_path("coherent_systems"))
    rep = ws.categories["sheaves"]
    assert isinstance(rep, Rep)
    _, bundle = ws.objects["bundle"]
    doc = serialize_object(rep, bundle)
    assert doc["dims"] == [1, 2]
    assert doc["maps"] == [[[1], [0]]]
