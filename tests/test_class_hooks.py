"""CategoryInstance derives dim_total, is_zero_object and class_rank from
class_vector: every simple is one-dimensional over F_p, so a class vector
is a dimension vector.  The per-class formulas that FinVect, Rep and
CommaCategory stated before stay here as the oracle.  Also: the contract
names what an instance supplies, and no package instance class restates a
derived hook."""

import importlib
import pkgutil

import pytest

import commacat
from commacat.core import CategoryInstance
from commacat.instances import FinVect, Rep
from test_matrix_trusted import CONTEXTS as CERTIFY_CONTEXTS
from test_subobject_order import MAX_DIM, _contexts

MAX_TOTAL_DIM = 3
CASES = ([(f"certify/{name}", p, cat) for p, named in CERTIFY_CONTEXTS.items()
          for name, cat in named.items()]
         + [(f"order/{name}", p, cat) for p in sorted(MAX_DIM)
            for name, cat in _contexts(p).items()])


def _old_hooks(cat, x) -> tuple:
    """(dim_total, is_zero_object, class_rank) as each class stated them."""
    if isinstance(cat, FinVect):
        return x, x == 0, 1
    if isinstance(cat, Rep):
        return sum(x.dims), all(d == 0 for d in x.dims), cat.quiver.vertices
    (ld, lz, lr), (rd, rz, rr) = (_old_hooks(cat.left, x.a),
                                  _old_hooks(cat.right, x.b))
    return ld + rd, lz and rz, lr + rr


@pytest.mark.parametrize("name,p,cat", CASES,
                         ids=[f"{name}-F{p}" for name, p, _ in CASES])
def test_derived_hooks_match_the_per_class_formulas(name, p, cat):
    objects = 0
    for x in cat.enumerate_objects(MAX_TOTAL_DIM):
        objects += 1
        assert (cat.dim_total(x), cat.is_zero_object(x), cat.class_rank) \
            == _old_hooks(cat, x), cat.describe_object(x)
    # the zero object and each simple, as well as the non-zero objects
    assert objects > 1 + len(cat.simples())


def _package_instance_classes() -> set:
    for info in pkgutil.iter_modules(commacat.__path__):
        importlib.import_module(f"commacat.{info.name}")
    found, todo = set(), [CategoryInstance]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("commacat.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_contract_names_what_an_instance_supplies():
    assert CategoryInstance.__abstractmethods__ == {
        "zero_object", "is_object", "class_vector", "simples",
        "enumerate_objects", "sample_object",
        "identity", "zero_morphism", "compose", "hom_basis", "mor_flat",
        "mor_from_flat", "_factor_mono", "_factor_epi",
        "kernel", "cokernel", "biproduct", "enumerate_subobjects",
        "subobject_key", "subobject_key_leq", "is_mono", "is_epi"}


def test_no_instance_class_restates_a_derived_hook():
    classes = _package_instance_classes()
    assert {c.__name__ for c in classes} >= {
        "FinVect", "Rep", "CommaCategory", "CoCommaCategory"}
    for cls in classes:
        for hook in ("dim_total", "is_zero_object", "class_rank"):
            assert hook not in vars(cls), f"{cls.__name__}.{hook}"
