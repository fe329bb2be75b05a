"""The comma and co-comma categories share one implementation, so check it
against the definition: a hom basis spans exactly the component pairs whose
structure square commutes, and neither category accepts the other's
morphisms."""

import itertools

import pytest

from commacat.cocomma import CoCommaCategory
from commacat.comma import CommaCategory
from commacat.core import Mor, all_homs
from commacat.errors import CapabilityError, ForeignMorphism
from commacat.functors import (
    arrow_kernel,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
    zero_functor,
)
from commacat.instances import ARROW_QUIVER, FinVect, Rep
from commacat.linalg import Matrix, Subspace

MAX_DIM = 2


def _contexts() -> dict:
    vect = FinVect(2)
    rep = Rep(ARROW_QUIVER, 2)
    sink = rep.obj((0, 1), [Matrix.build(1, 0, 2, ())])
    framing = rep.obj((1, 1), [Matrix.build(1, 1, 2, (1,))])
    dual = hom_into(vect, 1, vect)
    return {
        "identity/hom-into-vect": CoCommaCategory(identity_functor(vect), dual),
        "framed": CoCommaCategory(identity_functor(vect),
                                  hom_into(rep, framing, vect)),
        "tensor/hom-into-vect": CoCommaCategory(tensor(vect, 2), dual),
        "arrow-kernel/framed": CoCommaCategory(
            arrow_kernel(rep, 0, vect), hom_into(rep, framing, vect),
            assume_abelian=True),
        "arrow": CommaCategory(identity_functor(vect), identity_functor(vect)),
        "identity/hom-from-sink": CommaCategory(identity_functor(vect),
                                                hom_from(rep, sink, vect)),
        # a non-additive left leg into a zero cone hom space
        "one-plus/zero": CommaCategory(one_plus(vect), zero_functor(vect, vect),
                                       assume_abelian=True),
        "one-plus/hom-into-zero": CoCommaCategory(one_plus(vect),
                                                  hom_into(vect, 0, vect)),
    }


CONTEXTS = _contexts()


def _hom_space_by_definition(cat, x, y) -> Subspace:
    """Every component pair (f, g) that the public mor accepts, in RREF.

    By definition f runs x.a -> y.a in a comma category and y.a -> x.a in
    a co-comma category; g runs x.b -> y.b in both."""
    a_ends = (y.a, x.a) if isinstance(cat, CoCommaCategory) else (x.a, y.a)
    rows = []
    for f, g in itertools.product(all_homs(cat.left, *a_ends, 10 ** 6),
                                  all_homs(cat.right, x.b, y.b, 10 ** 6)):
        try:
            m = cat.mor(x, y, f, g)
        except ValueError:
            continue
        rows.append(cat.mor_flat(m))
    return Subspace.from_rows(cat.flat_len(x, y), cat.field, rows)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_hom_basis_is_the_rref_basis_of_the_defined_hom_space(name):
    cat = CONTEXTS[name]
    objs = list(cat.enumerate_objects(MAX_DIM))
    assert len(objs) > 5
    for x, y in itertools.product(objs, repeat=2):
        space = _hom_space_by_definition(cat, x, y)
        expected = [space.basis.row(i) for i in range(space.dim)]
        assert [cat.mor_flat(b) for b in cat.hom_basis(x, y)] == expected


def test_non_additive_leg_with_a_nonzero_cone_hom_space_is_refused():
    vect = FinVect(2)
    cat = CommaCategory(one_plus(vect), identity_functor(vect),
                        assume_abelian=True)
    # Hom(F(0), G(1)) = Hom(k, k) is nonzero
    with pytest.raises(CapabilityError, match="hom spaces need additive "
                       "functor legs or a trivial cone hom space"):
        cat.hom_basis(cat.zero_object(), cat.split(0, 1))


def test_each_glued_category_refuses_the_others_morphisms():
    vect = FinVect(2)
    comma = CommaCategory(identity_functor(vect), identity_functor(vect))
    cocomma = CoCommaCategory(identity_functor(vect),
                              hom_into(vect, 1, vect))
    for own, other in ((comma, cocomma), (cocomma, comma)):
        x = other.simples()[0]
        m = other.identity(x)
        with pytest.raises(ForeignMorphism):
            own.compose(m, m)
        with pytest.raises(ForeignMorphism):
            own.factor_through_mono(m, m)
        with pytest.raises(ForeignMorphism):
            own.factor_through_epi(m, m)
        # the same data under the category's own object class is accepted
        y = own.obj(x.a, x.b, x.alpha)
        mine = Mor(y, y, m.data)
        assert own.compose(mine, mine) == own.identity(y)
